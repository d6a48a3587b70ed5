package vclock

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Codec error categories. Consumers (internal/wire, transports) dispatch on
// these to tell a short read from structural corruption; wire re-wraps them
// into its own ErrTruncated/ErrCorrupt sentinels.
var (
	// ErrTruncated marks a buffer shorter than its encoding claims.
	ErrTruncated = errors.New("vclock: truncated encoding")
	// ErrCorrupt marks a structurally invalid encoding (impossible length,
	// varint overflow). It can never become valid with more bytes.
	ErrCorrupt = errors.New("vclock: corrupt encoding")
)

// MaxComponents bounds the component count a decoder accepts before
// allocating: a clock claiming more processes than any plausible deployment
// is corrupt, not merely large. It matches wire.MaxSpan.
const MaxComponents = 1 << 20

// MarshalBinary encodes the clock as a length-prefixed sequence of big-endian
// 64-bit components — wire format v1, fixed 8 bytes per component. The wire
// layer ships interval bounds between detector nodes in this form when
// talking to pre-v2 peers. The field stays 8 bytes even though components are
// uint32 in memory, so v1 encodings are bit-for-bit stable across the
// narrowing; the decoder rejects inbound components that no longer fit.
func (v VC) MarshalBinary() ([]byte, error) {
	return v.AppendBinary(make([]byte, 0, WireSize(len(v)))), nil
}

// AppendBinary appends the v1 fixed-width encoding of v to buf and returns
// the extended buffer. It allocates only when buf lacks capacity, so encoders
// that reuse scratch buffers stay allocation-free.
func (v VC) AppendBinary(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(v)))
	for _, c := range v {
		buf = binary.BigEndian.AppendUint64(buf, uint64(c))
	}
	return buf
}

// UnmarshalBinary decodes a clock previously produced by MarshalBinary. The
// buffer must contain exactly one encoded clock.
func (v *VC) UnmarshalBinary(data []byte) error {
	rest, err := ConsumeBinary(data, v)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("vclock: %d trailing bytes: %w", len(rest), ErrCorrupt)
	}
	return nil
}

// ConsumeBinary decodes one v1 fixed-width clock from the front of data into
// *dst, reusing dst's backing array when it has capacity, and returns the
// unconsumed remainder. The length claimed by the prefix is validated against
// the bytes actually present before anything is allocated.
func ConsumeBinary(data []byte, dst *VC) (rest []byte, err error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("vclock: %d-byte buffer lacks length prefix: %w", len(data), ErrTruncated)
	}
	n := int(binary.BigEndian.Uint32(data))
	if n > MaxComponents {
		return nil, fmt.Errorf("vclock: %d components: %w", n, ErrCorrupt)
	}
	if len(data) < 4+8*n {
		return nil, fmt.Errorf("vclock: want %d bytes for %d components, have %d: %w", 4+8*n, n, len(data), ErrTruncated)
	}
	out := sized(dst, n)
	for k := range out {
		c := binary.BigEndian.Uint64(data[4+8*k:])
		if c > maxComponent {
			return nil, fmt.Errorf("vclock: component %d value %d exceeds the uint32 clock domain: %w", k, c, ErrCorrupt)
		}
		out[k] = uint32(c)
	}
	*dst = out
	return data[4+8*n:], nil
}

// maxComponent is the largest value a clock component can hold.
const maxComponent = 1<<32 - 1

// AppendDelta appends the v2 delta-varint encoding of v against base to buf
// and returns the extended buffer: a uvarint component count followed by one
// zig-zag varint per component holding the wrapped difference v[k]−base[k].
// A nil base encodes against the zero clock (absolute values). Differences
// are computed in the signed 64-bit domain, where every pair of uint32
// components subtracts exactly, so the round trip is lossless while keeping
// small moves — the overwhelmingly common case for the near-monotone clocks
// of successive reports (Theorem 2 succession) — at one or two bytes per
// component. base must be nil or match v's length.
func (v VC) AppendDelta(buf []byte, base VC) []byte {
	if base != nil {
		v.check(base)
	}
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	// Room for the worst case up front, so the loop stores by index: one
	// capacity check per clock instead of one per component.
	at := len(buf)
	buf = slices.Grow(buf, maxDeltaBytes*len(v))
	out := buf[at : at+maxDeltaBytes*len(v)]
	i := 0
	if base == nil {
		for _, c := range v {
			u := uint64(c) << 1 // zig-zag image of a non-negative difference
			if u < 0x80 {
				out[i] = byte(u)
				i++
				continue
			}
			i += binary.PutUvarint(out[i:], u)
		}
		return buf[:at+i]
	}
	base = base[:len(v)]
	for k, c := range v {
		d := int64(c) - int64(base[k])
		u := uint64(d<<1) ^ uint64(d>>63) // zig-zag, as binary.AppendVarint
		if u < 0x80 {
			// The difference fits seven bits: 99 % of the components of a
			// report stream (EXPERIMENTS.md, PR 16), and one store.
			out[i] = byte(u)
			i++
			continue
		}
		i += binary.PutUvarint(out[i:], u)
	}
	return buf[:at+i]
}

// maxDeltaBytes is the longest encoding of one component: the zig-zag image
// of a difference of two uint32s has 33 bits, five varint bytes.
const maxDeltaBytes = 5

// ConsumeDelta decodes one delta-varint clock from the front of data into
// *dst, applying it against base (nil base = zero clock), and returns the
// unconsumed remainder. dst's backing array is reused when it has capacity;
// dst may alias base, in which case the patch is applied in place. The
// declared component count is validated against the bytes present (a varint
// is at least one byte) before any allocation. base must be nil or match the
// encoded length, else the encoding is rejected as corrupt — a delta against
// the wrong clock domain can never decode meaningfully.
func ConsumeDelta(data []byte, dst *VC, base VC) (rest []byte, err error) {
	n64, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, varintErr(sz, "component count")
	}
	data = data[sz:]
	if n64 > MaxComponents {
		return nil, fmt.Errorf("vclock: %d components: %w", n64, ErrCorrupt)
	}
	n := int(n64)
	if len(data) < n {
		return nil, fmt.Errorf("vclock: %d bytes cannot hold %d delta components: %w", len(data), n, ErrTruncated)
	}
	if base != nil && base.Len() != n {
		return nil, fmt.Errorf("vclock: delta of %d components against %d-component base: %w", n, base.Len(), ErrCorrupt)
	}
	out := sized(dst, n)
	// Two copies of one loop, with and without a base: testing base inside
	// it costs a sixth of the decode. In both, a one-byte varint — the common
	// case by far (see AppendDelta) — is read without a call or a loop.
	i := 0
	if base == nil {
		for k := range out {
			var u uint64
			if i < len(data) && data[i] < 0x80 {
				u = uint64(data[i])
				i++
			} else {
				var sz int
				if u, sz = binary.Uvarint(data[i:]); sz <= 0 {
					return nil, varintErr(sz, "delta component")
				}
				i += sz
			}
			c := int64(u>>1) ^ -int64(u&1) // undo the zig-zag, as binary.Varint
			if uint64(c) > maxComponent {
				return nil, rangeErr(k, c)
			}
			out[k] = uint32(c)
		}
		*dst = out
		return data[i:], nil
	}
	base = base[:len(out)]
	for k := range out {
		var u uint64
		if i < len(data) && data[i] < 0x80 {
			u = uint64(data[i])
			i++
		} else {
			var sz int
			if u, sz = binary.Uvarint(data[i:]); sz <= 0 {
				return nil, varintErr(sz, "delta component")
			}
			i += sz
		}
		c := int64(base[k]) + (int64(u>>1) ^ -int64(u&1))
		if uint64(c) > maxComponent {
			return nil, rangeErr(k, c)
		}
		out[k] = uint32(c)
	}
	*dst = out
	return data[i:], nil
}

// rangeErr reports a decoded component outside the clock domain.
func rangeErr(k int, c int64) error {
	return fmt.Errorf("vclock: delta component %d lands at %d, outside the uint32 clock domain: %w", k, c, ErrCorrupt)
}

// DeltaSize returns the encoded size in bytes of v delta-encoded against
// base (nil base = zero clock), without encoding. The byte-volume experiments
// use it to account wire format v2 alongside the v1 WireSize.
func (v VC) DeltaSize(base VC) int {
	if base != nil {
		v.check(base)
	}
	size := uvarintLen(uint64(len(v)))
	for k, c := range v {
		var b uint32
		if base != nil {
			b = base[k]
		}
		d := int64(c) - int64(b)
		size += uvarintLen(uint64(d)<<1 ^ uint64(d>>63)) // zig-zag image
	}
	return size
}

// sized returns *dst resized to n components, reusing its backing array when
// capacity allows.
func sized(dst *VC, n int) VC {
	if cap(*dst) >= n {
		return (*dst)[:n]
	}
	return make(VC, n)
}

// uvarintLen is the encoded length of a uvarint.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// varintErr classifies a binary.Uvarint/Varint failure: 0 means the buffer
// ran out mid-varint (truncated), negative means 64-bit overflow (corrupt).
func varintErr(sz int, what string) error {
	if sz == 0 {
		return fmt.Errorf("vclock: %s: %w", what, ErrTruncated)
	}
	return fmt.Errorf("vclock: %s overflows: %w", what, ErrCorrupt)
}

// WireSize returns the v1 encoded size in bytes of a clock for an n-process
// system. The complexity experiments use it to convert message counts into
// byte volumes (each interval carries two clocks — its lower and upper bound).
func WireSize(n int) int { return 4 + 8*n }
