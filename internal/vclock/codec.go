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

// AppendDelta appends the v2 delta encoding of v against base to buf and
// returns the extended buffer, in whichever of two forms is shorter for this
// clock:
//
//   - per component: a uvarint component count followed by one zig-zag
//     varint per component holding the wrapped difference v[k]−base[k] (a
//     nil base encodes against the zero clock: absolute values);
//   - runs of equal differences, against a non-nil base of at least one
//     component only: a zero byte where the count would be, then
//     (run length uvarint, zig-zag difference varint) pairs whose lengths
//     add up to len(base). A run of difference 0 is a copy of the base.
//
// The runs form is the differential technique of Singhal and Kshemkalyani
// applied to one clock: successive reports advance few components (Theorem 2
// succession), so a Lo against the previous report's Hi is mostly one copy,
// and an interval's Hi against its own Lo mostly one difference repeated.
// A zero count can never be the per-component form against a non-empty base
// (that form's count must equal the base's), so a decoder tells the forms
// apart from the first byte and the base, and a decoder that knows only the
// per-component form rejects a runs-form clock as corrupt.
//
// The encoder writes the runs form, counting what the per-component form
// would cost as it goes, and rewrites the clock per component unless the runs
// came out strictly shorter: the choice depends on the clock and its base
// alone, and DeltaSize makes the same one. Differences
// are computed in the signed 64-bit domain, where every pair of uint32
// components subtracts exactly, so the round trip is lossless. base must be
// nil or match v's length.
func (v VC) AppendDelta(buf []byte, base VC) []byte {
	if base != nil {
		v.check(base)
	}
	at := len(buf)
	// Room for the longest per-component form, and one run more: a runs form
	// is only written while it is shorter than the first.
	plainMax := uvarintLen(uint64(len(v))) + maxDeltaBytes*len(v)
	buf = slices.Grow(buf, plainMax+maxRunBytes)
	out := buf[at : at+plainMax+maxRunBytes]
	if len(v) > 0 && base != nil {
		if size := appendRuns(out, plainMax, v, base); size > 0 {
			return buf[:at+size]
		}
	}
	return buf[:at+appendPlain(out, v, base)]
}

// maxDeltaBytes is the longest encoding of one difference: the zig-zag
// image of a difference of two uint32s has 33 bits, five varint bytes.
const maxDeltaBytes = 5

// maxRunBytes is the longest encoding of one run: a length and a difference.
const maxRunBytes = binary.MaxVarintLen64 + maxDeltaBytes

// appendRuns writes the runs form of v against base (same length, at least
// one component) into out and returns its size, or 0 when it is not shorter
// than the per-component form. It gives up as soon as it has written
// plainMax bytes, the most the per-component form can take.
func appendRuns(out []byte, plainMax int, v, base VC) int {
	base = base[:len(v)]
	out[0] = 0 // the runs form's marker: a zero count
	i, plain := 1, uvarintLen(uint64(len(v)))
	for start := 0; start < len(v); {
		d, k := int64(v[start])-int64(base[start]), start+1
		for k < len(v) && int64(v[k])-int64(base[k]) == d {
			k++
		}
		if i >= plainMax {
			return 0
		}
		u, run := zigzag(d), k-start
		if u < 0x80 && run < 0x80 { // nearly every run: two bytes
			plain += run
			out[i], out[i+1] = byte(run), byte(u)
			i += 2
		} else {
			plain += run * uvarintLen(u)
			i += binary.PutUvarint(out[i:], uint64(run))
			i += binary.PutUvarint(out[i:], u)
		}
		start = k
	}
	if i >= plain {
		return 0
	}
	return i
}

// appendPlain writes the per-component form of v against base (nil = the
// zero clock) into out, which has room for it, and returns its size.
func appendPlain(out []byte, v, base VC) int {
	i := binary.PutUvarint(out, uint64(len(v)))
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
		return i
	}
	base = base[:len(v)]
	for k, c := range v {
		u := zigzag(int64(c) - int64(base[k]))
		if u < 0x80 {
			// The difference fits seven bits: 99 % of the components of a
			// report stream (EXPERIMENTS.md, PR 16), and one store.
			out[i] = byte(u)
			i++
			continue
		}
		i += binary.PutUvarint(out[i:], u)
	}
	return i
}

// zigzag maps a signed difference to the unsigned image binary.AppendVarint
// writes: small magnitudes of either sign to small numbers.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// ConsumeDelta decodes one delta-encoded clock (either form, see AppendDelta)
// from the front of data into *dst, applying it against base (nil base =
// zero clock), and returns the unconsumed remainder. dst's backing array is
// reused when it has capacity; dst may alias base, in which case the patch is
// applied in place.
//
// What a clock can make the decoder allocate is bounded before anything is
// allocated. The per-component form's count is checked against the bytes
// present (a varint is at least one byte) and, with a base, must equal the
// base's length, else the encoding is corrupt — a delta against the wrong
// clock domain can never decode meaningfully. The runs form is accepted only
// against a non-nil base and always decodes to the base's length: however few
// bytes it has, it costs what the caller already holds in base, no more.
func ConsumeDelta(data []byte, dst *VC, base VC) (rest []byte, err error) {
	if len(data) > 0 && data[0] == 0 && len(base) > 0 {
		return consumeRuns(data[1:], dst, base)
	}
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

// DeltaLen returns how many components the delta-encoded clock at the front
// of data has against base, without decoding it, and whether it is in the
// runs form (whose count is base's); -1 when the count is unreadable or
// past MaxComponents.
func DeltaLen(data []byte, base VC) (n int, runs bool) {
	if len(data) > 0 && data[0] == 0 && len(base) > 0 {
		return len(base), true
	}
	if n64, sz := binary.Uvarint(data); sz > 0 && n64 <= MaxComponents {
		return int(n64), false
	}
	return -1, false
}

// consumeRuns decodes the runs form's (length, difference) pairs, data just
// past its zero byte, against base (at least one component).
func consumeRuns(data []byte, dst *VC, base VC) ([]byte, error) {
	out := sized(dst, len(base))
	i := 0
	for k := 0; k < len(out); {
		run, sz := uvarint(data[i:])
		if sz <= 0 {
			return nil, varintErr(sz, "run length")
		}
		i += sz
		if run == 0 || run > uint64(len(out)-k) {
			return nil, fmt.Errorf("vclock: run of %d components at %d of %d: %w", run, k, len(out), ErrCorrupt)
		}
		u, sz := uvarint(data[i:])
		if sz <= 0 {
			return nil, varintErr(sz, "run difference")
		}
		i += sz
		to, from := out[k:k+int(run)], base[k:k+int(run)]
		if d := int64(u>>1) ^ -int64(u&1); d == 0 {
			if &to[0] != &from[0] { // in place over base, a copy is a no-op
				copy(to, from)
			}
		} else {
			to = to[:len(from)]
			for j, b := range from {
				c := int64(b) + d
				if uint64(c) > maxComponent {
					return nil, rangeErr(k+j, c)
				}
				to[j] = uint32(c)
			}
		}
		k += int(run)
	}
	*dst = out
	return data[i:], nil
}

// uvarint is binary.Uvarint with the one-byte case inline.
func uvarint(data []byte) (uint64, int) {
	if len(data) > 0 && data[0] < 0x80 {
		return uint64(data[0]), 1
	}
	return binary.Uvarint(data)
}

// rangeErr reports a decoded component outside the clock domain.
func rangeErr(k int, c int64) error {
	return fmt.Errorf("vclock: delta component %d lands at %d, outside the uint32 clock domain: %w", k, c, ErrCorrupt)
}

// DeltaSize returns the encoded size in bytes of v delta-encoded against
// base (nil base = zero clock) in the form AppendDelta picks, without
// encoding. The byte-volume experiments use it to account wire format v2
// alongside the v1 WireSize.
func (v VC) DeltaSize(base VC) int {
	if base != nil {
		v.check(base)
	}
	diff := func(k int) int64 {
		if base == nil {
			return int64(v[k])
		}
		return int64(v[k]) - int64(base[k])
	}
	plain, runs := uvarintLen(uint64(len(v))), 1
	for start := 0; start < len(v); {
		d, k := diff(start), start+1
		for k < len(v) && diff(k) == d {
			k++
		}
		n := uvarintLen(zigzag(d))
		plain += (k - start) * n
		runs += uvarintLen(uint64(k-start)) + n
		start = k
	}
	if len(v) > 0 && base != nil && runs < plain {
		return runs
	}
	return plain
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
