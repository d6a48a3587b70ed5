package vclock

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzUnmarshalBinary hardens the wire decoder against arbitrary input: it
// must never panic, and every accepted input must round-trip bit-exactly.
func FuzzUnmarshalBinary(f *testing.F) {
	seed, _ := Of(1, 2, 3).MarshalBinary()
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		var v VC
		if err := v.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := v.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("round trip not exact: %x vs %x", data, out)
		}
	})
}

// refAppendPlain and refConsumePlain are the per-component codec as it
// stood before the single-byte fast path and before the runs form: one
// binary.AppendVarint / binary.Varint per component, nothing else — so
// refConsumePlain is also what a decoder without the runs form does with one.
// refAppendDelta and refConsumeDelta add the runs form as plainly as it can
// be written (group equal differences, size both, keep the shorter), and are
// the reference the production codec is pinned to: the two must agree on
// every input, byte for byte and error for error.
func refAppendPlain(v VC, buf []byte, base VC) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	for k, c := range v {
		var b uint32
		if base != nil {
			b = base[k]
		}
		buf = binary.AppendVarint(buf, int64(c)-int64(b))
	}
	return buf
}

func refConsumePlain(data []byte, dst *VC, base VC) (rest []byte, err error) {
	n64, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, varintErr(sz, "component count")
	}
	data = data[sz:]
	if n64 > MaxComponents {
		return nil, ErrCorrupt
	}
	n := int(n64)
	if len(data) < n {
		return nil, ErrTruncated
	}
	if base != nil && base.Len() != n {
		return nil, ErrCorrupt
	}
	out := sized(dst, n)
	for k := range out {
		d, sz := binary.Varint(data)
		if sz <= 0 {
			return nil, varintErr(sz, "delta component")
		}
		data = data[sz:]
		var b int64
		if base != nil {
			b = int64(base[k])
		}
		c := b + d
		if c < 0 || c > maxComponent {
			return nil, ErrCorrupt
		}
		out[k] = uint32(c)
	}
	*dst = out
	return data, nil
}

func refAppendDelta(v VC, buf []byte, base VC) []byte {
	plain := refAppendPlain(v, nil, base)
	if len(v) == 0 || base == nil {
		return append(buf, plain...)
	}
	runs := []byte{0}
	for start := 0; start < len(v); {
		d, k := int64(v[start])-int64(base[start]), start+1
		for k < len(v) && int64(v[k])-int64(base[k]) == d {
			k++
		}
		runs = binary.AppendVarint(binary.AppendUvarint(runs, uint64(k-start)), d)
		start = k
	}
	if len(runs) < len(plain) {
		return append(buf, runs...)
	}
	return append(buf, plain...)
}

func refConsumeDelta(data []byte, dst *VC, base VC) (rest []byte, err error) {
	if len(data) == 0 || data[0] != 0 || len(base) == 0 {
		return refConsumePlain(data, dst, base)
	}
	data = data[1:]
	out := make(VC, len(base))
	for k := 0; k < len(out); {
		run, sz := binary.Uvarint(data)
		if sz <= 0 {
			return nil, varintErr(sz, "run length")
		}
		data = data[sz:]
		if run == 0 || run > uint64(len(out)-k) {
			return nil, ErrCorrupt
		}
		d, sz := binary.Varint(data)
		if sz <= 0 {
			return nil, varintErr(sz, "run difference")
		}
		data = data[sz:]
		for ; run > 0; run-- {
			c := int64(base[k]) + d
			if c < 0 || c > maxComponent {
				return nil, ErrCorrupt
			}
			out[k] = uint32(c)
			k++
		}
	}
	*dst = append((*dst)[:0], out...)
	return data, nil
}

// sentinelOf names the codec sentinel an error wraps ("" for nil).
func sentinelOf(t *testing.T, err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrTruncated):
		return "truncated"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	}
	t.Fatalf("error %v wraps neither sentinel", err)
	return ""
}

// FuzzDeltaCodecMatchesReference pins AppendDelta/ConsumeDelta to the
// scalar reference above. Decoding arbitrary bytes against an arbitrary base
// must give the same clock, remaining slice and error sentinel,
// with dst fresh and with dst aliasing base (the in-place patch); encoding
// the clock the input's bytes spell, against that base and against one it
// differs from in runs, must give the same bytes, DeltaSize must count them,
// and they must decode back to the clock.
func FuzzDeltaCodecMatchesReference(f *testing.F) {
	const n = 9
	base := make(VC, n)
	for k := range base {
		base[k] = uint32(1000 * (k + 1))
	}
	baseBytes := base.AppendBinary(nil)
	// A delta of every varint width, in both directions, at every position
	// of an otherwise one-byte clock.
	for pos := 0; pos < n; pos++ {
		for _, d := range []int64{63, 64, -64, -65, 1 << 13, -(1 << 13) - 1, 1 << 20, 1 << 27, 1<<32 - 1 - int64(base[pos]), -int64(base[pos])} {
			enc := binary.AppendUvarint(nil, n)
			for k := 0; k < n; k++ {
				if k == pos {
					enc = binary.AppendVarint(enc, d)
				} else {
					enc = binary.AppendVarint(enc, int64(k%3))
				}
			}
			f.Add(enc, baseBytes)
			f.Add(enc, []byte{}) // absolute: negative deltas land below zero
		}
		// Landing one below 0 and one above 2³²−1, and a 10-byte varint.
		for _, d := range []int64{-int64(base[pos]) - 1, 1<<32 - int64(base[pos]), -1 << 62} {
			enc := binary.AppendUvarint(nil, n)
			for k := 0; k < n; k++ {
				if k == pos {
					enc = binary.AppendVarint(enc, d)
				} else {
					enc = append(enc, 2)
				}
			}
			f.Add(enc, baseBytes)
			f.Add(enc[:len(enc)-(n-pos)], baseBytes) // and cut inside the wide varint's tail
		}
	}
	// The runs form: one copy, one difference throughout, a run that ends
	// past the base, a zero-length run, a difference that lands outside the
	// clock domain, a cut, and a zero count that is not the one-byte marker.
	for _, enc := range [][]byte{
		{0, n, 0}, {0, n, 6}, {0, 2, 1, n - 2, 0}, {0, 2, 1, n, 0}, {0, 0, 0, n, 0},
		binary.AppendVarint([]byte{0, 1, 0, 1}, -2000), {0, 4, 0}, {0x80, 0, 0, n, 0},
	} {
		f.Add(enc, baseBytes)
		f.Add(enc, []byte{})
	}
	f.Add([]byte{}, []byte{})
	f.Add([]byte{3, 0x80}, []byte{})
	f.Add([]byte{1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, []byte{})
	f.Fuzz(func(t *testing.T, data, baseBytes []byte) {
		var base VC
		if len(baseBytes) > 0 {
			if _, err := ConsumeBinary(baseBytes, &base); err != nil {
				base = nil
			}
		}
		for _, alias := range []bool{false, true} {
			if alias && base == nil {
				continue
			}
			var got, want VC
			gotBase, wantBase := base, base
			if alias {
				gotBase, wantBase = base.Clone(), base.Clone()
				got, want = gotBase, wantBase
			}
			gotRest, gotErr := ConsumeDelta(data, &got, gotBase)
			wantRest, wantErr := refConsumeDelta(data, &want, wantBase)
			if g, w := sentinelOf(t, gotErr), sentinelOf(t, wantErr); g != w {
				t.Fatalf("alias=%v: error %q (%v), reference %q (%v)", alias, g, gotErr, w, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if !got.Equal(want) {
				t.Fatalf("alias=%v: decoded %v, reference %v", alias, got, want)
			}
			if len(gotRest) != len(wantRest) { // both are tails of data
				t.Fatalf("alias=%v: %d bytes left, reference %d", alias, len(gotRest), len(wantRest))
			}
			if alias && len(got) > 0 && &got[0] != &gotBase[0] {
				t.Fatal("decode over base left the base's storage")
			}
		}
		// The other direction: data read as little-endian components.
		v := make(VC, len(data)/4)
		for k := range v {
			v[k] = binary.LittleEndian.Uint32(data[4*k:])
		}
		if base != nil && base.Len() != v.Len() {
			base = nil
		}
		// And against a base that differs from v by repeated amounts, as
		// a report's Hi from its Lo: each component moved by the byte below
		// it when that is even, kept when odd — runs of both kinds.
		near := v.Clone()
		for k := range near {
			if b := data[4*k]; b%2 == 0 {
				near[k] -= uint32(b)
			}
		}
		for _, base := range []VC{base, near} {
			prefix := []byte("prefix")
			got := v.AppendDelta(append([]byte(nil), prefix...), base)
			want := refAppendDelta(v, append([]byte(nil), prefix...), base)
			if !bytes.Equal(got, want) {
				t.Fatalf("AppendDelta(%v, base %v) = %x, reference %x", v, base, got, want)
			}
			if size := v.DeltaSize(base); size != len(got)-len(prefix) {
				t.Fatalf("DeltaSize = %d, encoding is %d bytes", size, len(got)-len(prefix))
			}
			var back VC
			if rest, err := ConsumeDelta(got[len(prefix):], &back, base); err != nil || len(rest) != 0 || !back.Equal(v) {
				t.Fatalf("round trip of %v against %v: %v, %d bytes left, %v", v, base, back, len(rest), err)
			}
		}
	})
}

// FuzzLessMatchesScalar pins Less — the AVX2 kernel from lessVecMin
// components on amd64 — to the scalar loop: n from 0 to 300, values from
// data (ties where a byte is even, spread up to the sign bit), and by mode
// the clocks as drawn, all-equal clocks, one refuting component planted at k
// (in any block or in the tail), or equal clocks but for one smaller
// component at k.
func FuzzLessMatchesScalar(f *testing.F) {
	for _, n := range []uint16{0, 1, 15, 16, 17, 63, 127, 273, 300} {
		for _, k := range []uint16{0, 7, 8, 15, 16, n - 1} {
			for mode := range uint8(4) {
				f.Add([]byte{1, 0, 2, 0xff}, n, k, mode)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, n, k uint16, mode uint8) {
		n %= 301
		v, u := make(VC, n), make(VC, n)
		for i := range v {
			var d byte
			if len(data) > 0 {
				d = data[i%len(data)]
			}
			v[i] = uint32(d)<<24 | uint32(i)
			u[i] = v[i] + uint32(d&1)
		}
		mode %= 4
		if mode >= 2 && n == 0 {
			return
		}
		switch mode {
		case 1:
			copy(u, v)
		case 2: // v[k] = u[k] + 1
			v[k%n], u[k%n] = v[k%n]+1, v[k%n]
		case 3: // u = v but u[k] = v[k] + 1
			copy(u, v)
			u[k%n]++
		}
		got, oracle := v.Less(u), lessScalar(v, u)
		if got != oracle || (mode != 0 && got != (mode == 3)) {
			t.Fatalf("n=%d k=%d mode=%d: Less = %v, scalar oracle = %v\nv=%v\nu=%v", n, k, mode, got, oracle, v, u)
		}
	})
}
