package vclock

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func TestAppendConsumeBinaryRoundTrip(t *testing.T) {
	v := Of(0, 1, math.MaxUint32, 42)
	buf := v.AppendBinary(nil)
	legacy, _ := v.MarshalBinary()
	if !bytes.Equal(buf, legacy) {
		t.Fatalf("AppendBinary %x differs from MarshalBinary %x", buf, legacy)
	}
	var back VC
	rest, err := ConsumeBinary(append(buf, 0xAA), &back)
	if err != nil {
		t.Fatalf("ConsumeBinary: %v", err)
	}
	if !back.Equal(v) {
		t.Fatalf("round trip changed the clock: %v vs %v", back, v)
	}
	if len(rest) != 1 || rest[0] != 0xAA {
		t.Fatalf("rest = %x, want the trailing sentinel byte", rest)
	}
}

func TestConsumeBinaryReusesStorage(t *testing.T) {
	v := Of(7, 8, 9)
	buf := v.AppendBinary(nil)
	dst := make(VC, 8)
	p := &dst[0]
	if _, err := ConsumeBinary(buf, &dst); err != nil {
		t.Fatal(err)
	}
	if len(dst) != 3 || &dst[0] != p {
		t.Fatal("ConsumeBinary reallocated although dst had capacity")
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	cases := []struct {
		name    string
		base, v VC
	}{
		{"zero base", nil, Of(3, 0, 5)},
		{"small forward", Of(10, 20, 30), Of(12, 20, 31)},
		{"mixed direction", Of(10, 20, 30), Of(9, 25, 30)},
		{"extremes", Of(0, math.MaxUint32), Of(math.MaxUint32, 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.v.AppendDelta(nil, tc.base)
			if got := tc.v.DeltaSize(tc.base); got != len(buf) {
				t.Fatalf("DeltaSize %d, encoded %d bytes", got, len(buf))
			}
			var back VC
			rest, err := ConsumeDelta(buf, &back, tc.base)
			if err != nil {
				t.Fatalf("ConsumeDelta: %v", err)
			}
			if len(rest) != 0 {
				t.Fatalf("%d bytes left over", len(rest))
			}
			if !back.Equal(tc.v) {
				t.Fatalf("round trip changed the clock: %v vs %v", back, tc.v)
			}
		})
	}
}

// TestDeltaCompression pins the point of the codec: a near-monotone step
// from its base must cost ~1 byte per component instead of v1's fixed 8.
func TestDeltaCompression(t *testing.T) {
	n := 64
	base := make(VC, n)
	v := make(VC, n)
	for i := range base {
		base[i] = uint32(1000 + i)
		v[i] = base[i] + uint32(i%3) // deltas 0..2
	}
	size := v.DeltaSize(base)
	if size > 2+n { // count prefix + 1 byte per component
		t.Fatalf("delta of a near-monotone step costs %d bytes for n=%d", size, n)
	}
	if v1 := WireSize(n); size*3 > v1 {
		t.Fatalf("delta %d not clearly smaller than v1 %d", size, v1)
	}
}

func TestConsumeDeltaInPlaceOverBase(t *testing.T) {
	base := Of(5, 5, 5)
	v := Of(6, 4, 5)
	buf := v.AppendDelta(nil, base)
	dst := base // alias: patch the link state in place
	if _, err := ConsumeDelta(buf, &dst, base); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(v) {
		t.Fatalf("in-place patch got %v, want %v", dst, v)
	}
}

func TestConsumeDeltaErrors(t *testing.T) {
	v := Of(1, 2, 3)
	good := v.AppendDelta(nil, nil)
	var dst VC

	if _, err := ConsumeDelta(nil, &dst, nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty buffer: %v, want ErrTruncated", err)
	}
	if _, err := ConsumeDelta(good[:len(good)-1], &dst, nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("cut body: %v, want ErrTruncated", err)
	}
	// Component count larger than the remaining bytes can back.
	if _, err := ConsumeDelta([]byte{0xFF, 0x07}, &dst, nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("oversized count: %v, want ErrTruncated", err)
	}
	// Count beyond MaxComponents is corrupt regardless of buffer size.
	huge := []byte{0x80, 0x80, 0x80, 0x80, 0x08} // uvarint 2^31
	if _, err := ConsumeDelta(huge, &dst, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("giant count: %v, want ErrCorrupt", err)
	}
	// Base of the wrong domain size.
	if _, err := ConsumeDelta(good, &dst, Of(1, 2)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mismatched base: %v, want ErrCorrupt", err)
	}
	// A varint overflowing 64 bits is corrupt.
	over := []byte{1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ConsumeDelta(over, &dst, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("varint overflow: %v, want ErrCorrupt", err)
	}
}

// TestDeltaForms pins which form the encoder picks and what each costs: a
// clock equal to its base is one copy run, one moved by a single difference
// one add run, a run longer than 127 components takes a two-byte length, and
// a clock whose differences all differ stays per component. Every encoding is
// what DeltaSize counts and decodes back, fresh and in place over the base.
func TestDeltaForms(t *testing.T) {
	const n = 200
	base := make(VC, n)
	for k := range base {
		base[k] = uint32(1000 + 7*k)
	}
	moved := func(f func(k int) int) VC {
		v := base.Clone()
		for k := range v {
			v[k] = uint32(int(v[k]) + f(k))
		}
		return v
	}
	cases := []struct {
		name string
		v    VC
		want []byte // nil: the per-component form
	}{
		{"copy", base.Clone(), []byte{0, 0xC8, 0x01, 0}},
		{"one difference", moved(func(int) int { return 2 }), []byte{0, 0xC8, 0x01, 4}},
		{"one component moved", moved(func(k int) int { return b2i(k == 150) * -3 }), []byte{0, 0x96, 0x01, 0, 1, 5, 49, 0}},
		{"every difference new", moved(func(k int) int { return k % 50 }), nil},
	}
	for _, tc := range cases {
		buf := tc.v.AppendDelta(nil, base)
		if tc.want == nil {
			tc.want = refAppendPlain(tc.v, nil, base)
		}
		if !bytes.Equal(buf, tc.want) {
			t.Fatalf("%s: encoded %x, want %x", tc.name, buf, tc.want)
		}
		if size := tc.v.DeltaSize(base); size != len(buf) {
			t.Fatalf("%s: DeltaSize %d, encoded %d bytes", tc.name, size, len(buf))
		}
		var back VC
		if rest, err := ConsumeDelta(buf, &back, base); err != nil || len(rest) != 0 || !back.Equal(tc.v) {
			t.Fatalf("%s: decoded %v, %d bytes left, %v", tc.name, back, len(rest), err)
		}
		inPlace := base.Clone()
		dst := inPlace
		if _, err := ConsumeDelta(buf, &dst, inPlace); err != nil || !dst.Equal(tc.v) || &dst[0] != &inPlace[0] {
			t.Fatalf("%s: in-place decode gave %v, %v", tc.name, dst, err)
		}
	}
	// Without a base, or against an empty one, there is only the
	// per-component form: a zero byte is the empty clock.
	if buf := base.AppendDelta(nil, nil); !bytes.Equal(buf, refAppendPlain(base, nil, nil)) {
		t.Fatal("a clock without a base was not encoded per component")
	}
	var empty VC
	if rest, err := ConsumeDelta([]byte{0, 9}, &empty, VC{}); err != nil || len(empty) != 0 || len(rest) != 1 {
		t.Fatalf("zero byte against an empty base: %v, %d bytes left, %v", empty, len(rest), err)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestConsumeRunsErrors(t *testing.T) {
	base := Of(10, 20, 30, 40)
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"marker only", []byte{0}, ErrTruncated},
		{"length without difference", []byte{0, 4}, ErrTruncated},
		{"runs short of the base", []byte{0, 2, 0, 1, 2}, ErrTruncated},
		{"zero-length run", []byte{0, 0, 0, 4, 0}, ErrCorrupt},
		{"run past the base", []byte{0, 3, 0, 2, 0}, ErrCorrupt},
		{"below zero", binary.AppendVarint([]byte{0, 4}, -11), ErrCorrupt},
		{"past the clock domain", binary.AppendVarint([]byte{0, 4}, 1<<32-40), ErrCorrupt},
		{"length overflows", []byte{0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0}, ErrCorrupt},
	}
	for _, tc := range cases {
		var dst VC
		if _, err := ConsumeDelta(tc.data, &dst, base); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestPlainDecoderRejectsRunsForm: a decoder that knows only the
// per-component form — refConsumePlain, which is what a peer built before the
// runs form runs — rejects every runs-form clock as corrupt instead of
// reading it as something else, because the runs form's zero count never
// matches a non-empty base.
func TestPlainDecoderRejectsRunsForm(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	runs := 0
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(300)
		base, v := make(VC, n), make(VC, n)
		d := uint32(r.Intn(3))
		for k := range base {
			base[k] = uint32(r.Intn(1 << 20))
			v[k] = base[k] + d
			if r.Intn(10) == 0 {
				v[k] += uint32(r.Intn(1000))
			}
		}
		buf := v.AppendDelta(nil, base)
		if buf[0] != 0 {
			continue
		}
		runs++
		var dst VC
		if _, err := refConsumePlain(buf, &dst, base); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("per-component decoder on a runs-form clock: %v, want ErrCorrupt", err)
		}
	}
	if runs < 1000 {
		t.Fatalf("only %d of 2000 clocks took the runs form", runs)
	}
}

// TestRunsFormAllocatesItsBase: however few bytes a runs-form clock has, it
// decodes to exactly its base's width — the bound a decoder of untrusted
// bytes relies on, since the base is what it already holds.
func TestRunsFormAllocatesItsBase(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector every allocation carries shadow state")
	}
	base := make(VC, 1<<16)
	for _, data := range [][]byte{{0, 0x80, 0x80, 0x04, 0}, {0, 1, 0}, {0}} {
		var dst VC
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ConsumeDelta(data, &dst, base)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(base)+8<<10); grew > limit {
			t.Fatalf("%x against %d components: allocated %d bytes, limit %d (err %v)", data, len(base), grew, limit, err)
		}
		if err == nil && len(dst) != len(base) {
			t.Fatalf("%x decoded to %d components, base has %d", data, len(dst), len(base))
		}
	}
}

func TestCompareLessMatchesLess(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(6)
		mk := func() VC {
			v := make(VC, n)
			for i := range v {
				v[i] = uint32(r.Intn(4))
			}
			return v
		}
		aLo, aHi, bLo, bHi := mk(), mk(), mk(), mk()
		gotA, gotB := CompareLess(aLo, bHi, bLo, aHi)
		if wantA, wantB := aLo.Less(bHi), bLo.Less(aHi); gotA != wantA || gotB != wantB {
			t.Fatalf("CompareLess(%v,%v,%v,%v) = %v,%v want %v,%v",
				aLo, bHi, bLo, aHi, gotA, gotB, wantA, wantB)
		}
	}
}

// FuzzDecodeDelta hardens the delta decoder: arbitrary bytes must never
// panic, must reject with the typed sentinels, and every accepted clock must
// re-encode to an equivalent value. What a decode allocates — accepted or
// not — is bounded by what backs it: a per-component clock cannot claim more
// components than bytes are present, and a runs-form clock is exactly as
// wide as its base, however few bytes fill it.
func FuzzDecodeDelta(f *testing.F) {
	f.Add(Of(1, 2, 3).AppendDelta(nil, nil), []byte{})
	f.Add(Of(9, 9).AppendDelta(nil, Of(8, 10)), Of(8, 10).AppendBinary(nil))
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, []byte{})
	f.Add(Of(9, 9).AppendDelta(nil, Of(9, 9)), Of(9, 9).AppendBinary(nil))
	f.Fuzz(func(t *testing.T, data, baseBytes []byte) {
		var base VC
		if len(baseBytes) > 0 {
			if _, err := ConsumeBinary(baseBytes, &base); err != nil {
				base = nil
			}
		}
		var v VC
		var rest []byte
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rest, err = ConsumeDelta(data, &v, base)
		runtime.ReadMemStats(&after)
		// The clock's components, rounded up to a size class or a page; the
		// constant is the fuzzing worker's own allocations, which land in
		// the same count.
		limit := 4*uint64(max(len(data), len(base)))*9/8 + 32<<10
		if grew := after.TotalAlloc - before.TotalAlloc; !raceEnabled && grew > limit {
			t.Fatalf("decoding %d bytes against a %d-component base allocated %d bytes (err %v)", len(data), len(base), grew, err)
		}
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v wraps neither sentinel", err)
			}
			return
		}
		consumed := len(data) - len(rest)
		buf := v.AppendDelta(nil, base)
		var back VC
		if _, err := ConsumeDelta(buf, &back, base); err != nil {
			t.Fatalf("re-decode of re-encoded clock failed: %v", err)
		}
		if !back.Equal(v) {
			t.Fatalf("decode/encode/decode changed the clock: %v vs %v", back, v)
		}
		if len(buf) > consumed {
			// Canonical varints never grow, and the encoder keeps the
			// shorter form: a longer re-encode would mean we mis-measured
			// the input.
			t.Fatalf("re-encode grew: consumed %d, re-encoded %d", consumed, len(buf))
		}
	})
}
