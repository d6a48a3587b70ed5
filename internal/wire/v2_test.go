package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hierdet/internal/interval"
	"hierdet/internal/vclock"
)

func v2Report(origin, seq, linkSeq, epoch int, lo, hi vclock.VC) Report {
	iv := interval.New(origin, seq, lo, hi)
	return Report{Iv: iv, LinkSeq: linkSeq, Epoch: epoch}
}

func sameReport(t *testing.T, got, want Report, what string) {
	t.Helper()
	if !got.Iv.Lo.Equal(want.Iv.Lo) || !got.Iv.Hi.Equal(want.Iv.Hi) {
		t.Fatalf("%s: bounds differ: %v..%v vs %v..%v", what, got.Iv.Lo, got.Iv.Hi, want.Iv.Lo, want.Iv.Hi)
	}
	if got.Iv.Origin != want.Iv.Origin || got.Iv.Seq != want.Iv.Seq ||
		got.LinkSeq != want.LinkSeq || got.Epoch != want.Epoch || got.Iv.Agg != want.Iv.Agg {
		t.Fatalf("%s: identity differs: %+v vs %+v", what, got, want)
	}
	if len(got.Iv.Span) != len(want.Iv.Span) {
		t.Fatalf("%s: span differs: %v vs %v", what, got.Iv.Span, want.Iv.Span)
	}
	for i := range got.Iv.Span {
		if got.Iv.Span[i] != want.Iv.Span[i] {
			t.Fatalf("%s: span differs: %v vs %v", what, got.Iv.Span, want.Iv.Span)
		}
	}
}

func TestReportV2RoundTrip(t *testing.T) {
	r := v2Report(3, 7, 42, 6, vclock.Of(1, 2, 3, 4), vclock.Of(5, 6, 7, 8))
	data := EncodeReportV2(r)
	if len(data) != ReportSizeV2(r, nil) {
		t.Fatalf("encoded %d bytes, ReportSizeV2 says %d", len(data), ReportSizeV2(r, nil))
	}
	if ver, err := FrameVersion(data); err != nil || ver != Version2 {
		t.Fatalf("FrameVersion = %d, %v", ver, err)
	}
	if k, err := FrameKind(data); err != nil || k != KindReport {
		t.Fatalf("FrameKind = %d, %v", k, err)
	}
	back, err := DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, back, r, "absolute")
	if back.Iv.Bases != 1 {
		t.Fatalf("Bases = %d, want 1", back.Iv.Bases)
	}
}

func TestReportV2BasisRoundTrip(t *testing.T) {
	basis := vclock.Of(1000, 2000, 3000)
	r := v2Report(1, 4, 9, 2, vclock.Of(1001, 2000, 3001), vclock.Of(1002, 2002, 3001))
	data := AppendReportV2(nil, r, basis)
	if len(data) != ReportSizeV2(r, basis) {
		t.Fatalf("encoded %d bytes, ReportSizeV2 says %d", len(data), ReportSizeV2(r, basis))
	}
	if !ReportIsDelta(data) {
		t.Fatal("basis-relative frame not flagged as delta")
	}
	// Without the basis the frame must be rejected, not misdecoded.
	if _, err := DecodeReport(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode without basis: %v, want ErrCorrupt", err)
	}
	var back Report
	if err := DecodeReportInto(data, &back, basis); err != nil {
		t.Fatal(err)
	}
	sameReport(t, back, r, "basis-relative")

	// A near-monotone step must beat the absolute form on the wire.
	if d, a := len(data), len(EncodeReportV2(r)); d >= a {
		t.Fatalf("delta frame (%d bytes) not smaller than absolute (%d)", d, a)
	}
	if ReportIsDelta(EncodeReportV2(r)) {
		t.Fatal("absolute frame flagged as delta")
	}
}

func TestReportV2AggregateRoundTrip(t *testing.T) {
	x := interval.New(0, 0, vclock.Of(1, 0, 0), vclock.Of(3, 2, 2))
	y := interval.New(2, 0, vclock.Of(0, 0, 1), vclock.Of(2, 2, 3))
	agg := interval.Aggregate([]interval.Interval{x, y}, 1, 5, false)
	back, err := DecodeReport(EncodeReportV2(Report{Iv: agg, LinkSeq: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Iv.Agg || len(back.Iv.Span) != 2 || back.Iv.Bases != 2 {
		t.Fatalf("aggregate identity lost: %+v", back.Iv)
	}
}

// TestCrossCodecEquivalence drives randomized near-monotone report streams
// through both codecs — v1 frames, absolute v2 frames, and basis-chained v2
// frames where each report's Lo is encoded against the previous report's Hi —
// and requires every decode to agree field-for-field.
func TestCrossCodecEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(16)
		clock := make(vclock.VC, n)
		for c := range clock {
			clock[c] = uint32(r.Intn(50))
		}
		var basis vclock.VC // receiver-side chain state
		var sendBasis vclock.VC
		var into Report // storage reused across the stream
		for step := 0; step < 10; step++ {
			lo := clock.Clone()
			hi := clock.Clone()
			for c := range hi {
				hi[c] += uint32(r.Intn(4))
			}
			clock = hi.Clone()
			for c := range clock {
				clock[c] += uint32(r.Intn(3)) // gap between intervals
			}
			rep := v2Report(r.Intn(n), step, step, trial%5, lo, hi)
			if r.Intn(3) == 0 {
				rep.Iv.Agg = true
				rep.Iv.Span = []int{0, r.Intn(n) + 1}
				rep.Iv.Bases = 2
			}

			v1, err := EncodeReport(rep)
			if err != nil {
				t.Fatal(err)
			}
			fromV1, err := DecodeReport(v1)
			if err != nil {
				t.Fatal(err)
			}
			fromV2, err := DecodeReport(EncodeReportV2(rep))
			if err != nil {
				t.Fatal(err)
			}
			sameReport(t, fromV2, fromV1, "v2-absolute vs v1")

			chained := AppendReportV2(nil, rep, sendBasis)
			if err := DecodeReportInto(chained, &into, basis); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			sameReport(t, into, fromV1, "v2-chained vs v1")
			basis = vclock.VC(append(basis[:0], into.Iv.Hi...))
			sendBasis = vclock.VC(append(sendBasis[:0], rep.Iv.Hi...))
		}
	}
}

// TestDecodeReportIntoReusesStorage proves the decode-into path is
// allocation-free in steady state: clocks and span keep their backing arrays
// across frames of the same shape, for both wire versions.
func TestDecodeReportIntoReusesStorage(t *testing.T) {
	rep := benchReport(8)
	v1, err := EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"v1", v1},
		{"v2", EncodeReportV2(rep)},
	} {
		var into Report
		if err := DecodeReportInto(tc.data, &into, nil); err != nil {
			t.Fatal(err)
		}
		pLo, pHi, pSpan := &into.Iv.Lo[0], &into.Iv.Hi[0], &into.Iv.Span[0]
		if err := DecodeReportInto(tc.data, &into, nil); err != nil {
			t.Fatal(err)
		}
		if &into.Iv.Lo[0] != pLo || &into.Iv.Hi[0] != pHi || &into.Iv.Span[0] != pSpan {
			t.Fatalf("%s: second decode reallocated storage", tc.name)
		}
		sameReport(t, into, rep, tc.name)
	}
}

func TestReportV2RejectsCorruption(t *testing.T) {
	rep := v2Report(1, 2, 3, 4, vclock.Of(5, 6), vclock.Of(7, 8))
	data := EncodeReportV2(rep)
	cases := map[string]struct {
		frame []byte
		want  error
	}{
		"short header": {data[:3], ErrTruncated},
		"bad kind":     {append([]byte{magic, verV2, 9, 0}, data[4:]...), ErrCorrupt},
		"bad flags":    {append([]byte{magic, verV2, KindReport, 0x80}, data[4:]...), ErrCorrupt},
		"truncated":    {data[:len(data)-2], ErrTruncated},
		"trailing":     {append(append([]byte{}, data...), 0x00), ErrCorrupt},
		// spanLen uvarint claiming ~2^32 ids with no bytes to back them: the
		// u32 guard fires before any allocation.
		"giant span": {append([]byte{magic, verV2, KindReport, 0, 1, 2, 3, 4, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, 0), ErrCorrupt},
		// field overflowing 64-bit varint space entirely.
		"varint overflow": {[]byte{magic, verV2, KindReport, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, ErrCorrupt},
	}
	for name, c := range cases {
		var into Report
		err := DecodeReportInto(c.frame, &into, nil)
		if err == nil {
			t.Errorf("%s: corruption accepted", name)
			continue
		}
		if !errors.Is(err, c.want) {
			t.Errorf("%s: error %v does not wrap %v", name, err, c.want)
		}
	}
}

// TestGoldenV1Corpus pins wire compatibility: the checked-in v1 frames (see
// testdata/v1corpus/README) must decode under the unified decoder and
// re-encode with the v1 encoder byte-identically. A failure means a rolling
// upgrade would break: old nodes' frames no longer mean the same thing.
func TestGoldenV1Corpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "v1corpus", "*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("golden corpus missing — regenerate with: go generate ./internal/wire")
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep Report
		if err := DecodeReportInto(data, &rep, nil); err != nil {
			t.Fatalf("%s: unified decoder rejected v1 frame: %v", path, err)
		}
		again, err := EncodeReport(rep)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", path, err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("%s: v1 round trip through unified decoder not byte-identical", path)
		}
		// And the v2 form of the same report must agree with the v1 decode.
		back, err := DecodeReport(EncodeReportV2(rep))
		if err != nil {
			t.Fatalf("%s: v2 re-encode: %v", path, err)
		}
		sameReport(t, back, rep, path)
	}
}

// FuzzDecodeReportV2 hardens the v2 report decoder: arbitrary bytes (with
// and without a stream basis) must never panic, rejections must be typed,
// and accepted frames must survive a v2 encode/decode round trip, with
// ReportSizeV2 counting the frames re-encoded with and without the basis.
func FuzzDecodeReportV2(f *testing.F) {
	rep := v2Report(1, 2, 7, 1, vclock.Of(1, 0, 3), vclock.Of(4, 5, 6))
	f.Add(EncodeReportV2(rep), false)
	f.Add(AppendReportV2(nil, rep, vclock.Of(1, 0, 2)), true)
	agg := interval.Aggregate([]interval.Interval{rep.Iv}, 0, 0, false)
	f.Add(EncodeReportV2(Report{Iv: agg}), false)
	tagged := rep
	tagged.Tenant = 7
	f.Add(EncodeReportV2(tagged), false)
	tagged.Tenant = 1 << 31
	f.Add(AppendReportV2(nil, tagged, vclock.Of(1, 0, 2)), true)
	f.Add([]byte{magic, verV2, KindReport, flagTenant}, false)
	f.Add([]byte{magic, verV2, KindReport, flagTenant, 0x80}, false)
	f.Add([]byte{magic, verV2, KindReport, 0}, false)
	f.Add([]byte{}, false)
	// Runs form: Hi one difference above Lo, Lo a copy of the basis.
	runs := v2Report(1, 2, 7, 1, vclock.Of(1, 0, 2), vclock.Of(3, 2, 4))
	f.Add(AppendReportV2(nil, runs, vclock.Of(1, 0, 2)), true)
	f.Fuzz(func(t *testing.T, data []byte, withBasis bool) {
		var basis vclock.VC
		if withBasis {
			basis = vclock.Of(1, 0, 2)
		}
		var r Report
		if err := DecodeReportInto(data, &r, basis); err != nil {
			requireTyped(t, err)
			return
		}
		out := AppendReportV2(nil, r, nil)
		if size := ReportSizeV2(r, nil); size != len(out) {
			t.Fatalf("ReportSizeV2 = %d, frame is %d bytes", size, len(out))
		}
		if size, chained := ReportSizeV2(r, basis), AppendReportV2(nil, r, basis); size != len(chained) {
			t.Fatalf("ReportSizeV2 against the basis = %d, frame is %d bytes", size, len(chained))
		}
		var r2 Report
		if err := DecodeReportInto(out, &r2, nil); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !r2.Iv.Lo.Equal(r.Iv.Lo) || !r2.Iv.Hi.Equal(r.Iv.Hi) ||
			r2.Iv.Origin != r.Iv.Origin || r2.LinkSeq != r.LinkSeq ||
			r2.Iv.Agg != r.Iv.Agg || r2.Tenant != r.Tenant {
			t.Fatal("decode/encode/decode changed the report")
		}
	})
}

func TestPooledBuffers(t *testing.T) {
	buf := GetBuffer()
	if len(*buf) != 0 {
		t.Fatalf("pooled buffer has length %d", len(*buf))
	}
	*buf = AppendReportV2(*buf, benchReport(16), nil)
	PutBuffer(buf)
	// Oversized buffers must be dropped, not pinned in the pool.
	big := make([]byte, 2<<20)
	PutBuffer(&big)
}
