package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"hierdet/internal/repair"
	"hierdet/internal/vclock"
)

// windowReports builds a plausible batch window: n successive reports of one
// stream, near-monotone clocks, consecutive link sequence numbers.
func windowReports(n int) []repair.Report {
	out := make([]repair.Report, 0, n)
	lo := []uint32{100, 200, 300, 400}
	for i := 0; i < n; i++ {
		hi := []uint32{lo[0] + 3, lo[1] + 1, lo[2] + 4, lo[3] + 2}
		r := v2Report(2, i, i, 1, vclock.Of(lo...), vclock.Of(hi...))
		out = append(out, repair.Report{Iv: r.Iv, LinkSeq: r.LinkSeq, Epoch: r.Epoch})
		lo = []uint32{hi[0] + 2, hi[1] + 5, hi[2] + 1, hi[3] + 3}
	}
	return out
}

// TestReportBatchRoundTrip runs batches of reports whose clocks take the
// per-component form (windowReports) and the runs form (runsReports).
func TestReportBatchRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64} {
		for _, reps := range [][]repair.Report{windowReports(n), runsReports(127, n)} {
			roundTripBatch(t, n, reps)
		}
	}
}

func roundTripBatch(t *testing.T, n int, reps []repair.Report) {
	t.Helper()
	data := AppendReportBatch(nil, reps)
	if len(data) != ReportBatchSize(reps) {
		t.Fatalf("n=%d: encoded %d bytes, ReportBatchSize says %d", n, len(data), ReportBatchSize(reps))
	}
	if k, err := FrameKind(data); err != nil || k != KindReportBatch {
		t.Fatalf("n=%d: FrameKind = %d, %v", n, k, err)
	}
	if ver, err := FrameVersion(data); err != nil || ver != Version2 {
		t.Fatalf("n=%d: FrameVersion = %d, %v", n, ver, err)
	}
	// Batch frames are self-contained: the intra-frame delta chain must
	// not look like connection-scoped state to a transport.
	if IsReportV2(data) || ReportIsDelta(data) {
		t.Fatalf("n=%d: batch frame classified as a single v2 report", n)
	}
	back, err := DecodeReportBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != n {
		t.Fatalf("decoded %d reports, want %d", len(back), n)
	}
	for i := range back {
		sameReport(t, asReport(back[i]), asReport(reps[i]), "batch element")
	}
}

// TestReportBatchChainingWins: a batch of near-monotone reports must cost
// less on the wire than the same reports as separate absolute frames — the
// intra-frame delta chain is the point of the format — and a stream shaped
// like the reports between two processes, a few bytes a report, not one or
// more a component.
func TestReportBatchChainingWins(t *testing.T) {
	reps := windowReports(16)
	separate := 0
	for _, pl := range reps {
		separate += len(EncodeReportV2(Report{Iv: pl.Iv, LinkSeq: pl.LinkSeq, Epoch: pl.Epoch}))
	}
	if batched := len(AppendReportBatch(nil, reps)); batched >= separate {
		t.Fatalf("batch frame %d bytes >= %d as separate absolute frames", batched, separate)
	}
	if size := len(AppendReportBatch(nil, runsReports(127, 64))); size > 64*30 {
		t.Fatalf("64 reports over 127 processes cost %d bytes", size)
	}
}

func TestReportBatchRejectsCorruption(t *testing.T) {
	good := AppendReportBatch(nil, windowReports(3))
	cases := map[string]struct {
		mutate func([]byte) []byte
		want   error
	}{
		"empty":          {func(b []byte) []byte { return b[:0] }, ErrTruncated},
		"header-cut":     {func(b []byte) []byte { return b[:3] }, ErrTruncated},
		"bad-magic":      {func(b []byte) []byte { b[0] = 0x00; return b }, ErrCorrupt},
		"v1-position":    {func(b []byte) []byte { b[1] = KindReportBatch; return b[:20] }, ErrCorrupt},
		"bad-flags":      {func(b []byte) []byte { b[3] = 0xff; return b }, ErrCorrupt},
		"zero-count":     {func(b []byte) []byte { b[4] = 0; return b }, ErrCorrupt},
		"huge-count":     {func(b []byte) []byte { b[4] = 0x7f; return b }, ErrCorrupt},
		"element-cut":    {func(b []byte) []byte { return b[:len(b)-5] }, ErrTruncated},
		"trailing-bytes": {func(b []byte) []byte { return append(b, 0xaa) }, ErrCorrupt},
	}
	for name, tc := range cases {
		data := tc.mutate(append([]byte(nil), good...))
		if _, err := DecodeReportBatch(data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
	// And the generic kind dispatch refuses a batch kind in the v1 slot.
	if _, err := FrameKind([]byte{magic, KindReportBatch, 0}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("FrameKind accepted v1-framed batch kind: %v", err)
	}
}

// refAppendReportBatch is the batch encoder as it stood before the
// single-pass rewrite: size every element with ReportSizeV2, write the prefix,
// then encode. Kept as the reference the production encoder is pinned to.
func refAppendReportBatch(dst []byte, reps []repair.Report) []byte {
	dst = append(dst, magic, verV2, KindReportBatch, 0)
	dst = binary.AppendUvarint(dst, uint64(len(reps)))
	var basis vclock.VC
	for _, pl := range reps {
		r := Report{Iv: pl.Iv, LinkSeq: pl.LinkSeq, Epoch: pl.Epoch}
		dst = binary.AppendUvarint(dst, uint64(ReportSizeV2(r, basis)))
		dst = AppendReportV2(dst, r, basis)
		basis = pl.Iv.Hi
	}
	return dst
}

// TestAppendReportBatchMatchesReference: the single-pass encoder leaves room
// for a length prefix and slides the element when the room was wrong, so the
// cases that matter are batches whose element sizes cross a prefix-width
// boundary (127/128 and 16383/16384 bytes) in either direction, anywhere in
// the batch. Frames must be byte-identical to the two-pass reference.
func TestAppendReportBatchMatchesReference(t *testing.T) {
	// A report over n processes: lo sets how many varint bytes a component
	// costs absolute (the first element of a batch); chained, each costs one.
	report := func(seq, n int, lo uint32) repair.Report {
		l, h := make(vclock.VC, n), make(vclock.VC, n)
		for k := range l {
			l[k], h[k] = lo+uint32(seq), lo+uint32(seq)+1
		}
		r := v2Report(4, seq, seq, 2, l, h)
		return repair.Report{Iv: r.Iv, LinkSeq: r.LinkSeq, Epoch: r.Epoch}
	}
	// Clock widths chosen so that elements are < 128 B (n=8), between
	// (n=60, n=500) and ≥ 16 KiB (n=8300); every ordered pair of them puts a
	// shrink or a growth of the prefix at each position.
	widths := []int{8, 60, 8300, 8, 500, 8300, 8300, 60, 8, 8}
	for _, lo := range []uint32{1, 1 << 20} {
		for start := range widths {
			var reps []repair.Report
			for i, n := range widths[start:] {
				reps = append(reps, report(i, n, lo))
			}
			got := AppendReportBatch([]byte("prefix"), reps)
			want := refAppendReportBatch([]byte("prefix"), reps)
			if !bytes.Equal(got, want) {
				t.Fatalf("lo=%d widths %v: single-pass frame differs from the reference (%d vs %d bytes)", lo, widths[start:], len(got), len(want))
			}
			back, err := DecodeReportBatch(got[len("prefix"):])
			if err != nil || len(back) != len(reps) {
				t.Fatalf("widths %v: decoded %d of %d reports: %v", widths[start:], len(back), len(reps), err)
			}
		}
	}
	// And the sizes right at the 127/128 boundary, one report each way.
	for n := 50; n < 64; n++ {
		reps := []repair.Report{report(0, n, 1), report(1, n+1, 1), report(2, n, 1)}
		if got, want := AppendReportBatch(nil, reps), refAppendReportBatch(nil, reps); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: single-pass frame differs from the reference", n)
		}
	}
}

// TestDecodeReportBatchAllocationIsBoundedByTheFrame: a header may claim any
// count and each element any clock width; what the decoder allocates must
// stay within a small multiple of the bytes actually present. The hostile
// shapes: a count the frame cannot back (with and without a store to carve
// clocks from), and a frame full of minimal elements, each of which would
// cost a carved pair of N-component clocks if pairs were carved on faith.
func TestDecodeReportBatchAllocationIsBoundedByTheFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector every allocation carries shadow state: not the bytes this bound is about")
	}
	const storeN = 1023
	header := func(count uint64) []byte {
		return binary.AppendUvarint([]byte{magic, verV2, KindReportBatch, 0}, count)
	}
	// The smallest element there is: empty span, two empty clocks.
	minimal := []byte{11, magic, verV2, KindReport, 0, 1, 0, 0, 0, 0, 0, 0}
	if len(minimal) != minBatchElement {
		t.Fatalf("minimal element is %d bytes, minBatchElement says %d", len(minimal), minBatchElement)
	}
	// An element claiming storeN components per clock with nothing behind it.
	wide := append([]byte{11, magic, verV2, KindReport, 0, 1, 0, 0, 0, 0}, binary.AppendUvarint(nil, storeN)...)

	// One report claimed per byte present: 170 bytes of result per byte of
	// frame, had the count been believed.
	claimHuge := append(header(1<<16), make([]byte, 1<<16)...)
	claimFits := header(1 << 12)
	for i := 0; i < 1<<12; i++ {
		claimFits = append(claimFits, wide...)
	}
	allMinimal := header(1 << 12)
	for i := 0; i < 1<<12; i++ {
		allMinimal = append(allMinimal, minimal...)
	}
	cases := []struct {
		name    string
		frame   []byte
		wantErr bool
	}{
		{"count-beyond-the-frame", claimHuge, true},
		{"wide-clocks-without-bytes", claimFits, true},
		{"minimal-elements", allMinimal, false},
	}
	for _, tc := range cases {
		for _, withStore := range []bool{false, true} {
			var clocks *vclock.Store
			if withStore {
				clocks = vclock.NewStore(storeN)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			reps, err := AppendDecodedReportBatch(nil, tc.frame, clocks)
			runtime.ReadMemStats(&after)
			if (err != nil) != tc.wantErr {
				t.Fatalf("%s (store=%v): err = %v", tc.name, withStore, err)
			}
			if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s: untyped error %v", tc.name, err)
			}
			// A decoded report is sizeof(repair.Report) = 176 B for at least
			// minBatchElement = 12 bytes of frame, 15×: the honest ratio of
			// the format, reached by reports without clocks. 20× leaves room
			// for size classes and nothing more.
			if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(20*len(tc.frame)); grew > limit {
				t.Fatalf("%s (store=%v): decoding a %d-byte frame allocated %d bytes, limit %d", tc.name, withStore, len(tc.frame), grew, limit)
			}
			runtime.KeepAlive(reps)
		}
	}
}

// TestAppendDecodedReportBatch covers what the appending form adds: reports
// land behind what dst held, a store of the clocks' width supplies adjacent
// Lo/Hi pairs, a store of another width is ignored, and a rejected frame
// leaves dst as it came with nothing half-decoded behind its length.
func TestAppendDecodedReportBatch(t *testing.T) {
	reps := windowReports(5) // 4-component clocks
	frame := AppendReportBatch(nil, reps)
	kept := windowReports(2)
	dst := append(make([]repair.Report, 0, 16), kept...)

	out, err := AppendDecodedReportBatch(dst, frame, vclock.NewStore(4))
	if err != nil || len(out) != len(kept)+len(reps) {
		t.Fatalf("decoded to %d reports: %v", len(out), err)
	}
	for i, pl := range out[len(kept):] {
		sameReport(t, Report{Iv: pl.Iv, LinkSeq: pl.LinkSeq, Epoch: pl.Epoch},
			Report{Iv: reps[i].Iv, LinkSeq: reps[i].LinkSeq, Epoch: reps[i].Epoch}, "appended element")
		if lo, hi := pl.Iv.Lo, pl.Iv.Hi; unsafe.Add(unsafe.Pointer(&lo[0]), 4*len(lo)) != unsafe.Pointer(&hi[0]) {
			t.Fatalf("element %d: Lo and Hi were not carved as one adjacent pair", i)
		}
	}
	if out, err = AppendDecodedReportBatch(nil, frame, vclock.NewStore(9)); err != nil || len(out) != len(reps) {
		t.Fatalf("store of another width: %d reports, %v", len(out), err)
	}

	cut := frame[:len(frame)-3]
	dst = append(make([]repair.Report, 0, 16), kept...)
	out, err = AppendDecodedReportBatch(dst, cut, nil)
	if !errors.Is(err, ErrTruncated) || len(out) != len(kept) {
		t.Fatalf("cut frame: %d reports, err %v; want dst back and ErrTruncated", len(out), err)
	}
	for _, pl := range out[:cap(out)][len(kept):] {
		if pl.Iv.Lo != nil || pl.Iv.Span != nil || pl.LinkSeq != 0 {
			t.Fatalf("rejected frame left a half-decoded report behind dst: %+v", pl)
		}
	}
}

// TestDecodedBatchSharesOnlyEqualSpans: a report whose span repeats its
// predecessor's in the frame shares that slice, and one whose span differs —
// in an id, at the first or the last position, or in length — never aliases
// any other report's; every span decodes to the ids encoded either way.
func TestDecodedBatchSharesOnlyEqualSpans(t *testing.T) {
	spans := [][]int{{1, 2, 3}, {1, 2, 3}, {1, 2, 4}, {0, 2, 4}, {0, 2}, {0, 2}, {0, 2, 4}, {}, {}, {7}}
	reps := windowReports(len(spans))
	for i, sp := range spans {
		reps[i].Iv.Agg, reps[i].Iv.Span = true, sp
	}
	got, err := DecodeReportBatch(AppendReportBatch(nil, reps))
	if err != nil {
		t.Fatal(err)
	}
	share := func(a, b []int) bool { return cap(a) > 0 && cap(b) > 0 && &a[:cap(a)][0] == &b[:cap(b)][0] }
	for i := range got {
		if !slices.Equal(got[i].Iv.Span, spans[i]) {
			t.Fatalf("report %d: span %v, want %v", i, got[i].Iv.Span, spans[i])
		}
		for j := range i {
			equalNeighbour := j == i-1 && len(spans[i]) > 0 && slices.Equal(spans[i], spans[j])
			if s := share(got[i].Iv.Span, got[j].Iv.Span); s != equalNeighbour {
				t.Fatalf("reports %d and %d (spans %v, %v): shared %v, want %v", j, i, spans[j], spans[i], s, equalNeighbour)
			}
		}
	}
}

func TestAppendReportBatchPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty batch did not panic")
		}
	}()
	AppendReportBatch(nil, nil)
}

// FuzzDecodeReportBatch hardens the batch decoder, with and without a store
// to carve clocks from: arbitrary bytes must never panic, rejections must be
// typed, an accepted batch must re-encode to a frame ReportBatchSize counts
// and that decodes to the same reports, and what a frame makes the decoder
// allocate must stay within what its reports can cost — a 176-byte report
// per minBatchElement bytes present, a pair of the store's width for each,
// and four bytes of clock of any other width per byte present.
func FuzzDecodeReportBatch(f *testing.F) {
	f.Add(AppendReportBatch(nil, windowReports(1)))
	f.Add(AppendReportBatch(nil, windowReports(5)))
	f.Add([]byte{magic, verV2, KindReportBatch, 0, 1, 0})
	f.Add(AppendReportBatch(nil, goldenReports()))
	f.Add(AppendReportBatch(nil, runsReports(6, 12)))
	f.Fuzz(func(t *testing.T, data []byte) {
		const storeN = 6 // goldenReports' and runsReports' width
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		carved, err := AppendDecodedReportBatch(nil, data, vclock.NewStore(storeN))
		runtime.ReadMemStats(&after)
		reports := uint64(len(data) / minBatchElement)
		// The store's slabs at most double what is carved; the constant is
		// the fuzzing worker's own allocations, which land in the same count.
		limit := 20*uint64(len(data)) + reports*2*8*storeN + 32<<10
		if grew := after.TotalAlloc - before.TotalAlloc; !raceEnabled && grew > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d (err %v)", len(data), grew, limit, err)
		}
		// A store refuses only runs-form clocks of another width.
		reps, err2 := DecodeReportBatch(data)
		otherWidth := slices.ContainsFunc(reps, func(r repair.Report) bool { return r.Iv.Lo.Len() != storeN })
		if (err == nil) != (err2 == nil) && !(err2 == nil && otherWidth) {
			t.Fatalf("with a store: %v, without: %v", err, err2)
		}
		if err2 != nil {
			if !errors.Is(err2, ErrCorrupt) && !errors.Is(err2, ErrTruncated) {
				t.Fatalf("untyped decode error: %v", err2)
			}
			return
		}
		if err == nil {
			for i := range carved {
				sameReport(t, asReport(carved[i]), asReport(reps[i]), "carved report")
			}
		}
		again := AppendReportBatch(nil, reps)
		if size := ReportBatchSize(reps); size != len(again) {
			t.Fatalf("ReportBatchSize = %d, frame is %d bytes", size, len(again))
		}
		back, err := DecodeReportBatch(again)
		if err != nil || len(back) != len(reps) {
			t.Fatalf("re-encode of decoded batch does not decode: %d reports, %v", len(back), err)
		}
		for i := range reps {
			sameReport(t, asReport(back[i]), asReport(reps[i]), "re-encoded report")
		}
	})
}

// BenchmarkAppendReportBatch is the batched report encode path the scale
// work promises 0 allocs/op on: a window's flush through a pooled buffer.
func BenchmarkAppendReportBatch(b *testing.B) {
	reps := windowReports(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := GetBuffer()
		*buf = AppendReportBatch(*buf, reps)
		PutBuffer(buf)
	}
}

// BenchmarkDecodeReportBatch measures the receive side for comparison.
func BenchmarkDecodeReportBatch(b *testing.B) {
	data := AppendReportBatch(nil, windowReports(16))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeReportBatch(data); err != nil {
			b.Fatal(err)
		}
	}
}
