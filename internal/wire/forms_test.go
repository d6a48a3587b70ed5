package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand/v2"
	"runtime"
	"testing"

	"hierdet/internal/interval"
	"hierdet/internal/repair"
	"hierdet/internal/vclock"
)

// goldenReports is one batch with a clock of each kind the encoder meets:
// report 0's Hi is its Lo plus one difference throughout (one run), report
// 1's Lo repeats report 0's Hi (one copy) and its Hi moves one component
// (two runs), and report 2's clocks move every component by a different
// amount, so both fall back to the per-component form.
func goldenReports() []repair.Report {
	mk := func(seq int, lo, hi []uint32, span []int) repair.Report {
		iv := interval.Interval{Origin: 3, Seq: seq, Lo: vclock.Of(lo...), Hi: vclock.Of(hi...), Agg: true, Span: span, Bases: len(span)}
		return repair.Report{Iv: iv, LinkSeq: seq + 4, Epoch: 1}
	}
	return []repair.Report{
		mk(10, []uint32{5, 0, 7, 300, 2, 9}, []uint32{7, 2, 9, 302, 4, 11}, []int{3, 4, 5}),
		mk(11, []uint32{7, 2, 9, 302, 4, 11}, []uint32{7, 2, 9, 302, 4, 12}, []int{3, 4, 5}),
		mk(12, []uint32{8, 4, 12, 306, 9, 18}, []uint32{9, 4, 14, 306, 12, 18}, []int{3, 4, 5}),
	}
}

// The frames the encoder before the runs form wrote for goldenReports: as a
// batch, report 0 alone and report 1 chained to report 0's Hi.
const (
	parentBatchHex  = "d7560400031bd7560101030a0e0103030405060a000ed8040412060404040404041ad7560103030b0f010303040506000000000000060000000000021ad7560103030c10010303040506020406080a0c06020004000600"
	parentSingleHex = "d7560101030a0e0103030405060a000ed804041206040404040404"
	parentDeltaHex  = "d7560103030b0f01030304050600000000000006000000000002"
)

// goldenBatchHex is goldenReports' batch frame now: report 0's Hi, report
// 1's Lo and Hi in the runs form, the rest as before.
const goldenBatchHex = "d75604000317d7560101030a0e0103030405060a000ed804041200060414d7560103030b0f010303040500060000050001021ad7560103030c10010303040506020406080a0c06020004000600"

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func asReport(pl repair.Report) Report {
	return Report{Iv: pl.Iv, LinkSeq: pl.LinkSeq, Epoch: pl.Epoch}
}

// TestReportBatchGolden pins the format: goldenReports encodes to the
// checked-in bytes, ReportBatchSize counts them, and they decode back.
func TestReportBatchGolden(t *testing.T) {
	reps := goldenReports()
	got := AppendReportBatch(nil, reps)
	if want := unhex(t, goldenBatchHex); !bytes.Equal(got, want) {
		t.Fatalf("batch frame\n got %x\nwant %x", got, want)
	}
	if size := ReportBatchSize(reps); size != len(got) {
		t.Fatalf("ReportBatchSize = %d, frame is %d bytes", size, len(got))
	}
	back, err := DecodeReportBatch(got)
	if err != nil || len(back) != len(reps) {
		t.Fatalf("decoded %d reports: %v", len(back), err)
	}
	for i := range reps {
		sameReport(t, asReport(back[i]), asReport(reps[i]), "golden element")
	}
}

// TestParentFramesDecode: frames written before the runs form existed decode
// to the reports they were written from.
func TestParentFramesDecode(t *testing.T) {
	reps := goldenReports()
	back, err := DecodeReportBatch(unhex(t, parentBatchHex))
	if err != nil || len(back) != len(reps) {
		t.Fatalf("parent batch: %d reports, %v", len(back), err)
	}
	for i := range reps {
		sameReport(t, asReport(back[i]), asReport(reps[i]), "parent batch element")
	}
	var r Report
	if err := DecodeReportInto(unhex(t, parentSingleHex), &r, nil); err != nil {
		t.Fatal(err)
	}
	sameReport(t, r, asReport(reps[0]), "parent single frame")
	if err := DecodeReportInto(unhex(t, parentDeltaHex), &r, reps[0].Iv.Hi); err != nil {
		t.Fatal(err)
	}
	sameReport(t, r, asReport(reps[1]), "parent basis-relative frame")
}

// runsReports is count successive reports of one origin over n processes,
// shaped like a report stream between two processes: each Lo is the previous
// Hi with a component or two moved on, each Hi its Lo one tick further in
// most components.
func runsReports(n, count int) []repair.Report {
	rng := rand.New(rand.NewPCG(uint64(n), uint64(count)))
	lo := make(vclock.VC, n)
	for k := range lo {
		lo[k] = uint32(100 + rng.IntN(1000))
	}
	out := make([]repair.Report, 0, count)
	for i := 0; i < count; i++ {
		hi := lo.Clone()
		for k := range hi {
			hi[k]++
		}
		hi[rng.IntN(n)] += uint32(rng.IntN(5))
		out = append(out, repair.Report{Iv: interval.New(2, i, lo, hi), LinkSeq: i})
		lo = hi.Clone()
		lo[rng.IntN(n)]++
	}
	return out
}

// TestStoreRefusesRunsOfAnotherWidth: with a store, what a batch frame makes
// the decoder allocate is bounded by the frame and the store's width even
// though a runs-form clock fills its basis's width from a few bytes. The
// hostile shape is one wide absolute report followed by many tiny ones, each
// of which copies the previous report's clocks: at the store's width each
// costs a carved pair, the receiver's own shape; at any other width the
// first runs-form Lo is refused. Without a store the frame decodes, at the
// cost of its basis's width per clock.
func TestStoreRefusesRunsOfAnotherWidth(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector every allocation carries shadow state: not the bytes this bound is about")
	}
	frame := func(n, copies int) []byte {
		lo := make(vclock.VC, n)
		for k := range lo {
			lo[k] = uint32(k)
		}
		reps := make([]repair.Report, copies+1)
		for i := range reps {
			reps[i] = repair.Report{Iv: interval.New(1, i, lo, lo), LinkSeq: i}
		}
		return AppendReportBatch(nil, reps)
	}
	const storeN, copies = 512, 1000
	wide := frame(2*storeN, copies)
	if per := (len(wide) - 2*storeN) / copies; per > 2*minBatchElement {
		t.Fatalf("a copied report costs %d bytes of frame", per)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := AppendDecodedReportBatch(nil, wide, vclock.NewStore(storeN))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("runs of another width beside a store: err = %v, want ErrCorrupt", err)
	}
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(20*len(wide)); grew > limit {
		t.Fatalf("a refused %d-byte frame allocated %d bytes, limit %d", len(wide), grew, limit)
	}
	own := frame(storeN, copies)
	runtime.ReadMemStats(&before)
	reps, err := AppendDecodedReportBatch(nil, own, vclock.NewStore(storeN))
	runtime.ReadMemStats(&after)
	if err != nil || len(reps) != copies+1 {
		t.Fatalf("store-width frame: %d reports, %v", len(reps), err)
	}
	// A report and a carved pair each, the slabs at most doubling that.
	limit := uint64(len(reps)) * (176 + 2*8*storeN)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > limit {
		t.Fatalf("a %d-report frame at the store's width allocated %d bytes, limit %d", len(reps), grew, limit)
	}
	if reps, err := DecodeReportBatch(wide); err != nil || len(reps) != copies+1 {
		t.Fatalf("without a store: %d reports, %v", len(reps), err)
	}
}
