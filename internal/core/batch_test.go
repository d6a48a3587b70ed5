package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"hierdet/internal/interval"
	"hierdet/internal/vclock"
	"hierdet/internal/wire"
	"hierdet/internal/workload"
)

// encodeDetections serializes a detection sequence to bytes — aggregate and
// solution set through the v2 wire codec — so equivalence checks compare the
// strongest possible notion of "same detections": byte-identical output.
func encodeDetections(dets []Detection) []byte {
	var buf bytes.Buffer
	for _, d := range dets {
		buf.Write(wire.EncodeReportV2(wire.Report{Iv: d.Agg}))
		for _, m := range d.Set {
			buf.Write(wire.EncodeReportV2(wire.Report{Iv: *m}))
		}
	}
	return buf.Bytes()
}

// batchEquivalent is the batch-vs-sequential property: delivering any run of
// consecutive intervals through one OnIntervals call emits a byte-identical
// detection sequence to delivering them one OnInterval at a time. The corpus
// is chaotic executions cut into random per-source chunks; both nodes see
// the chunks in the same global order, so the only difference is batch
// ingestion itself.
//
// Detections must match byte for byte; the discard bookkeeping need not. A
// batch exposes a chunk's later intervals inside the same elimination fixed
// point where the sequential path starts a fresh one, so head pairs coexist
// in one path that never meet in the other and each path may discard a
// different (equally provably-useless) interval, splitting Eliminated/Pruned
// differently. What must hold is conservation — every enqueued interval is
// resident, eliminated or pruned — and equality of the outcome counters.
func batchEquivalent(t *testing.T, seed int64, nSel uint8) bool {
	n := 2 + int(nSel%4) // 2..5 sources
	streams := workload.GenerateChaotic(workload.ChaoticConfig{
		N: n, Steps: 50 * n, Seed: seed,
	}).Streams

	seq := NewNode(99, Config{N: n, Strict: true, KeepMembers: true}, false)
	bat := NewNode(99, Config{N: n, Strict: true, KeepMembers: true}, false)
	for p := 0; p < n; p++ {
		seq.AddChild(p)
		bat.AddChild(p)
	}

	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	idx := make([]int, n)
	var seqDets, batDets []Detection
	for {
		progressed := false
		for p := 0; p < n; p++ {
			left := len(streams[p]) - idx[p]
			if left == 0 {
				continue
			}
			k := 1 + rng.Intn(left) // random chunk: 1..left intervals
			run := streams[p][idx[p] : idx[p]+k]
			idx[p] += k
			progressed = true
			for _, iv := range run {
				seqDets = append(seqDets, seq.OnInterval(p, iv)...)
			}
			batDets = append(batDets, bat.OnIntervals(p, run)...)
		}
		if !progressed {
			break
		}
	}
	ss, bs := seq.Stats(), bat.Stats()
	for _, nd := range []struct {
		name string
		st   Stats
		node *Node
	}{{"seq", ss, seq}, {"bat", bs, bat}} {
		cur, _ := nd.node.QueueSizes()
		if nd.st.IntervalsIn != nd.st.Eliminated+nd.st.Pruned+cur {
			t.Logf("seed %d n %d: %s leaks intervals: %+v, resident %d", seed, n, nd.name, nd.st, cur)
			return false
		}
	}
	ss.VecComparisons, bs.VecComparisons = 0, 0
	ss.Eliminated, bs.Eliminated = 0, 0
	ss.Pruned, bs.Pruned = 0, 0
	if ss != bs {
		t.Logf("seed %d n %d: outcomes diverge: seq %+v bat %+v", seed, n, ss, bs)
		return false
	}
	return bytes.Equal(encodeDetections(seqDets), encodeDetections(batDets))
}

func TestQuickBatchEquivalence(t *testing.T) {
	f := func(seed int64, nSel uint8) bool { return batchEquivalent(t, seed, nSel) }
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchEquivalenceRegression pins a quick.Check counterexample against
// the original over-strict property: on this execution the two paths discard
// a different provably-useless interval (Eliminated 22 vs 21), while the
// detection sequences — the actual contract — stay byte-identical.
func TestBatchEquivalenceRegression(t *testing.T) {
	if !batchEquivalent(t, -3252540898166769584, 0x55) {
		t.Fatal("batch and sequential ingestion diverged")
	}
}

// sync3 builds an interval for an N=3 system whose clocks are the same in
// every component — rounds built from these overlap across sources (Eq. 2
// holds pairwise) and succeed each other cleanly across rounds.
func sync3(origin, seq, lo, hi int) interval.Interval {
	return interval.New(origin, seq,
		vclock.Of(uint32(lo), uint32(lo), uint32(lo)), vclock.Of(uint32(hi), uint32(hi), uint32(hi)))
}

// TestPublishedSetsOutliveReconfiguration: a solution set refers to its
// members where they are stored, so nothing a node does afterwards —
// discarding a backlog (ResetSource), dropping a child with one
// (RemoveChild), adopting a new child and being fed by reference — may change
// a set it published. Every detection is encoded as it is returned and again
// at the end, under both engines.
func TestPublishedSetsOutliveReconfiguration(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		// Four processes, so the adopted child 3 is one of them.
		nd := NewNode(0, Config{N: 4, Strict: true, Parallel: parallel}, true)
		nd.AddChild(1)
		nd.AddChild(2)
		var kept []Detection
		var asFound []byte
		take := func(dets []Detection) {
			kept = append(kept, dets...)
			asFound = append(asFound, encodeDetections(dets)...)
		}
		round := func(p, r int) interval.Interval {
			lo, hi := uint32(10*r+1), uint32(10*r+5)
			return interval.New(p, r, vclock.Of(lo, lo, lo, lo), vclock.Of(hi, hi, hi, hi))
		}
		for r := 0; r < 4; r++ {
			for p := 0; p < 3; p++ {
				take(nd.OnInterval(p, round(p, r)))
			}
		}
		for r := 4; r < 9; r++ { // child 2 silent: sources 0 and 1 back up
			take(nd.OnInterval(0, round(0, r)))
			take(nd.OnInterval(1, round(1, r)))
		}
		nd.ResetSource(1)
		again := []interval.Interval{round(1, 6), round(1, 7), round(1, 8)}
		take(nd.OnRefs(1, interval.Refs(again)))
		take(nd.RemoveChild(2))
		nd.AddChild(3)
		for p := range 4 {
			if p != 2 {
				take(nd.OnIntervals(p, []interval.Interval{round(p, 9), round(p, 10), round(p, 11)}))
			}
		}
		if len(kept) != 4+3+3 {
			t.Fatalf("parallel=%v: %d detections, want 10: the schedule did not happen", parallel, len(kept))
		}
		if !bytes.Equal(encodeDetections(kept), asFound) {
			t.Fatalf("parallel=%v: a published solution set changed after the node reconfigured", parallel)
		}
	}
}

// TestRemoveChildDeepQueues: with sources 0 and 1 five rounds deep and
// source 2 silent, nothing can be detected — every solution needs a head
// from all three queues. Removing child 2 must re-run detection over the
// survivors and release all five blocked rounds at once, leaving the deep
// queues fully drained.
func TestRemoveChildDeepQueues(t *testing.T) {
	const rounds = 5
	nd := NewNode(9, Config{N: 3, Strict: true, KeepMembers: true}, false)
	for p := 0; p < 3; p++ {
		nd.AddChild(p)
	}
	for r := 0; r < rounds; r++ {
		for p := 0; p < 2; p++ {
			if dets := nd.OnInterval(p, sync3(p, r, 10*r+1, 10*r+5)); dets != nil {
				t.Fatalf("round %d source %d: detection before child removal: %v", r, p, dets)
			}
		}
	}
	if cur, high := nd.QueueSizes(); cur != 2*rounds || high != 2*rounds {
		t.Fatalf("pre-removal residency = %d (high %d), want %d (%d)", cur, high, 2*rounds, 2*rounds)
	}

	dets := nd.RemoveChild(2)
	if len(dets) != rounds {
		t.Fatalf("RemoveChild released %d detections, want %d", len(dets), rounds)
	}
	for r, d := range dets {
		if len(d.Set) != 2 {
			t.Fatalf("detection %d solution over %d sources, want 2", r, len(d.Set))
		}
		if !interval.OverlapRefs(d.Set) {
			t.Fatalf("detection %d is not a valid solution", r)
		}
		if want := vclock.Of(uint32(10*r+1), uint32(10*r+1), uint32(10*r+1)); !d.Agg.Lo.Equal(want) {
			t.Fatalf("detection %d out of round order: agg lo %v, want %v", r, d.Agg.Lo, want)
		}
	}
	if cur, _ := nd.QueueSizes(); cur != 0 {
		t.Fatalf("post-removal residency = %d, want 0", cur)
	}
	if nd.HasSource(2) {
		t.Fatal("source 2 still registered after RemoveChild")
	}
}

// TestRemoveChildPartialDrain: the re-detection after removal consumes only
// complete rounds — a survivor with deeper queues keeps its tail.
func TestRemoveChildPartialDrain(t *testing.T) {
	nd := NewNode(9, Config{N: 3, Strict: true}, false)
	for p := 0; p < 3; p++ {
		nd.AddChild(p)
	}
	for r := 0; r < 6; r++ { // source 0: six rounds deep
		nd.OnInterval(0, sync3(0, r, 10*r+1, 10*r+5))
	}
	for r := 0; r < 2; r++ { // source 1: two rounds deep
		nd.OnInterval(1, sync3(1, r, 10*r+1, 10*r+5))
	}
	dets := nd.RemoveChild(2)
	if len(dets) != 2 {
		t.Fatalf("RemoveChild released %d detections, want 2 (the complete rounds)", len(dets))
	}
	if cur, _ := nd.QueueSizes(); cur != 4 {
		t.Fatalf("post-removal residency = %d, want 4 (source 0's tail)", cur)
	}
}

// TestResetSourceDeepQueue: an epoch restart discards the whole queued
// stream — counted as EpochDiscards, not eliminations — clears succession
// state so the restarted stream may begin anywhere, and the node keeps
// detecting across the reset.
func TestResetSourceDeepQueue(t *testing.T) {
	const depth = 7
	nd := NewNode(9, Config{N: 3, Strict: true}, false)
	for p := 0; p < 3; p++ {
		nd.AddChild(p)
	}
	for r := 0; r < depth; r++ {
		nd.OnInterval(2, sync3(2, r, 10*r+1, 10*r+5))
	}

	nd.ResetSource(2)
	if got := nd.Stats().EpochDiscards; got != depth {
		t.Fatalf("EpochDiscards = %d, want %d", got, depth)
	}
	if cur, _ := nd.QueueSizes(); cur != 0 {
		t.Fatalf("residency after reset = %d, want 0", cur)
	}
	if nd.Stats().Eliminated != 0 || nd.Stats().Pruned != 0 {
		t.Fatalf("reset leaked into elimination stats: %+v", nd.Stats())
	}

	// The restarted stream starts BELOW the discarded one's frontier —
	// legal only because ResetSource dropped the succession state.
	for p := 0; p < 3; p++ {
		src := p
		dets := func() []Detection {
			if src == 2 {
				return nd.OnIntervals(2, []interval.Interval{sync3(2, 0, 1, 5)})
			}
			return nd.OnInterval(src, sync3(src, 0, 1, 5))
		}()
		if p < 2 && dets != nil {
			t.Fatalf("premature detection at source %d", p)
		}
		if p == 2 && len(dets) != 1 {
			t.Fatalf("restarted stream: %d detections, want 1", len(dets))
		}
	}
}

// TestOnIntervalsUnknownSource: a whole batch from a removed child is
// dropped and counted, exactly like the per-interval path.
func TestOnIntervalsUnknownSource(t *testing.T) {
	nd := NewNode(0, Config{N: 2}, true)
	nd.AddChild(1)
	nd.RemoveChild(1)
	batch := []interval.Interval{sync3(1, 0, 1, 5), sync3(1, 1, 11, 15)}
	if dets := nd.OnIntervals(1, batch); dets != nil {
		t.Fatalf("stale batch triggered detections: %v", dets)
	}
	if got := nd.Stats().Dropped; got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	if dets := nd.OnIntervals(1, nil); dets != nil {
		t.Fatal("empty batch returned detections")
	}
}
