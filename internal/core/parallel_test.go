package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"hierdet/internal/interval"
	"hierdet/internal/vclock"
	"hierdet/internal/workload"
)

// The parallel engine's contract (engine.go) is stronger than the batch
// ingestion property next door: not just byte-identical detections but
// identical Stats, because each elimination round lists its pairs in the
// sequential iteration order and applies its verdicts after the sweep. These
// tests pin that contract as a property over chaotic executions with
// reconfigurations mixed in.

// parallelEquivalent is equivalent over 2..6 sources, Eq. 10 alone.
func parallelEquivalent(t *testing.T, seed int64, nSel uint8) bool {
	return equivalent(t, seed, 2+int(nSel%5), false)
}

// chaoticWidth is the system size the parity schedules run in: their n ≤ 8
// processes plus idle ones, so that an adopted child has a fresh id (p+8).
const chaoticWidth = 16

// widen pads every clock of streams to chaoticWidth components with zeros —
// processes that execute nothing, which keeps the clocks Fidge–Mattern.
func widen(streams [][]interval.Interval) [][]interval.Interval {
	pad := func(v vclock.VC) vclock.VC { return append(v.Clone(), make(vclock.VC, chaoticWidth-len(v))...) }
	for _, s := range streams {
		for i, iv := range s {
			s[i] = interval.New(iv.Origin, iv.Seq, pad(iv.Lo), pad(iv.Hi))
		}
	}
	return streams
}

// equivalent drives one sequential-oracle node and one parallel node through
// an identical schedule — random per-source chunks of a chaotic execution of
// n processes, interleaved RemoveChild, adoption and ResetSource
// reconfigurations — and requires byte-identical detections and identical
// Stats at every point where both have quiesced. Both run Strict, so every
// verdict the parallel engine decides on a span is recomputed by the full scan.
func equivalent(t *testing.T, seed int64, n int, exact bool) bool {
	streams := widen(workload.GenerateChaotic(workload.ChaoticConfig{
		N: n, Steps: 50 * n, Seed: seed,
	}).Streams)

	seq := NewNode(99, Config{N: chaoticWidth, Strict: true, KeepMembers: true, ExactPrune: exact}, false)
	par := NewNode(99, Config{N: chaoticWidth, Strict: true, KeepMembers: true, ExactPrune: exact,
		Parallel: true}, false)
	for p := 0; p < n; p++ {
		seq.AddChild(p)
		par.AddChild(p)
	}

	rng := rand.New(rand.NewSource(seed ^ 0x9a11e1))
	idx := make([]int, n)
	ids := make([]int, n) // the child id stream p feeds
	for p := range ids {
		ids[p] = p
	}
	removed := make([]bool, n)
	live := n
	var seqDets, parDets []Detection
	for {
		progressed := false
		for p := 0; p < n; p++ {
			if removed[p] {
				continue
			}
			// Reconfigurations, rarely: drop a source (keeping at least two
			// live so detection stays possible) — for good, or adopted back
			// under a fresh child id (p and the idle p+8 take turns) that
			// carries on with the stream — or reset its stream as a repair
			// epoch would: discard the queue, forget the succession
			// baseline, keep feeding.
			if live > 2 && rng.Intn(40) == 0 {
				seqDets = append(seqDets, seq.RemoveChild(ids[p])...)
				parDets = append(parDets, par.RemoveChild(ids[p])...)
				progressed = true
				if rng.Intn(2) == 0 {
					ids[p] ^= 8
					seq.AddChild(ids[p])
					par.AddChild(ids[p])
					continue
				}
				removed[p] = true
				live--
				continue
			}
			if rng.Intn(40) == 0 {
				seq.ResetSource(ids[p])
				par.ResetSource(ids[p])
			}
			left := len(streams[p]) - idx[p]
			if left == 0 {
				continue
			}
			k := 1 + rng.Intn(left)
			run := streams[p][idx[p] : idx[p]+k]
			idx[p] += k
			progressed = true
			seqDets = append(seqDets, seq.OnIntervals(ids[p], run)...)
			parDets = append(parDets, par.OnIntervals(ids[p], run)...)
		}
		if !progressed {
			break
		}
	}

	// Legacy Stats (the Algorithm 1 counters) must be identical; the
	// comparison-pruning breakdown is the parallel engine's own accounting
	// of how much of that identical work it answered in O(1), so it must be
	// zero on the oracle and bounded by the enumerated work on the engine.
	ss, ps := seq.Stats(), par.Stats()
	if ss.Legacy() != ps.Legacy() {
		t.Logf("seed %d n %d: stats diverge:\n  seq %+v\n  par %+v", seed, n, ss, ps)
		return false
	}
	if ss.FilteredComparisons != 0 || ss.MemoHits != 0 {
		t.Logf("seed %d n %d: sequential oracle reported pruning-layer work: %+v", seed, n, ss)
		return false
	}
	if ps.FilteredComparisons+ps.MemoHits > ps.VecComparisons {
		t.Logf("seed %d n %d: breakdown exceeds enumerated comparisons: %+v", seed, n, ps)
		return false
	}
	sc, sh := seq.QueueSizes()
	pc, ph := par.QueueSizes()
	if sc != pc || sh != ph {
		t.Logf("seed %d n %d: queue accounting diverges: seq %d/%d par %d/%d", seed, n, sc, sh, pc, ph)
		return false
	}
	if !bytes.Equal(encodeDetections(seqDets), encodeDetections(parDets)) {
		t.Logf("seed %d n %d: detection streams diverge (%d vs %d detections)",
			seed, n, len(seqDets), len(parDets))
		return false
	}
	return true
}

// TestQuickParallelEquivalence checks the parity property: the engine
// against detectSeq on the same schedule, detections and Stats alike.
func TestQuickParallelEquivalence(t *testing.T) {
	f := func(seed int64, nSel uint8) bool { return parallelEquivalent(t, seed, nSel) }
	if err := quick.Check(f, &quick.Config{MaxCount: 180}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelEquivalenceNilPool pins the pool-less parallel configuration —
// flat aggregate storage and region-carved sets with every round inline on
// the calling goroutine — which is what a single-core deployment runs, and,
// with no worker pool left in the engine, what every deployment runs.
func TestParallelEquivalenceNilPool(t *testing.T) {
	f := func(seed int64, nSel uint8) bool { return parallelEquivalent(t, seed, nSel) }
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelEpochInterleaving pins a deterministic repair-epoch schedule:
// two sources five rounds deep, a third reset mid-stream (epoch bump), then
// refilled. Sequential and parallel engines must discard, re-baseline and
// detect identically — including the EpochDiscards counter.
func TestParallelEpochInterleaving(t *testing.T) {
	mk := func(parallel bool) *Node {
		nd := NewNode(99, Config{N: 3, Strict: true, KeepMembers: true, Parallel: parallel}, false)
		for p := 0; p < 3; p++ {
			nd.AddChild(p)
		}
		return nd
	}
	seq, par := mk(false), mk(true)

	var seqDets, parDets []Detection
	feed := func(src, seqNo, lo, hi int) {
		iv := sync3(src, seqNo, lo, hi)
		seqDets = append(seqDets, seq.OnInterval(src, iv)...)
		parDets = append(parDets, par.OnInterval(src, iv)...)
	}
	// Source 2 runs five rounds ahead while 0 and 1 are silent: nothing can
	// be detected (every solution needs a head from all three queues), so
	// all five sit blocked in queue 2.
	for r := 0; r < 5; r++ {
		feed(2, r, 10*r+1, 10*r+3)
	}
	// Source 2's subtree repairs: the epoch bump discards its whole queue
	// and forgets the succession baseline, then the new epoch restarts its
	// Seq at zero, interleaved with sources 0 and 1 finally reporting.
	seq.ResetSource(2)
	par.ResetSource(2)
	for r := 0; r < 5; r++ {
		feed(0, r, 10*r+1, 10*r+3)
		feed(1, r, 10*r+1, 10*r+3)
		feed(2, r, 10*r+1, 10*r+3)
	}

	ss, ps := seq.Stats(), par.Stats()
	if ss.Legacy() != ps.Legacy() {
		t.Fatalf("stats diverge:\n  seq %+v\n  par %+v", ss, ps)
	}
	if ss.EpochDiscards == 0 {
		t.Fatal("schedule never exercised an epoch discard")
	}
	if ss.Detections != 5 {
		t.Fatalf("detections = %d, want 5", ss.Detections)
	}
	if !bytes.Equal(encodeDetections(seqDets), encodeDetections(parDets)) {
		t.Fatal("detection streams diverge")
	}
}

// TestDetectingCallAllocates pins what a detecting call of the parallel
// engine allocates: clock pairs, solution sets and the copies OnInterval
// keeps, all carved from the node's region a slab at a time, and nothing
// else. The result slice is the node's own buffer (see
// OnInterval), and a set of more than one member whose merged span equals
// the previous aggregate's shares that slice (interval.AggregateRefs); built
// fresh per call each was one more allocation.
func TestDetectingCallAllocates(t *testing.T) {
	for _, tc := range []struct {
		name     string
		children int
		want     float64 // allocations per detection, slab refills averaged away
	}{
		{"leaf", 0, 0},
		{"two children", 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const runs = 2000
			n := tc.children + 1
			pulses := benchPulses(n, runs+1) // AllocsPerRun calls once more, to warm up
			nd := NewNode(0, Config{N: n, Parallel: true}, true)
			for c := 1; c <= tc.children; c++ {
				nd.AddChild(c)
			}
			next, dets := 0, 0
			got := testing.AllocsPerRun(runs, func() {
				for _, iv := range pulses[next] {
					dets += len(nd.OnInterval(iv.Origin, iv))
				}
				next++
			})
			if dets != runs+1 {
				t.Fatalf("%d detections in %d pulses: not every call under measurement detects", dets, runs+1)
			}
			if got != tc.want {
				t.Fatalf("a detecting pulse allocates %v times, want %v", got, tc.want)
			}
		})
	}
}
