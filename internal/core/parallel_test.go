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

// equivalent drives, for each of three schedules — (seed, n) and two
// companions of other widths — one sequential-oracle node, one parallel node
// with a region of its own and one parallel node carving from a region all
// three schedules share, the schedules interleaved pass by pass, the way a
// substrate worker runs the nodes of many clusters through one region. Each
// schedule is random per-source chunks of a chaotic execution of n processes,
// with RemoveChild, adoption and ResetSource reconfigurations interleaved.
// The three nodes of a schedule must end with byte-identical detections,
// identical Stats and identical queue accounting. All run Strict, so every
// verdict the parallel engine decides on a span is recomputed by the full
// scan.
func equivalent(t *testing.T, seed int64, n int, exact bool) bool {
	shared := new(Region)
	lanes := []*lane{
		newLane(seed, n, exact, shared),
		newLane(seed^0x5eed, 2+(n+1)%5, exact, shared),
		newLane(seed^0xfeed, 2+(n+3)%5, exact, shared),
	}
	for progressed := true; progressed; {
		progressed = false
		for _, l := range lanes {
			progressed = l.pass() || progressed
		}
	}
	for _, l := range lanes {
		if !l.agree(t) {
			return false
		}
	}
	return true
}

// lane is one schedule fed to its three nodes: nodes[0] the sequential
// oracle, nodes[1] the parallel engine on a region of its own, nodes[2] the
// parallel engine on the shared region.
type lane struct {
	seed    int64
	n       int
	streams [][]interval.Interval
	nodes   [3]*Node
	dets    [3][]Detection
	rng     *rand.Rand
	idx     []int
	ids     []int // the child id stream p feeds
	removed []bool
	live    int
}

func newLane(seed int64, n int, exact bool, shared *Region) *lane {
	l := &lane{
		seed: seed, n: n,
		streams: widen(workload.GenerateChaotic(workload.ChaoticConfig{
			N: n, Steps: 50 * n, Seed: seed,
		}).Streams),
		rng:     rand.New(rand.NewSource(seed ^ 0x9a11e1)),
		idx:     make([]int, n),
		ids:     make([]int, n),
		removed: make([]bool, n),
		live:    n,
	}
	for i := range l.nodes {
		l.nodes[i] = NewNode(99, Config{N: chaoticWidth, Strict: true, KeepMembers: true, ExactPrune: exact,
			Parallel: i > 0}, false)
	}
	l.nodes[2].Use(shared)
	for p := 0; p < n; p++ {
		l.ids[p] = p
		l.each(func(nd *Node) []Detection { nd.AddChild(p); return nil })
	}
	return l
}

// each makes one call on all three nodes, keeping each one's detections
// before the next node is called: a shared region's result buffer is the
// next call's.
func (l *lane) each(call func(*Node) []Detection) {
	for i, nd := range l.nodes {
		l.dets[i] = append(l.dets[i], call(nd)...)
	}
}

// pass feeds every live source one chunk, reconfiguring rarely, and reports
// whether anything happened.
func (l *lane) pass() bool {
	progressed := false
	for p := 0; p < l.n; p++ {
		if l.removed[p] {
			continue
		}
		// Reconfigurations, rarely: drop a source (keeping at least two live
		// so detection stays possible) — for good, or adopted back under a
		// fresh child id (p and the idle p+8 take turns) that carries on with
		// the stream — or reset its stream as a repair epoch would: discard
		// the queue, forget the succession baseline, keep feeding.
		if l.live > 2 && l.rng.Intn(40) == 0 {
			id := l.ids[p]
			l.each(func(nd *Node) []Detection { return nd.RemoveChild(id) })
			progressed = true
			if l.rng.Intn(2) == 0 {
				l.ids[p] ^= 8
				id = l.ids[p]
				l.each(func(nd *Node) []Detection { nd.AddChild(id); return nil })
				continue
			}
			l.removed[p] = true
			l.live--
			continue
		}
		if l.rng.Intn(40) == 0 {
			id := l.ids[p]
			l.each(func(nd *Node) []Detection { nd.ResetSource(id); return nil })
		}
		left := len(l.streams[p]) - l.idx[p]
		if left == 0 {
			continue
		}
		k := 1 + l.rng.Intn(left)
		run, id := l.streams[p][l.idx[p]:l.idx[p]+k], l.ids[p]
		l.idx[p] += k
		progressed = true
		l.each(func(nd *Node) []Detection { return nd.OnIntervals(id, run) })
	}
	return progressed
}

// agree checks the three nodes against the oracle: Stats (the Algorithm 1
// counters, the two counters of the deleted pruning layers 0), queue
// accounting and the detection streams.
func (l *lane) agree(t *testing.T) bool {
	seq := l.nodes[0]
	ss := seq.Stats()
	if ss.FilteredComparisons != 0 || ss.MemoHits != 0 {
		t.Logf("seed %d n %d: pruning-layer counters are not 0: %+v", l.seed, l.n, ss)
		return false
	}
	sc, sh := seq.QueueSizes()
	want := encodeDetections(l.dets[0])
	for i, nd := range l.nodes[1:] {
		which := [...]string{"own region", "shared region"}[i]
		if ps := nd.Stats(); ss != ps {
			t.Logf("seed %d n %d: stats diverge (%s):\n  seq %+v\n  par %+v", l.seed, l.n, which, ss, ps)
			return false
		}
		if pc, ph := nd.QueueSizes(); sc != pc || sh != ph {
			t.Logf("seed %d n %d: queue accounting diverges (%s): seq %d/%d par %d/%d", l.seed, l.n, which, sc, sh, pc, ph)
			return false
		}
		if !bytes.Equal(want, encodeDetections(l.dets[i+1])) {
			t.Logf("seed %d n %d: detection streams diverge (%s): %d vs %d detections",
				l.seed, l.n, which, len(l.dets[0]), len(l.dets[i+1]))
			return false
		}
	}
	return true
}

// TestQuickParallelEquivalence checks the parity property: the engine, on a
// region of its own and on one shared with other nodes, against detectSeq on
// the same schedule, detections and Stats alike.
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
	if ss != ps {
		t.Fatalf("stats diverge:\n  seq %+v\n  par %+v", ss, ps)
	}
	if ss.FilteredComparisons != 0 || ss.MemoHits != 0 {
		t.Fatalf("pruning-layer counters are not 0: %+v", ss)
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
// else. The result slice is the region's buffer (see OnInterval), and a
// set of more than one member whose merged span equals
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
