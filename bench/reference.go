package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"hierdet/internal/core"
	"hierdet/internal/repair"
)

// reference is the single-threaded run of the same job, and the oracle: a
// hand-wired tree of core.Node (the parallel engine on the calling
// goroutine, no pool), fed the same execution round-major with synchronous
// parent calls. Its per-node detection counts are the expected outputs of
// every live pass; its work counts are exact and must repeat bit for bit;
// its wall time per interval is the baseline the live plane's overhead is
// stated against.
type reference struct {
	perNode []int // detections per node — the expected outputs
	total   int   // sum of perNode

	// counts is core.Stats summed over the tree plus the peak node queue
	// residency — the work ledger that must repeat exactly.
	counts refCounts

	wall        time.Duration
	callNs      []float64 // ascending: one sample per leaf-level OnInterval call, cascade included
	allocBytes  uint64
	reports     []repair.Report // captured child→parent reports, grouped by origin in link order
	reportStart []int           // reports[reportStart[i]:reportStart[i+1]] share one origin
}

type refCounts struct {
	IntervalsIn, VecComparisons, FilteredComparisons, MemoHits int
	Eliminated, Pruned, Detections, Reports, QueueHighWater    int
}

// captureOrigins is how many report streams the reference run keeps for the
// codec and transport kernels, and captureEach how many reports of each.
const (
	captureOrigins = 8
	captureEach    = 256
)

// runReference executes the oracle over the whole execution.
func runReference(in *inputs) *reference {
	ref := &reference{perNode: make([]int, in.n)}
	cfg := core.Config{N: in.n, Parallel: true}
	nodes := make([]*core.Node, in.n)
	for v := 0; v < in.n; v++ {
		nodes[v] = core.NewNode(v, cfg, true)
		for _, c := range in.topo.Children(v) {
			nodes[v].AddChild(c)
		}
	}

	// Capture the report streams of a few origins spread over the depths:
	// evenly spaced non-root ids cover leaves and internal nodes alike.
	capIdx := make(map[int]int, captureOrigins)
	var captured [][]repair.Report
	for i := 0; i < captureOrigins && in.n > 1; i++ {
		v := 1 + i*(in.n-1)/captureOrigins
		if _, dup := capIdx[v]; !dup {
			capIdx[v] = len(captured)
			captured = append(captured, make([]repair.Report, 0, captureEach))
		}
	}

	var deliver func(v int, dets []core.Detection)
	deliver = func(v int, dets []core.Detection) {
		for _, d := range dets {
			ref.perNode[v]++
			parent := in.topo.Parent(v)
			if parent < 0 {
				continue
			}
			ref.counts.Reports++
			if i, ok := capIdx[v]; ok && len(captured[i]) < captureEach {
				captured[i] = append(captured[i], repair.Report{Iv: d.Agg, LinkSeq: len(captured[i])})
			}
			deliver(parent, nodes[parent].OnInterval(v, d.Agg))
		}
	}

	ref.callNs = make([]float64, 0, in.intervals)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for r := 0; r < in.spec.rounds; r++ {
		for p := 0; p < in.n; p++ {
			t0 := time.Now()
			deliver(p, nodes[p].OnInterval(p, in.stream(p, r)))
			ref.callNs = append(ref.callNs, float64(time.Since(t0)))
		}
	}
	ref.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	ref.allocBytes = after.TotalAlloc - before.TotalAlloc
	sort.Float64s(ref.callNs)

	for _, nd := range nodes {
		st := nd.Stats()
		ref.counts.IntervalsIn += st.IntervalsIn
		ref.counts.VecComparisons += st.VecComparisons
		ref.counts.FilteredComparisons += st.FilteredComparisons
		ref.counts.MemoHits += st.MemoHits
		ref.counts.Eliminated += st.Eliminated
		ref.counts.Pruned += st.Pruned
		ref.counts.Detections += st.Detections
		if _, high := nd.QueueSizes(); high > ref.counts.QueueHighWater {
			ref.counts.QueueHighWater = high
		}
	}
	for _, c := range ref.perNode {
		ref.total += c
	}
	for _, reps := range captured {
		ref.reportStart = append(ref.reportStart, len(ref.reports))
		ref.reports = append(ref.reports, reps...)
	}
	ref.reportStart = append(ref.reportStart, len(ref.reports))
	return ref
}

// checkAgainstTruth confirms the oracle and the generator's round record
// agree: the root count must equal Execution.ExpectedDetections over all
// processes, and every node must detect in exactly its ground-truth rounds
// (the span builder attributes a node's k-th detection to its k-th such
// round, so a disagreement would misattribute every span after it).
func (ref *reference) checkAgainstTruth(in *inputs) error {
	all := make([]int, in.n)
	for i := range all {
		all[i] = i
	}
	if want := in.exec.ExpectedDetections(all); ref.perNode[in.root] != want {
		return fmt.Errorf("reference root detections = %d, workload ground truth expects %d", ref.perNode[in.root], want)
	}
	for v, c := range ref.perNode {
		if c != len(in.nodeRounds[v]) {
			return fmt.Errorf("reference node %d detections = %d, round record covers its subtree in %d rounds", v, c, len(in.nodeRounds[v]))
		}
	}
	return nil
}
