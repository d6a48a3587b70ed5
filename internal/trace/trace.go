// Package trace provides ground-truth machinery for validating the
// hierarchical detector: an order-robust flat reference detector fed
// directly from a recorded execution (no network, no hierarchy), and
// checkers that verify reported detections against the raw base intervals
// (paper Eq. 2).
//
// The flat reference is the centralized repeated-detection algorithm [12]
// run over an arbitrary process subset — the semantics the hierarchical
// algorithm must preserve per subtree (Theorems 1, 3, 4). Cross-validating
// per-node detection counts against it on arbitrary executions is the
// repository's strongest correctness check.
package trace

import (
	"fmt"
	"math/rand"

	"hierdet/internal/centralized"
	"hierdet/internal/core"
	"hierdet/internal/interval"
	"hierdet/internal/workload"
)

// FlatDetections runs the centralized repeated detector over the given
// process span of a recorded execution and returns its detections. Streams
// are interleaved deterministically from seed; detection *counts* are
// interleaving-independent (see TestFlatCountOrderIndependent), so any seed
// yields the reference count.
func FlatDetections(e *workload.Execution, span []int, seed int64) []core.Detection {
	if len(span) == 0 {
		panic("trace: empty span")
	}
	sink := centralized.NewSink(span[0], core.Config{N: e.N, Strict: true, KeepMembers: true}, span)
	var dets []core.Detection

	// Random-merge the per-process streams, preserving per-process order.
	idx := make([]int, e.N)
	r := rand.New(rand.NewSource(seed))
	remaining := 0
	for _, p := range span {
		remaining += len(e.Streams[p])
	}
	for remaining > 0 {
		// Pick a random span process with intervals left.
		k := r.Intn(remaining)
		for _, p := range span {
			left := len(e.Streams[p]) - idx[p]
			if k >= left {
				k -= left
				continue
			}
			iv := e.Streams[p][idx[p]]
			idx[p]++
			remaining--
			dets = append(dets, sink.OnInterval(p, iv)...)
			break
		}
	}
	return dets
}

// FlatCount returns the number of flat-reference detections over span.
func FlatCount(e *workload.Execution, span []int, seed int64) int {
	return len(FlatDetections(e, span, seed))
}

// CheckDetection verifies one reported detection: the members of its
// solution set must pairwise satisfy the Definitely condition
// min(x) < max(y) (Eq. 2), the aggregate must expand to base intervals
// (requires KeepMembers), the bases must satisfy Eq. 2 too, and the
// aggregate's span must equal the set of base origins. Returns a descriptive
// error.
func CheckDetection(d *core.Detection) error {
	if len(d.Set) > 0 && !interval.OverlapRefs(d.Set) {
		return fmt.Errorf("detection at node %d violates Eq. 2 (solution set members do not pairwise overlap)", d.Node)
	}
	bases := interval.BaseIntervals(d.Agg)
	origins := make(map[int]bool)
	for _, b := range bases {
		if b.Agg {
			return fmt.Errorf("detection at node %d contains an opaque aggregate (run with KeepMembers)", d.Node)
		}
		if origins[b.Origin] {
			return fmt.Errorf("detection at node %d contains two intervals from process %d", d.Node, b.Origin)
		}
		origins[b.Origin] = true
	}
	if !interval.OverlapAll(bases) {
		return fmt.Errorf("detection at node %d violates Eq. 2 (bases do not pairwise overlap)", d.Node)
	}
	if len(d.Agg.Span) != len(origins) {
		return fmt.Errorf("detection at node %d: span %v does not match base origins", d.Node, d.Agg.Span)
	}
	for _, p := range d.Agg.Span {
		if !origins[p] {
			return fmt.Errorf("detection at node %d: span lists %d but no base interval from it", d.Node, p)
		}
	}
	return nil
}

// CheckAll runs CheckDetection over a batch, failing on the first error.
func CheckAll(dets []core.Detection) error {
	for i := range dets {
		if err := CheckDetection(&dets[i]); err != nil {
			return err
		}
	}
	return nil
}
