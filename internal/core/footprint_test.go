package core

import (
	"runtime"
	"testing"
)

// TestNodeCostsItsQueues pins what a parallel-engine node costs before its
// first interval: the Node and its queues, nothing else — a call's scratch
// lives in the region the node is handed (Use), shared by every node that
// region serves. A relay with two children measured 384 B in 3 allocations;
// when each node carried its own round scratch, a queue map, a succession map
// and a boxed aggregate store it was 990 B in 10.
func TestNodeCostsItsQueues(t *testing.T) {
	const nodes, budget, allocBudget = 1000, 400, 4
	keep := make([]*Node, nodes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		nd := NewNode(0, Config{N: 63, Parallel: true}, false)
		nd.AddChild(1)
		nd.AddChild(2)
		keep[i] = nd
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / nodes
	allocs := (after.Mallocs - before.Mallocs) / nodes
	t.Logf("%d B in %d allocations per node (budget %d B in %d)", per, allocs, budget, allocBudget)
	if per > budget || allocs > allocBudget {
		t.Fatalf("a relay of two children costs %d B in %d allocations, budget %d B in %d", per, allocs, budget, allocBudget)
	}
	runtime.KeepAlive(keep)
}
