package tenantplane

import (
	"fmt"
	"runtime"
	"testing"

	"hierdet/internal/tree"
)

// TestRegistrationCostsWhatNodesRemember holds what a tenant pays to register
// — the tenant_fanout shape, 64 tenants of p = 63 on one plane — to a budget
// per node: a node costs its detector queues and counters, its mailbox, its
// links and resequencers, and its share of the cluster's metric families.
// What a drain needs only while it runs (round scratch, mailbox spares,
// ingestion staging, detection-log chunks) belongs to the worker that runs
// the node, and repair state is built on first use. Measured ≈ 1 135 B per
// node; ≈ 2 180 when every node carried its own round scratch, spare mailbox
// arrays, staging, repair fields and a boxed random source.
func TestRegistrationCostsWhatNodesRemember(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops what it is handed and allocations carry shadow state: not the bytes this budget is about")
	}
	const tenants, budget = 64, 1200
	topo := tree.Balanced(2, 5)
	p, err := NewMultiplexer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < tenants; i++ {
		if _, err := p.RegisterPredicate(fmt.Sprintf("t%d", i), Spec{Topology: topo, Seed: int64(i + 1), AdaptiveFlush: true}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / uint64(tenants*topo.N())
	t.Logf("%d B allocated per node (budget %d)", per, budget)
	if per > budget {
		t.Fatalf("registering a tenant allocates %d B per node, budget %d", per, budget)
	}
}
