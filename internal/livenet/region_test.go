package livenet

import (
	"reflect"
	"sync"
	"testing"

	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// TestRegionsKeepWhatTheDetectorReturned runs 16 tenants at once on a
// 4-worker substrate, so every worker's region carves for nodes of many
// clusters, drain after drain: each tenant's Detections() must deep-equal,
// field for field down to every clock component, a copy its sink made of
// each detection as the detector returned it — nothing carved later wrote
// over anything carved before — in the stable (node, seq) order. Run it under
// the race detector as well: a region is touched by its worker alone.
func TestRegionsKeepWhatTheDetectorReturned(t *testing.T) {
	const tenants, workers, rounds = 16, 4, 30
	topo := tree.Balanced(2, 3)
	all := topo.Subtree(topo.Roots()[0])
	sched := NewSharedScheduler(SharedSchedulerConfig{Workers: workers})
	defer sched.Close()
	sinks := make([]detLog, tenants)
	execs := make([]*workload.Execution, tenants)
	clusters := make([]*Cluster, tenants)
	for i := range clusters {
		execs[i] = workload.Generate(workload.Config{Topology: topo, Rounds: rounds, Seed: int64(i + 1),
			PGlobal: .5, PGroup: .3, PSubset: .2})
		clusters[i] = New(Config{Topology: topo.Clone(), Seed: int64(i + 1), AdaptiveFlush: true, Scheduler: sched,
			Events: copySink(&sinks[i])})
	}
	var wg sync.WaitGroup
	for i, c := range clusters {
		wg.Add(1)
		go func(c *Cluster, e *workload.Execution) {
			defer wg.Done()
			for r := range e.Rounds {
				for p := range e.Streams {
					c.Observe(p, e.Streams[p][r])
				}
			}
			c.Close()
		}(c, execs[i])
	}
	wg.Wait()
	for i, c := range clusters {
		got, want := c.Detections(), stableByNodeSeq(sinks[i].all())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("tenant %d: Detections() differs from what its sink copied as the detector returned it (%d vs %d entries)", i, len(got), len(want))
		}
		atRoot := 0
		for _, d := range got {
			if d.AtRoot {
				atRoot++
			}
		}
		if wantRoot := execs[i].ExpectedDetections(all); atRoot != wantRoot {
			t.Fatalf("tenant %d: %d root detections, ground truth %d", i, atRoot, wantRoot)
		}
	}
}
