package livenet

import (
	"runtime"
	"testing"

	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// TestDetectionPathAllocBudget holds the bytes a detection costs on its way
// from the detector to Detections() to a budget: every round is global, so
// every interval fed is a detection logged, reported (leaves and inner nodes)
// and returned. Measured, in bytes per interval, around feed + Close +
// Detections with the clusters already built. Clock storage, solution sets
// and the harness's own round trip are in the figure too (runs this short
// leave half of a node's last clock chunk unused), so the budgets sit some
// 10 % above what the runs measure and well below what they measured with
// one cluster-wide slice regrown under the cluster lock, a result slice per
// detecting call and a copy per flush:
//
//	one p=127 cluster, 200 rounds       ≈ 1 720; was ≈ 2 760. One log of 200
//	                                    per node, what the deep_saturate
//	                                    workload does in a fifth of a pass
//	64 p=63 clusters, 40 rounds each    ≈ 1 570; was ≈ 2 060. 4 032 logs of 40
//	                                    on one substrate (the tenant_fanout
//	                                    shape): a log must not cost a large
//	                                    chunk (128 entries: ≈ 1 940) before it
//	                                    has the detections to fill it
func TestDetectionPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is handed and every allocation carries shadow state: not the bytes this budget is about")
	}
	for _, tc := range []struct {
		name             string
		clusters, height int
		rounds, window   int    // fed round-major, window rounds in flight (steadyFeed)
		budget           uint64 // bytes per interval
	}{
		{"one p=127 cluster", 1, 6, 200, 16, 1900},
		{"64 p=63 clusters on one substrate", 64, 5, 40, 64, 1700},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo := tree.Balanced(2, tc.height)
			n := topo.N()
			e := workload.Generate(workload.Config{Topology: topo, Rounds: tc.rounds, Seed: 5, PGlobal: 1})
			sched := NewSharedScheduler(SharedSchedulerConfig{})
			defer sched.Close()
			feed := newSteadyFeed(topo, tc.window)
			clusters := make([]*Cluster, tc.clusters)
			for i := range clusters {
				clusters[i] = New(Config{Topology: topo, Seed: int64(i + 1), AdaptiveFlush: true,
					Scheduler: sched, Events: feed.sink})
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			feed.run(clusters, e)
			found := 0
			for _, c := range clusters {
				c.Close()
				found += len(c.Detections())
			}
			runtime.ReadMemStats(&after)
			intervals := tc.clusters * n * tc.rounds
			if found != intervals {
				t.Fatalf("%d detections for %d intervals: the run is not the one budgeted", found, intervals)
			}
			per := (after.TotalAlloc - before.TotalAlloc) / uint64(intervals)
			t.Logf("%d B per interval (budget %d)", per, tc.budget)
			if per > tc.budget {
				t.Fatalf("detection path allocates %d B per interval, budget %d", per, tc.budget)
			}
		})
	}
}
