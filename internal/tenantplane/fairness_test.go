package tenantplane

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hierdet/internal/obsv"
	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// TestSchedulerFairness pins the DRR contract of the shared substrate: a hot
// tenant with a standing backlog on a deliberately small plane pool must not
// starve a quiet tenant. The plane runs two workers with a small quantum and
// a small mailbox bound, the hot tenant's feeders keep every one of its
// shards saturated (they block at the bound for most of the run), and the
// quiet tenant's observe→SolutionFound latency is measured round by round.
// Under starvation the quiet tenant's round would wait for the hot tenant's
// entire backlog — tens of seconds — so the per-round bound below catches
// the failure mode with a wide margin over scheduler jitter, including under
// the race detector.
func TestSchedulerFairness(t *testing.T) {
	const (
		hotRounds   = 20000
		quietRounds = 8
		roundBound  = 5 * time.Second
	)
	hotTopo := tree.Balanced(2, 3)   // 15 nodes
	quietTopo := tree.Balanced(2, 2) // 7 nodes

	plane, err := NewMultiplexer(Config{
		Workers:          2,
		SchedulerQuantum: 32,
		MailboxBound:     64,
	})
	if err != nil {
		t.Fatal(err)
	}

	hotExec := workload.Generate(workload.Config{Topology: hotTopo, Rounds: hotRounds, Seed: 7, PGlobal: 1})
	quietExec := workload.Generate(workload.Config{Topology: quietTopo, Rounds: quietRounds, Seed: 11, PGlobal: 1})

	hot, err := plane.RegisterPredicate("hot", Spec{
		Topology: tree.Balanced(2, 3), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The quiet tenant reports each root detection's arrival time.
	detections := make(chan time.Time, quietRounds)
	quiet, err := plane.RegisterPredicate("quiet", Spec{
		Topology: tree.Balanced(2, 2), Seed: 2,
		Events: func(ev obsv.Event) {
			if ev.Kind == obsv.SolutionFound && ev.Node == 0 {
				detections <- time.Now()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Flood the hot tenant from one feeder per process. With 15 nodes, a
	// 64-slot bound and two workers the feeders spend the run blocked at the
	// mailbox bound — the standing backlog the quiet tenant must cut through.
	var stopFeed atomic.Bool
	var hotFed atomic.Int64
	var feeders sync.WaitGroup
	for p := range hotExec.Streams {
		feeders.Add(1)
		go func(p int) {
			defer feeders.Done()
			for _, iv := range hotExec.Streams[p] {
				if stopFeed.Load() {
					return
				}
				hot.Observe(p, iv)
				hotFed.Add(1)
			}
		}(p)
	}
	// Wait until the flood has visibly queued work before measuring.
	waitFor(t, "the hot tenant's backlog", func() bool {
		for _, m := range hot.Cluster().Metrics() {
			if m.MailboxDepth > 0 {
				return true
			}
		}
		return false
	})

	hotTotal := int64(0)
	for _, s := range hotExec.Streams {
		hotTotal += int64(len(s))
	}
	var worst time.Duration
	for r := 0; r < quietRounds; r++ {
		start := time.Now()
		for p := range quietExec.Streams {
			quiet.Observe(p, quietExec.Streams[p][r])
		}
		select {
		case at := <-detections:
			if d := at.Sub(start); d > worst {
				worst = d
			}
		case <-time.After(roundBound):
			t.Fatalf("quiet tenant starved: round %d saw no root detection within %v (hot backlog fed %d/%d)",
				r, roundBound, hotFed.Load(), hotTotal)
		}
	}
	// The measurement only means something if the hot tenant still had work
	// queued the whole time; with these sizes it always does.
	if fed := hotFed.Load(); fed >= hotTotal {
		t.Fatalf("hot tenant drained before the quiet rounds finished (%d/%d fed) — grow hotRounds", fed, hotTotal)
	}
	t.Logf("quiet tenant worst observe→solution latency under flood: %v", worst)

	stopFeed.Store(true)
	feeders.Wait()
	plane.Close()
}
