package livenet

import (
	"runtime"
	"testing"
	"time"

	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// TestSharedSchedulerParity: a cluster seated on a caller's substrate must
// detect exactly what a standalone cluster detects on the same workload —
// whose substrate it is changes who closes it, never what the detectors
// compute — and Shared tells the two apart.
func TestSharedSchedulerParity(t *testing.T) {
	topo := tree.Balanced(2, 3)
	e := workload.Generate(workload.Config{Topology: topo, Rounds: 12, Seed: 21, PGlobal: 1})

	run := func(s *SharedScheduler) int {
		c := New(Config{Topology: topo, Seed: 4, Verify: true, Scheduler: s})
		if c.Shared() != (s != nil) {
			t.Fatalf("Shared() = %v with Config.Scheduler %v", c.Shared(), s)
		}
		feed(c, e, topo)
		roots := 0
		c.Close()
		for _, d := range c.Detections() {
			if d.AtRoot {
				roots++
			}
		}
		return roots
	}

	standalone := run(nil)
	s := NewSharedScheduler(SharedSchedulerConfig{})
	defer s.Close()
	shared := run(s)
	if standalone != 12 || shared != 12 {
		t.Fatalf("root detections: standalone=%d shared=%d, want 12 both", standalone, shared)
	}
}

// TestSharedSchedulerManyClusters: many clusters on one substrate all detect
// correctly, concurrently, and the goroutine count is the substrate's pool
// plus wheel — independent of the cluster count (the tentpole property: no
// per-tenant delivery goroutines).
func TestSharedSchedulerManyClusters(t *testing.T) {
	base := runtime.NumGoroutine()
	s := NewSharedScheduler(SharedSchedulerConfig{Workers: 2})
	const clusters = 24
	topo := tree.Balanced(2, 2)

	cs := make([]*Cluster, clusters)
	for i := range cs {
		cs[i] = New(Config{Topology: topo, Seed: int64(i + 1), Verify: true, Scheduler: s})
	}
	// Substrate: 2 workers + 1 wheel. Everything else is feeders and slack.
	if got := runtime.NumGoroutine(); got > base+2+1+4 {
		t.Fatalf("goroutines after %d clusters = %d (base %d): per-cluster goroutines leaked onto the substrate", clusters, got, base)
	}
	if s.Clients() != clusters {
		t.Fatalf("Clients() = %d, want %d", s.Clients(), clusters)
	}

	for i, c := range cs {
		e := workload.Generate(workload.Config{Topology: topo, Rounds: 5, Seed: int64(100 + i), PGlobal: 1})
		feed(c, e, topo)
	}
	for i, c := range cs {
		roots := 0
		c.Close()
		for _, d := range c.Detections() {
			if d.AtRoot {
				roots++
			}
		}
		if roots != 5 {
			t.Fatalf("cluster %d: root detections = %d, want 5", i, roots)
		}
	}
	if s.Clients() != 0 {
		t.Fatalf("Clients() after stops = %d, want 0", s.Clients())
	}
	s.Close()
	goroutinesSettleTo(t, base)
}

// TestSharedSchedulerStopIsolation: stopping one cluster must not disturb a
// sibling mid-flight on the same substrate — the sibling's timers stay on
// the shared wheel and its detections keep flowing.
func TestSharedSchedulerStopIsolation(t *testing.T) {
	s := NewSharedScheduler(SharedSchedulerConfig{})
	defer s.Close()
	topo := tree.Balanced(2, 2)

	victim := New(Config{Topology: topo, Seed: 1, Verify: true,
		Scheduler: s, HbEvery: 200 * time.Microsecond})
	survivor := New(Config{Topology: topo, Seed: 2, Verify: true,
		Scheduler: s, HbEvery: 200 * time.Microsecond})

	e := workload.Generate(workload.Config{Topology: topo, Rounds: 4, Seed: 31, PGlobal: 1})
	feed(victim, e, topo)
	victim.Close()

	// The survivor must still detect — including work fed entirely after the
	// victim's wheel entries were cancelled out from under the shared wheel.
	e2 := workload.Generate(workload.Config{Topology: topo, Rounds: 6, Seed: 32, PGlobal: 1})
	feed(survivor, e2, topo)
	roots := 0
	survivor.Close()
	for _, d := range survivor.Detections() {
		if d.AtRoot {
			roots++
		}
	}
	if roots != 6 {
		t.Fatalf("survivor root detections = %d, want 6", roots)
	}
}

// TestSharedSchedulerFailover: the §III-F repair protocol — heartbeat ticks,
// suspicion, seek timeouts — runs entirely on the shared wheel, so a crash
// under a caller's substrate must repair exactly as it does standalone.
func TestSharedSchedulerFailover(t *testing.T) {
	s := NewSharedScheduler(SharedSchedulerConfig{})
	defer s.Close()
	topo := tree.Balanced(2, 2)
	repaired := make(chan int, 8)
	c := New(Config{Topology: topo, Seed: 3, Verify: true,
		Scheduler: s, HbEvery: 200 * time.Microsecond,
		Events: testSink(nil, repaired)})
	orphans := c.Kill(1)
	if orphans != 2 {
		t.Fatalf("Kill(1) orphans = %d, want 2", orphans)
	}
	for i := 0; i < orphans; i++ {
		select {
		case <-repaired:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for repair %d/%d", i+1, orphans)
		}
	}
	c.Drain()
	reps := c.Repairs()
	c.Close()
	if len(reps) != 2 {
		t.Fatalf("repairs = %d, want 2", len(reps))
	}
	for _, r := range reps {
		if r.NewParent == tree.None {
			t.Fatalf("orphan %d partitioned; want reattachment", r.Orphan)
		}
	}
}
