package livenet

import (
	"testing"
	"time"

	"hierdet/internal/interval"
	"hierdet/internal/monitor"
	"hierdet/internal/obsv"
	"hierdet/internal/simnet"
	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// feedRange feeds rounds [lo, hi) of an execution into the cluster, one
// goroutine per process. Observations for killed processes are silently
// dropped by Observe, so the full execution can be replayed unchanged.
func feedRange(c *Cluster, e *workload.Execution, lo, hi int) {
	done := make(chan struct{})
	n := 0
	for p := range e.Streams {
		n++
		go func(p int) {
			defer func() { done <- struct{}{} }()
			for k := lo; k < hi && k < len(e.Streams[p]); k++ {
				c.Observe(p, e.Streams[p][k])
				time.Sleep(10 * time.Microsecond)
			}
		}(p)
	}
	for i := 0; i < n; i++ {
		<-done
	}
}

// awaitRepairs receives n orphan-reattachment notifications, failing the
// test on timeout.
func awaitRepairs(t *testing.T, repaired <-chan int, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-repaired:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for reattachment %d of %d", i+1, n)
		}
	}
}

// waitCond polls an atomic-backed condition until it holds, failing the
// test on timeout. Used for events with no callback (a survivor dropping a
// dead child's queue).
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func spanCount(dets []Detection, span int) int {
	n := 0
	for _, d := range dets {
		if d.AtRoot && len(d.Det.Agg.Span) == span {
			n++
		}
	}
	return n
}

func soundRoots(t *testing.T, dets []Detection) {
	t.Helper()
	for _, d := range dets {
		if d.AtRoot && !interval.OverlapAll(interval.BaseIntervals(d.Det.Agg)) {
			t.Fatal("false detection")
		}
	}
}

// TestLiveClusterFailover is the live counterpart of the simulator's
// distributed-repair tests: a mid-tree node is killed between two workload
// phases, its orphans renegotiate parents over the real racing channels, and
// root detection continues over the survivors — with the same detection
// counts as the deterministic simulator running the same execution and
// failure.
func TestLiveClusterFailover(t *testing.T) {
	const phase1, phase2 = 8, 8
	const victim = 1 // children 3 and 4 become orphans; parent 0 drops it
	build := func() *tree.Topology { return tree.Balanced(2, 2) }
	e := workload.Generate(workload.Config{Topology: build(), Rounds: phase1 + phase2, Seed: 6, PGlobal: 1})

	// Reference: the simulator on the same execution, the failure placed
	// after phase 1's cascade has drained and repaired before phase 2's
	// first round completes — the schedule the live run reproduces with
	// Drain and the repair callbacks.
	ref := monitor.NewRunner(monitor.Config{
		Mode: monitor.Hierarchical, Topology: build(), Exec: e,
		Seed: 17, Strict: true, KeepMembers: true,
		Spacing: 5000, MinDelay: 1, MaxDelay: 10,
		HbEvery: 100, HbTimeout: 400,
		DistributedRepair: true,
	})
	ref.ScheduleFailure(simnet.Time(phase1)*5000+3000, victim)
	refRes := ref.Run()
	refFull, refSurvivor := 0, 0
	for _, d := range refRes.RootDetections() {
		switch len(d.Det.Agg.Span) {
		case 7:
			refFull++
		case 6:
			refSurvivor++
		}
	}

	repaired := make(chan int, 8)
	topo := build()
	c := New(Config{
		Topology: topo, Seed: 11, Verify: true,
		HbEvery: 300 * time.Microsecond,
		Events:  testSink(nil, repaired),
	})
	feedRange(c, e, 0, phase1)
	c.Drain()

	orphans := c.Kill(victim)
	if orphans != 2 {
		t.Fatalf("Kill(%d) orphans = %d, want 2", victim, orphans)
	}
	awaitRepairs(t, repaired, orphans)
	waitCond(t, "parent to drop dead child", func() bool { return c.Metrics()[0].ChildDrops == 1 })
	c.Drain()

	feedRange(c, e, phase1, phase1+phase2)
	c.Close()
	dets := c.Detections()

	soundRoots(t, dets)
	if got := spanCount(dets, 7); got != phase1 || got != refFull {
		t.Errorf("full-span root detections = %d, want %d (simulator: %d)", got, phase1, refFull)
	}
	if got := spanCount(dets, 6); got != phase2 || got != refSurvivor {
		t.Errorf("survivor root detections = %d, want %d (simulator: %d)", got, phase2, refSurvivor)
	}
	if err := topo.Validate(); err != nil {
		t.Fatalf("topology mirror invalid after repair: %v", err)
	}
	if roots := topo.Roots(); len(roots) != 1 {
		t.Fatalf("roots = %v, want a single surviving tree", roots)
	}
	if got := c.Failed(); len(got) != 1 || got[0] != victim {
		t.Fatalf("Failed() = %v", got)
	}
	if reps := c.Repairs(); len(reps) != 2 {
		t.Fatalf("Repairs() = %v, want 2 adoptions", reps)
	} else {
		for _, r := range reps {
			if r.NewParent == tree.None {
				t.Fatalf("orphan %d partitioned; complete graph should adopt it", r.Orphan)
			}
		}
	}
	totalRepairs := 0
	for _, m := range c.Metrics() {
		totalRepairs += m.Repairs
	}
	if totalRepairs != 2 {
		t.Errorf("metrics repairs = %d, want 2", totalRepairs)
	}
}

// TestLiveClusterFailoverResendLast: with resend-on-adopt, the orphans
// re-report their last pre-crash aggregate to the new parent. Counts may
// exceed the phase totals (re-detections are the documented cost), but
// every detection must still be sound and the survivor predicate detected
// for every post-crash round.
func TestLiveClusterFailoverResendLast(t *testing.T) {
	const phase1, phase2 = 6, 6
	const victim = 2
	build := func() *tree.Topology { return tree.Balanced(2, 2) }
	e := workload.Generate(workload.Config{Topology: build(), Rounds: phase1 + phase2, Seed: 14, PGlobal: 1})

	repaired := make(chan int, 8)
	topo := build()
	c := New(Config{
		Topology: topo, Seed: 15, Verify: true,
		HbEvery: 300 * time.Microsecond, ResendLastOnAdopt: true,
		Events: testSink(nil, repaired),
	})
	feedRange(c, e, 0, phase1)
	c.Drain()
	orphans := c.Kill(victim)
	if orphans != 2 {
		t.Fatalf("Kill(%d) orphans = %d, want 2", victim, orphans)
	}
	awaitRepairs(t, repaired, orphans)
	waitCond(t, "parent to drop dead child", func() bool { return c.Metrics()[0].ChildDrops == 1 })
	c.Drain()
	feedRange(c, e, phase1, phase1+phase2)
	c.Close()
	dets := c.Detections()

	soundRoots(t, dets)
	if got := spanCount(dets, 6); got < phase2 {
		t.Errorf("survivor root detections = %d, want ≥ %d", got, phase2)
	}
}

// TestLiveClusterPartition: with tree-only links, killing a chain's middle
// strands the tail subtree. Its root exhausts the seek rounds, declares
// itself a partition root (RepairConcluded reports tree.None) and keeps detecting
// the partial predicate over its own span.
func TestLiveClusterPartition(t *testing.T) {
	const phase1, phase2 = 4, 4
	const victim = 1 // chain 0→1→2→3: {2,3} is stranded
	build := func() *tree.Topology {
		tp := tree.Chain(4)
		tp.UseTreeLinksOnly()
		return tp
	}
	e := workload.Generate(workload.Config{Topology: build(), Rounds: phase1 + phase2, Seed: 20, PGlobal: 1})

	repaired := make(chan RepairEvent, 4)
	topo := build()
	c := New(Config{
		Topology: topo, Seed: 21, Verify: true,
		HbEvery: 300 * time.Microsecond,
		Events: func(e obsv.Event) {
			if e.Kind == obsv.RepairConcluded {
				repaired <- RepairEvent{e.Node, e.Peer}
			}
		},
	})
	feedRange(c, e, 0, phase1)
	c.Drain()
	if orphans := c.Kill(victim); orphans != 1 {
		t.Fatalf("Kill orphans = %d, want 1", orphans)
	}
	select {
	case ev := <-repaired:
		if ev.Orphan != 2 || ev.NewParent != tree.None {
			t.Fatalf("repair event = %+v, want orphan 2 partitioned", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for partition give-up")
	}
	waitCond(t, "parent to drop dead child", func() bool { return c.Metrics()[0].ChildDrops == 1 })
	c.Drain()
	feedRange(c, e, phase1, phase1+phase2)
	c.Close()
	dets := c.Detections()

	soundRoots(t, dets)
	// The stranded pair keeps detecting at its own root...
	pair := 0
	for _, d := range dets {
		if d.Node == 2 && d.AtRoot && len(d.Det.Agg.Span) == 2 {
			pair++
		}
	}
	if pair != phase2 {
		t.Errorf("stranded-pair detections = %d, want %d", pair, phase2)
	}
	// ...and the old root detects its remaining singleton span for every
	// phase-2 round. (Dropping the dead child may additionally unblock one
	// leftover phase-1 head, so count by round.)
	singles := 0
	for _, d := range dets {
		if d.Node == 0 && d.AtRoot && len(d.Det.Agg.Span) == 1 {
			if base := interval.BaseIntervals(d.Det.Agg); len(base) == 1 && base[0].Seq >= phase1 {
				singles++
			}
		}
	}
	if singles != phase2 {
		t.Errorf("singleton root detections = %d, want %d", singles, phase2)
	}
}
