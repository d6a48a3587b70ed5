package livenet

import (
	"context"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"time"

	"hierdet/internal/core"
	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// runWorkload feeds a whole execution and returns the cluster ready to be
// torn down by whichever lifecycle entry point the test exercises.
func runWorkload(t *testing.T, seed int64) (*Cluster, *workload.Execution) {
	t.Helper()
	topo := tree.Balanced(2, 2)
	e := workload.Generate(workload.Config{Topology: topo, Rounds: 6, Seed: seed, PGlobal: 1})
	c := New(Config{Topology: topo, Seed: seed, Strict: true, KeepMembers: true})
	for p := range e.Streams {
		c.ObserveBatch(p, e.Streams[p])
	}
	return c, e
}

// sameDetections asserts two detection lists agree on the canonical
// projection (node, root-ness, aggregate identity) — Stop and
// Close+Detections must be interchangeable teardown spellings.
func sameDetections(t *testing.T, got, want []Detection) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("detections = %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Node != w.Node || g.AtRoot != w.AtRoot ||
			g.Det.Agg.Seq != w.Det.Agg.Seq || g.Det.Agg.Origin != w.Det.Agg.Origin {
			t.Fatalf("detection %d: got {node %d root %v seq %d}, want {node %d root %v seq %d}",
				i, g.Node, g.AtRoot, g.Det.Agg.Seq, w.Node, w.AtRoot, w.Det.Agg.Seq)
		}
	}
}

// TestCloseEqualsStop pins the deprecation contract: Close followed by
// Detections returns exactly what Stop would have (same workload, same
// seed, same ordering), and Close is idempotent where Stop panics.
func TestCloseEqualsStop(t *testing.T) {
	cs, _ := runWorkload(t, 77)
	viaStop := cs.Stop()

	cc, _ := runWorkload(t, 77)
	if err := cc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	viaClose := cc.Detections()
	sameDetections(t, viaClose, viaStop)

	// Close again: nil, and Detections unchanged.
	if err := cc.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	sameDetections(t, cc.Detections(), viaStop)
}

// TestDetectionsBeforeStop: the accessor answers nil until teardown has
// produced the final ordered list.
func TestDetectionsBeforeStop(t *testing.T) {
	c := New(Config{Topology: tree.Star(3)})
	if d := c.Detections(); d != nil {
		t.Fatalf("Detections before teardown = %d entries, want nil", len(d))
	}
	c.Close()
	if c.Detections() == nil {
		// A teardown with zero detections returns the empty (non-nil is not
		// promised) list; only panic-free access matters here.
		t.Log("empty teardown returned nil detections")
	}
}

// TestStopAfterClosePanics: the historical Stop contract (double teardown
// is a bug worth a loud crash) survives the lifecycle refactor.
func TestStopAfterClosePanics(t *testing.T) {
	c := New(Config{Topology: tree.Star(3)})
	c.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Stop after Close did not panic")
		}
	}()
	c.Stop()
}

// TestShutdownDeadline: a Shutdown whose context expires while credits are
// still pending reports ctx.Err(), leaves the cluster running (Observe
// still legal, no panic), and a later unbounded Shutdown completes with the
// full detection set.
func TestShutdownDeadline(t *testing.T) {
	topo := tree.Chain(2)
	e := workload.Generate(workload.Config{Topology: topo, Rounds: 4, Seed: 9, PGlobal: 1})
	// A long MaxDelay parks the credits of child 1's two reports on the wheel
	// (the seed fixes their delays: 36 and 87 ms), so quiescence is provably
	// not reachable within the short deadline.
	c := New(Config{Topology: topo, Seed: 9, Strict: true, KeepMembers: true,
		MaxDelay: 600 * time.Millisecond})
	for p := range e.Streams {
		c.ObserveBatch(p, e.Streams[p][:2])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := c.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown under deadline = %v, want context.DeadlineExceeded", err)
	}

	// Still running: feeding more work must not panic.
	for p := range e.Streams {
		c.ObserveBatch(p, e.Streams[p][2:])
	}
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatalf("unbounded Shutdown: %v", err)
	}
	roots := 0
	for _, d := range c.Detections() {
		if d.AtRoot {
			roots++
		}
	}
	if roots != 4 {
		t.Fatalf("root detections after resumed shutdown = %d, want 4", roots)
	}
	// Shutdown after stopped: nil.
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown after stopped = %v, want nil", err)
	}
}

// stableByNodeSeq is teardown's ordering as it was first written: one stable
// sort of the whole list by (node, Agg.Seq). Laying the per-node logs end to
// end must reproduce it exactly.
func stableByNodeSeq(dets []Detection) []Detection {
	out := append([]Detection(nil), dets...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Det.Agg.Seq < out[j].Det.Agg.Seq
	})
	return out
}

// TestTeardownOrderMatchesStableSort pins Close's concatenation of the
// per-node logs to the stable sort it replaced, without looking inside the
// cluster: the SolutionFound stream, in arrival order, stable-sorted by
// (node, Agg.Seq) is what Detections returns — on a run whose schedule has a
// kill, two adoptions and re-reported aggregates in it — and logs whose
// entries are not in Seq order and repeat Seqs (the per-run fallback) come out
// as the stable sort of the list they were filled from.
func TestTeardownOrderMatchesStableSort(t *testing.T) {
	const phase1, phase2, victim = 8, 8, 1
	topo := tree.Balanced(2, 3)
	e := workload.Generate(workload.Config{Topology: topo, Rounds: phase1 + phase2, Seed: 6, PGlobal: 1})
	repaired := make(chan int, 8)
	var streamed detLog
	c := New(Config{
		Topology: topo, Seed: 11, KeepMembers: true,
		HbEvery: 300 * time.Microsecond, ResendLastOnAdopt: true,
		Events: testSink(&streamed, repaired),
	})
	feedRange(c, e, 0, phase1)
	c.Drain()
	awaitRepairs(t, repaired, c.Kill(victim))
	c.Drain()
	feedRange(c, e, phase1, phase1+phase2)
	c.Close()
	arrived := streamed.all()
	if len(arrived) == 0 || len(c.Repairs()) == 0 {
		t.Fatalf("run streamed %d detections and %d repairs; the schedule did not happen", len(arrived), len(c.Repairs()))
	}
	if got, want := c.Detections(), stableByNodeSeq(arrived); !reflect.DeepEqual(got, want) {
		t.Fatalf("Close ordered %d detections differently from the stable (node, seq) sort of the %d streamed", len(got), len(want))
	}

	rng := rand.New(rand.NewPCG(3, 4))
	synthetic := make([]Detection, 5000)
	logs := make([]*detectionLog, 40*3) // sparse ids: two logs in three stay empty
	for i := range logs {
		logs[i] = new(detectionLog)
	}
	for i := range synthetic {
		synthetic[i].Node = rng.IntN(40) * 3
		synthetic[i].Det = new(core.Detection)
		synthetic[i].Det.Agg.Seq = rng.IntN(50)
		synthetic[i].Det.Agg.Origin = i // tells equal (node, seq) entries apart
		logs[synthetic[i].Node].add(synthetic[i])
	}
	if got, want := concatLogs(logs), stableByNodeSeq(synthetic); !reflect.DeepEqual(got, want) {
		t.Fatal("concatLogs differs from the stable (node, seq) sort on unsorted runs")
	}
	if got := concatLogs(logs); len(got) != 0 {
		t.Fatalf("concatLogs left %d detections in the logs it emptied", len(got))
	}
}

// TestDetectionsWhileRecordingAndClosing reads the cluster from another
// goroutine through everything the per-node logs go through — nodes
// recording, Close laying the logs end to end, the list published — under
// the race detector: ClusterMetrics reads only atomics and the ledger, and
// Detections answers nil until the final list is there, whole.
func TestDetectionsWhileRecordingAndClosing(t *testing.T) {
	topo := tree.Balanced(2, 4)
	e := workload.Generate(workload.Config{Topology: topo, Rounds: 60, Seed: 3, PGlobal: 1})
	c := New(Config{Topology: topo, Seed: 3, AdaptiveFlush: true})
	want := topo.N() * 60
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			if d := c.Detections(); d != nil && len(d) != want {
				t.Errorf("Detections returned %d entries before the list was final (%d)", len(d), want)
			}
			if cm := c.ClusterMetrics(); cm.Detections > int64(want) {
				t.Errorf("ClusterMetrics counts %d detections, more than the run has (%d)", cm.Detections, want)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	feedRange(c, e, 0, 60)
	c.Close()
	close(stop)
	<-stopped
	if got := len(c.Detections()); got != want {
		t.Fatalf("Detections after Close = %d entries, want %d", got, want)
	}
}
