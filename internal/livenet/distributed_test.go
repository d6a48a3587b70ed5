package livenet

import (
	"sync"
	"testing"
	"time"

	"hierdet/internal/core"
	"hierdet/internal/obsv"
	"hierdet/internal/transport"
	"hierdet/internal/transport/tcptransport"
	"hierdet/internal/tree"
	"hierdet/internal/wire"
	"hierdet/internal/workload"
)

// detLog aggregates streamed detections across the participants of a
// distributed deployment (each cluster's Detections holds only its own).
type detLog struct {
	mu   sync.Mutex
	dets []Detection
}

func (l *detLog) add(d Detection) {
	l.mu.Lock()
	l.dets = append(l.dets, d)
	l.mu.Unlock()
}

// testSink builds an Events sink for tests: every SolutionFound is added to
// log and every RepairConcluded sends its orphan to repaired; either may be
// nil.
func testSink(log *detLog, repaired chan<- int) func(obsv.Event) {
	return func(e obsv.Event) {
		switch {
		case e.Kind == obsv.SolutionFound && log != nil:
			log.add(Detection{Node: e.Node, AtRoot: e.AtRoot, Det: &core.Detection{Node: e.Node, Agg: e.Agg, Set: e.Set}})
		case e.Kind == obsv.RepairConcluded && repaired != nil:
			repaired <- e.Node
		}
	}
}

func (l *detLog) rootSpan(span int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return spanCount(l.dets, span)
}

func (l *detLog) all() []Detection {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Detection(nil), l.dets...)
}

// feedOne feeds rounds [lo, hi) of process p's stream into its hosting
// cluster, preserving generation order.
func feedOne(c *Cluster, e *workload.Execution, p, lo, hi int) {
	for k := lo; k < hi && k < len(e.Streams[p]); k++ {
		c.Observe(p, e.Streams[p][k])
		time.Sleep(10 * time.Microsecond)
	}
}

// feedRangeMulti feeds rounds [lo, hi) into a one-cluster-per-node
// deployment, one goroutine per process.
func feedRangeMulti(clusters map[int]*Cluster, e *workload.Execution, lo, hi int) {
	var wg sync.WaitGroup
	for p := range e.Streams {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			feedOne(clusters[p], e, p, lo, hi)
		}(p)
	}
	wg.Wait()
}

// totalRepairs sums the concluded reattachments across a deployment.
func totalRepairs(clusters map[int]*Cluster) int {
	n := 0
	for _, c := range clusters {
		n += len(c.Repairs())
	}
	return n
}

// TestDistributedParityAndFailover is the tentpole's semantic contract: the
// same workload, run once on the single-process channel cluster and once as
// seven one-node clusters joined only by wire-encoded frames over an
// in-process network, produces identical root-detection counts — before a
// failure and after one, with the §III-F repair negotiated entirely over the
// transport (heartbeat-fed covered sets, silence-based suspicion, no shared
// state).
func TestDistributedParityAndFailover(t *testing.T) {
	const phase1, phase2 = 8, 8
	const victim = 1 // children 3 and 4 become orphans; parent 0 drops it
	build := func() *tree.Topology { return tree.Balanced(2, 2) }
	e := workload.Generate(workload.Config{Topology: build(), Rounds: phase1 + phase2, Seed: 6, PGlobal: 1})

	// Reference: the single-process cluster (in-memory channel transport) on
	// the same execution and failure schedule.
	refRepaired := make(chan int, 8)
	ref := New(Config{
		Topology: build(), Seed: 11, Verify: true,
		HbEvery: 300 * time.Microsecond,
		Events:  testSink(nil, refRepaired),
	})
	feedRange(ref, e, 0, phase1)
	ref.Drain()
	awaitRepairs(t, refRepaired, ref.Kill(victim))
	waitCond(t, "reference parent to drop dead child", func() bool { return ref.Metrics()[0].ChildDrops == 1 })
	ref.Drain()
	feedRange(ref, e, phase1, phase1+phase2)
	ref.Close()
	refDets := ref.Detections()
	refFull, refSurvivor := spanCount(refDets, 7), spanCount(refDets, 6)

	// Distributed: one cluster per node, joined by the in-process Network.
	// Per-cluster Drain cannot see frames in flight on the transport, so the
	// phases synchronize on observed detection counts instead.
	net := transport.NewNetwork()
	var log detLog
	repaired := make(chan int, 8)
	clusters := make(map[int]*Cluster, 7)
	for id := 0; id < 7; id++ {
		clusters[id] = New(Config{
			Topology: build(), Seed: 11, Verify: true,
			HbEvery:      time.Millisecond,
			StartupGrace: 5 * time.Millisecond,
			Transport:    net.Endpoint(id),
			LocalNodes:   []int{id},
			Events:       testSink(&log, repaired),
		})
	}

	feedRangeMulti(clusters, e, 0, phase1)
	waitCond(t, "phase-1 root detections", func() bool { return log.rootSpan(7) >= refFull })

	if orphans := clusters[victim].Kill(victim); orphans != 2 {
		t.Fatalf("Kill(%d) orphans = %d, want 2", victim, orphans)
	}
	awaitRepairs(t, repaired, 2)
	waitCond(t, "parent to drop dead child", func() bool { return clusters[0].Metrics()[0].ChildDrops == 1 })

	feedRangeMulti(clusters, e, phase1, phase1+phase2)
	waitCond(t, "phase-2 root detections", func() bool { return log.rootSpan(6) >= refSurvivor })
	time.Sleep(20 * time.Millisecond) // settle: surplus detections would be a bug

	var dets []Detection
	for id := 0; id < 7; id++ {
		clusters[id].Close()
		dets = append(dets, clusters[id].Detections()...)
	}
	soundRoots(t, dets)
	if got := spanCount(dets, 7); got != refFull || got != phase1 {
		t.Errorf("full-span root detections = %d, want %d (reference: %d)", got, phase1, refFull)
	}
	if got := spanCount(dets, 6); got != refSurvivor || got != phase2 {
		t.Errorf("survivor root detections = %d, want %d (reference: %d)", got, phase2, refSurvivor)
	}
	if got := totalRepairs(clusters); got != 2 {
		t.Errorf("repairs across deployment = %d, want 2", got)
	}
	hb, bad := 0, 0
	for id, c := range clusters {
		m := c.Metrics()[id]
		hb += m.Heartbeats
		bad += m.BadFrames
	}
	if hb == 0 {
		t.Error("no heartbeat messages handled; distributed liveness never ran")
	}
	if bad != 0 {
		t.Errorf("bad frames = %d, want 0 on a clean network", bad)
	}
}

// TestDistributedRedeliveryAndCorruptFrames is the livenet half of the
// redelivery contract (the transport half is tcptransport's mid-stream
// disconnect test): a report frame redelivered verbatim is absorbed by the
// receiver's resequencer — counted a duplicate, not delivered again — and a
// corrupt frame is counted and dropped without disturbing detection.
func TestDistributedRedeliveryAndCorruptFrames(t *testing.T) {
	const rounds = 3
	build := func() *tree.Topology { return tree.Chain(2) }
	e := workload.Generate(workload.Config{Topology: build(), Rounds: rounds, Seed: 9, PGlobal: 1})

	net := transport.NewNetwork()
	epRoot := net.Endpoint(0)
	epLeaf := net.Endpoint(1)

	// Tap the leaf's outgoing frames so the test can replay a real report.
	var tapMu sync.Mutex
	var reportFrame []byte
	epLeaf.Drop = func(to int, frame []byte) bool {
		tapMu.Lock()
		if reportFrame == nil {
			if k, err := wire.FrameKind(frame); err == nil && k == wire.KindReport {
				reportFrame = append([]byte(nil), frame...)
			}
		}
		tapMu.Unlock()
		return false
	}

	var log detLog
	mk := func(id int, ep *transport.Endpoint) *Cluster {
		return New(Config{
			Topology: build(), Seed: 3, Verify: true,
			HbEvery: time.Millisecond, Transport: ep, LocalNodes: []int{id},
			Events: testSink(&log, nil),
		})
	}
	root, leaf := mk(0, epRoot), mk(1, epLeaf)

	feedOne(root, e, 0, 0, 1)
	feedOne(leaf, e, 1, 0, 1)
	waitCond(t, "first detection", func() bool { return log.rootSpan(2) == 1 })

	// Replay the delivered report twice — a transport redelivering after a
	// reconnect — plus one frame of garbage.
	tapMu.Lock()
	dup := reportFrame
	tapMu.Unlock()
	if dup == nil {
		t.Fatal("tap never saw a report frame")
	}
	epRoot.Inject(0, dup)
	epRoot.Inject(0, dup)
	epRoot.Inject(0, []byte{0xFF, 0x01, 0x02})
	waitCond(t, "duplicates absorbed", func() bool { return root.Metrics()[0].Duplicates >= 2 })
	waitCond(t, "corrupt frame counted", func() bool { return root.Metrics()[0].BadFrames == 1 })

	feedOne(root, e, 0, 1, rounds)
	feedOne(leaf, e, 1, 1, rounds)
	waitCond(t, "remaining detections", func() bool { return log.rootSpan(2) == rounds })
	time.Sleep(10 * time.Millisecond)

	root.Close()
	leaf.Close()
	dets := append(root.Detections(), leaf.Detections()...)
	soundRoots(t, dets)
	if got := spanCount(dets, 2); got != rounds {
		t.Errorf("root detections = %d, want %d (redelivery must not re-deliver)", got, rounds)
	}
}

// TestDistributedReportSpanOutsideSystem: a peer whose well-formed reports
// name a process id past the system (span [N+5]) must not crash the receiver.
// The detector compares on spans, and such an id would index a clock out of
// range; the comparison falls back to the full scan, so every root detection
// is still found, under Strict.
func TestDistributedReportSpanOutsideSystem(t *testing.T) {
	const rounds, n = 4, 2
	build := func() *tree.Topology { return tree.Chain(n) }
	e := workload.Generate(workload.Config{Topology: build(), Rounds: rounds, Seed: 9, PGlobal: 1})

	net := transport.NewNetwork()
	epRoot := net.Endpoint(0)
	epLeaf := net.Endpoint(1)

	// Every report the leaf sends reaches the root re-encoded with the bad id.
	var mu sync.Mutex
	rewritten := 0
	epLeaf.Drop = func(to int, frame []byte) bool {
		k, err := wire.FrameKind(frame)
		if err != nil || (k != wire.KindReport && k != wire.KindReportBatch) {
			return false
		}
		var out []byte
		if k == wire.KindReport {
			r, err := wire.DecodeReport(frame)
			if err != nil {
				t.Errorf("leaf report: %v", err)
				return false
			}
			r.Iv.Span = []int{n + 5}
			out = wire.EncodeReportV2(r)
		} else {
			reps, err := wire.DecodeReportBatch(frame)
			if err != nil {
				t.Errorf("leaf report batch: %v", err)
				return false
			}
			for i := range reps {
				reps[i].Iv.Span = []int{n + 5}
			}
			out = wire.AppendReportBatch(nil, reps)
		}
		mu.Lock()
		rewritten++
		mu.Unlock()
		epRoot.Inject(to, out)
		return true
	}

	var log detLog
	mk := func(id int, ep *transport.Endpoint) *Cluster {
		return New(Config{
			Topology: build(), Seed: 3, Verify: true,
			HbEvery: time.Millisecond, Transport: ep, LocalNodes: []int{id},
			Events: testSink(&log, nil),
		})
	}
	root, leaf := mk(0, epRoot), mk(1, epLeaf)
	feedOne(root, e, 0, 0, rounds)
	feedOne(leaf, e, 1, 0, rounds)
	waitCond(t, "root detections over the forged reports", func() bool { return log.rootSpan(2) == rounds })

	root.Close()
	leaf.Close()
	dets := append(root.Detections(), leaf.Detections()...)
	if got := spanCount(dets, 2); got != rounds {
		t.Errorf("root detections = %d, want %d", got, rounds)
	}
	mu.Lock()
	defer mu.Unlock()
	if rewritten == 0 {
		t.Error("the leaf sent no report to rewrite")
	}
}

// TestDistributedOverTCP runs the seven-node failover scenario over real
// loopback sockets: seven clusters, each with its own TCP transport, a
// mid-tree victim killed between phases, orphans reattaching over TCP. The
// separate-OS-process variant of this scenario is examples/distributed.
func TestDistributedOverTCP(t *testing.T) {
	const phase1, phase2 = 6, 6
	const victim = 1
	build := func() *tree.Topology { return tree.Balanced(2, 2) }
	e := workload.Generate(workload.Config{Topology: build(), Rounds: phase1 + phase2, Seed: 23, PGlobal: 1})

	// Bind all listeners first, then point every transport at every other:
	// candidates for adoption can be any node, not just tree neighbours.
	trs := make([]*tcptransport.Transport, 7)
	for id := range trs {
		tr, err := tcptransport.New(tcptransport.Config{Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		trs[id] = tr
	}
	for id, tr := range trs {
		tr.SetPeers(func() map[int]string {
			peers := make(map[int]string)
			for other, otr := range trs {
				if other != id {
					peers[other] = otr.Addr()
				}
			}
			return peers
		}())
	}

	var log detLog
	repaired := make(chan int, 8)
	clusters := make(map[int]*Cluster, 7)
	for id := 0; id < 7; id++ {
		clusters[id] = New(Config{
			Topology: build(), Seed: 29, Verify: true,
			HbEvery:      2 * time.Millisecond,
			StartupGrace: 20 * time.Millisecond,
			Transport:    trs[id],
			LocalNodes:   []int{id},
			Events:       testSink(&log, repaired),
		})
	}

	feedRangeMulti(clusters, e, 0, phase1)
	waitCond(t, "phase-1 root detections over TCP", func() bool { return log.rootSpan(7) >= phase1 })

	if orphans := clusters[victim].Kill(victim); orphans != 2 {
		t.Fatalf("Kill(%d) orphans = %d, want 2", victim, orphans)
	}
	awaitRepairs(t, repaired, 2)
	waitCond(t, "parent to drop dead child", func() bool { return clusters[0].Metrics()[0].ChildDrops == 1 })

	feedRangeMulti(clusters, e, phase1, phase1+phase2)
	waitCond(t, "phase-2 root detections over TCP", func() bool { return log.rootSpan(6) >= phase2 })
	time.Sleep(20 * time.Millisecond)

	var dets []Detection
	for id := 0; id < 7; id++ {
		clusters[id].Close()
		dets = append(dets, clusters[id].Detections()...)
	}
	soundRoots(t, dets)
	if got := spanCount(dets, 7); got != phase1 {
		t.Errorf("full-span root detections = %d, want %d", got, phase1)
	}
	if got := spanCount(dets, 6); got != phase2 {
		t.Errorf("survivor root detections = %d, want %d", got, phase2)
	}
}

// TestDistributedBatchWindow: with report coalescing on (AdaptiveFlush, the
// one coalescing policy; the test's name is older than that), child→parent
// traffic crosses the transport as KindReportBatch frames — and detection
// output is unchanged. The tap on every endpoint proves batch frames
// actually traveled.
func TestDistributedBatchWindow(t *testing.T) {
	const rounds = 10
	build := func() *tree.Topology { return tree.Balanced(2, 2) }
	e := workload.Generate(workload.Config{Topology: build(), Rounds: rounds, Seed: 17, PGlobal: 1})

	net := transport.NewNetwork()
	var tapMu sync.Mutex
	batchFrames := 0
	var log detLog
	clusters := make(map[int]*Cluster, 7)
	for id := 0; id < 7; id++ {
		ep := net.Endpoint(id)
		ep.Drop = func(to int, frame []byte) bool {
			if k, err := wire.FrameKind(frame); err == nil && k == wire.KindReportBatch {
				tapMu.Lock()
				batchFrames++
				tapMu.Unlock()
			}
			return false
		}
		clusters[id] = New(Config{
			Topology: build(), Seed: 13, Verify: true,
			HbEvery:       time.Millisecond,
			StartupGrace:  5 * time.Millisecond,
			AdaptiveFlush: true,
			Transport:     ep,
			LocalNodes:    []int{id},
			Events:        testSink(&log, nil),
		})
	}

	feedRangeMulti(clusters, e, 0, rounds)
	waitCond(t, "root detections with batched wire frames", func() bool { return log.rootSpan(7) >= rounds })
	time.Sleep(20 * time.Millisecond) // settle: surplus detections would be a bug

	var dets []Detection
	for id := 0; id < 7; id++ {
		clusters[id].Close()
		dets = append(dets, clusters[id].Detections()...)
	}
	soundRoots(t, dets)
	if got := spanCount(dets, 7); got != rounds {
		t.Errorf("root detections = %d, want %d", got, rounds)
	}
	tapMu.Lock()
	defer tapMu.Unlock()
	if batchFrames == 0 {
		t.Error("no KindReportBatch frames on the wire; coalescing never engaged")
	}
	bad := 0
	for id, c := range clusters {
		bad += c.Metrics()[id].BadFrames
	}
	if bad != 0 {
		t.Errorf("bad frames = %d, want 0", bad)
	}
}
