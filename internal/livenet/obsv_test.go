package livenet

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"hierdet/internal/obsv"
	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// eventLog collects a cluster's event stream for post-run assertions. The
// sink runs concurrently (events of different nodes interleave), so every
// access locks.
type eventLog struct {
	mu     sync.Mutex
	events []obsv.Event
}

func (l *eventLog) sink(e obsv.Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *eventLog) ofKind(k obsv.EventKind) []obsv.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []obsv.Event
	for _, e := range l.events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// TestEventsMatchResults runs one failover workload with the Events sink
// installed and checks the stream carries everything the cluster hands back
// at the end: one SolutionFound per entry of Detections, with the same
// node, root flag and aggregate; one RepairConcluded per Repairs entry, with
// the same orphan and adopter.
func TestEventsMatchResults(t *testing.T) {
	const phase1, phase2, victim = 6, 6, 1
	topo := tree.Balanced(2, 2)
	e := workload.Generate(workload.Config{Topology: topo, Rounds: phase1 + phase2, Seed: 8, PGlobal: 1})

	var log eventLog
	repaired := make(chan int, 8)
	repairs := testSink(nil, repaired)
	c := New(Config{
		Topology: topo, Seed: 13, Verify: true,
		HbEvery: 300 * time.Microsecond,
		Events: func(e obsv.Event) {
			log.sink(e)
			repairs(e)
		},
	})
	feedRange(c, e, 0, phase1)
	c.Drain()
	orphans := c.Kill(victim)
	awaitRepairs(t, repaired, orphans)
	c.Drain()
	feedRange(c, e, phase1, phase1+phase2)
	c.Close()
	dets := c.Detections()
	concluded := c.Repairs()

	found := log.ofKind(obsv.SolutionFound)
	if len(found) != len(dets) {
		t.Fatalf("SolutionFound events = %d, detections = %d", len(found), len(dets))
	}
	// Both are appended from the same worker call sites, so they pair up in
	// order for a single-node view; across nodes order can differ, so match
	// as multisets keyed by the full payload.
	type detKey struct {
		node, seq, span int
		atRoot          bool
	}
	count := map[detKey]int{}
	for _, d := range dets {
		count[detKey{d.Node, d.Det.Agg.Seq, len(d.Det.Agg.Span), d.AtRoot}]++
	}
	for _, ev := range found {
		k := detKey{ev.Node, ev.Agg.Seq, len(ev.Agg.Span), ev.AtRoot}
		if count[k] == 0 {
			t.Fatalf("SolutionFound %+v has no matching detection", k)
		}
		count[k]--
		if ev.Seq != ev.Agg.Seq || ev.Count != 1 || ev.Peer != obsv.NoPeer {
			t.Fatalf("SolutionFound payload malformed: %+v", ev)
		}
		if len(ev.Set) == 0 {
			t.Fatal("SolutionFound missing solution set with KeepMembers on")
		}
	}

	reps := log.ofKind(obsv.RepairConcluded)
	if len(reps) != len(concluded) {
		t.Fatalf("RepairConcluded events = %d, Repairs entries = %d", len(reps), len(concluded))
	}
	repCount := map[RepairEvent]int{}
	for _, r := range concluded {
		repCount[r]++
	}
	for _, ev := range reps {
		r := RepairEvent{Orphan: ev.Node, NewParent: ev.Peer}
		if repCount[r] == 0 {
			t.Fatalf("RepairConcluded %+v has no matching Repairs entry", r)
		}
		repCount[r]--
	}
	if len(log.ofKind(obsv.NodeSuspected)) == 0 {
		t.Error("no NodeSuspected events despite a kill")
	}
}

// TestEventStreamPerNodeOrder checks the per-node causal-order guarantee on
// a failure-free run: each node's ReportSent sequence numbers arrive
// strictly ascending from zero (one link, no repair, so any inversion or gap
// would mean the stream reordered one node's events), and the observed and
// solution counts reconcile with the workload.
func TestEventStreamPerNodeOrder(t *testing.T) {
	const rounds = 12
	topo := tree.Balanced(2, 2)
	e := workload.Generate(workload.Config{Topology: topo, Rounds: rounds, Seed: 4, PGlobal: 1})

	var log eventLog
	c := New(Config{Topology: topo, Seed: 9, Verify: true, Events: log.sink})
	feed(c, e, topo)
	c.Close()
	dets := c.Detections()

	nextSeq := map[int]int{}
	for _, ev := range log.ofKind(obsv.ReportSent) {
		if ev.Seq != nextSeq[ev.Node] {
			t.Fatalf("node %d ReportSent seq %d out of order (want %d)", ev.Node, ev.Seq, nextSeq[ev.Node])
		}
		nextSeq[ev.Node] += ev.Count
		if ev.Peer != topo.Parent(ev.Node) {
			t.Fatalf("node %d reported to %d, parent is %d", ev.Node, ev.Peer, topo.Parent(ev.Node))
		}
	}

	observed := 0
	for _, ev := range log.ofKind(obsv.IntervalObserved) {
		observed += ev.Count
	}
	if want := rounds * topo.N(); observed != want {
		t.Errorf("IntervalObserved total = %d, want %d", observed, want)
	}
	if got := len(log.ofKind(obsv.SolutionFound)); got != len(dets) {
		t.Errorf("SolutionFound events = %d, detections = %d", got, len(dets))
	}

	// Every sent report was received: the sums agree once the run drained.
	sent, recv := 0, 0
	for _, ev := range log.ofKind(obsv.ReportSent) {
		sent += ev.Count
	}
	for _, ev := range log.ofKind(obsv.ReportRecv) {
		recv += ev.Count
	}
	if sent != recv {
		t.Errorf("reports sent %d != received %d on a lossless run", sent, recv)
	}
}

// TestMetricsSnapshotsDuringFailover hammers every snapshot surface —
// Metrics, MetricsByNode, ClusterMetrics, the Prometheus exposition — from
// scraper goroutines while the cluster feeds, kills, repairs and stops.
// Run under -race this is the concurrent-scrape guarantee; the final checks
// pin the aggregates to the per-node truth.
func TestMetricsSnapshotsDuringFailover(t *testing.T) {
	const phase1, phase2, victim = 6, 6, 1
	topo := tree.Balanced(2, 2)
	e := workload.Generate(workload.Config{Topology: topo, Rounds: phase1 + phase2, Seed: 21, PGlobal: 1})

	repaired := make(chan int, 8)
	c := New(Config{
		Topology: topo, Seed: 31, Verify: true,
		HbEvery: 300 * time.Microsecond,
		Events:  testSink(nil, repaired),
	})

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 3; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = c.Metrics()
				_ = c.MetricsByNode()
				_ = c.ClusterMetrics()
				var sb strings.Builder
				if err := c.Registry().WritePrometheus(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	feedRange(c, e, 0, phase1)
	c.Drain()
	orphans := c.Kill(victim)
	awaitRepairs(t, repaired, orphans)
	c.Drain()
	feedRange(c, e, phase1, phase1+phase2)
	c.Close()
	dets := c.Detections()
	close(stop)
	scrapers.Wait()

	cm := c.ClusterMetrics()
	if cm.Nodes != topo.N() {
		t.Fatalf("Nodes = %d, want %d", cm.Nodes, topo.N())
	}
	if cm.Detections != int64(len(dets)) {
		t.Errorf("ClusterMetrics.Detections = %d, Detections holds %d", cm.Detections, len(dets))
	}
	if cm.KilledProcesses != 1 || cm.Repairs != int64(orphans) {
		t.Errorf("killed = %d repairs = %d, want 1 and %d", cm.KilledProcesses, cm.Repairs, orphans)
	}
	if cm.PendingCredits != 0 {
		t.Errorf("PendingCredits = %d after Close, want 0", cm.PendingCredits)
	}
	if cm.Events["solution_found"] != int64(len(dets)) {
		t.Errorf("events[solution_found] = %d, want %d", cm.Events["solution_found"], len(dets))
	}
	if cm.IntervalsIn == 0 || cm.MsgsIn == 0 || cm.Drains == 0 {
		t.Errorf("aggregate counters suspiciously zero: %+v", cm)
	}

	// The per-node slice is id-ascending and sums to the aggregate.
	byNode := c.MetricsByNode()
	var sumDet int64
	for i, nm := range byNode {
		if i > 0 && byNode[i-1].ID >= nm.ID {
			t.Fatalf("MetricsByNode not id-ascending: %d then %d", byNode[i-1].ID, nm.ID)
		}
		sumDet += int64(nm.Detections)
	}
	if sumDet != cm.Detections {
		t.Errorf("per-node detections sum %d != aggregate %d", sumDet, cm.Detections)
	}
}

// TestClusterMetricsJSONStable pins the aggregate snapshot's JSON encoding:
// every field appears under its documented key, so dashboards and scripts
// can rely on the document shape.
func TestClusterMetricsJSONStable(t *testing.T) {
	topo := tree.Balanced(2, 1)
	e := workload.Generate(workload.Config{Topology: topo, Rounds: 3, Seed: 2, PGlobal: 1})
	c := New(Config{Topology: topo, Seed: 7})
	feed(c, e, topo)
	c.Close()

	raw, err := json.Marshal(c.ClusterMetrics())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"nodes", "workers", "msgsIn", "msgsOut", "intervalsIn", "detections",
		"pruned", "eliminated", "duplicates", "staleReports", "repairs",
		"childDrops", "heartbeats", "badFrames", "batchFlushes",
		"reseqBuffered", "reseqHighWater", "mailboxDepth", "mailboxHighWater",
		"workersBusy", "runqDepth", "drains", "messagesDrained",
		"wheelEntries", "wheelLagNanos", "pendingCredits", "killedProcesses",
		"events",
	} {
		if _, ok := doc[key]; !ok {
			t.Errorf("ClusterMetrics JSON missing key %q", key)
		}
	}
	events, ok := doc["events"].(map[string]any)
	if !ok {
		t.Fatal("events is not an object")
	}
	for _, k := range obsv.EventKinds() {
		if _, ok := events[k.String()]; !ok {
			t.Errorf("events missing kind %q", k.String())
		}
	}

	// Per-node JSON: the id rides inside the object, all counters tagged.
	nodeRaw, err := json.Marshal(c.MetricsByNode())
	if err != nil {
		t.Fatal(err)
	}
	var nodes []map[string]any
	if err := json.Unmarshal(nodeRaw, &nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != topo.N() {
		t.Fatalf("node snapshots = %d, want %d", len(nodes), topo.N())
	}
	for _, key := range []string{"id", "msgsIn", "intervalsIn", "mailboxDepth", "detections"} {
		if _, ok := nodes[0][key]; !ok {
			t.Errorf("NodeMetrics JSON missing key %q", key)
		}
	}
}

// TestPrometheusExpositionCoversPlanes scrapes one run's registry and checks
// the family names the CI smoke test greps for: the node, scheduler, wheel,
// cluster and event planes all present, with per-node series labelled.
func TestPrometheusExpositionCoversPlanes(t *testing.T) {
	topo := tree.Balanced(2, 2)
	e := workload.Generate(workload.Config{Topology: topo, Rounds: 8, Seed: 3, PGlobal: 1})
	c := New(Config{Topology: topo, Seed: 12, AdaptiveFlush: true})
	feed(c, e, topo)
	c.Close()

	var sb strings.Builder
	if err := c.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE hierdet_node_msgs_in_total counter",
		"# TYPE hierdet_node_intervals_in_total counter",
		"# TYPE hierdet_node_mailbox_depth gauge",
		`hierdet_node_detections_total{node="0"}`,
		"# TYPE hierdet_node_batch_flushes_total counter",
		"# TYPE hierdet_sched_workers gauge",
		"hierdet_sched_drains_total",
		"hierdet_sched_drain_batch_size_bucket",
		"hierdet_wheel_tick_seconds",
		"hierdet_wheel_ticks_total",
		"hierdet_cluster_nodes 7",
		"hierdet_cluster_pending_credits 0",
		`hierdet_events_total{kind="interval_observed"}`,
		`hierdet_events_total{kind="report_sent"}`,
		`hierdet_events_total{kind="solution_found"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
