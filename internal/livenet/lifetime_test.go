package livenet

import (
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"hierdet/internal/core"
	"hierdet/internal/interval"
	"hierdet/internal/obsv"
	"hierdet/internal/transport/tcptransport"
	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// A solution set refers to its members where they are stored — a child's
// detection record, a worker region's copy of a local interval, a receive
// slab's copy of a decoded report — and nothing that is reused may be one of
// those places: not a queue ring's slot, a report batch, the ingest staging,
// a decode buffer. The tests below copy every detection, clocks and spans
// included, the moment the detector returns it, keep the cluster busy for
// thousands of intervals more, and compare what Detections() returns at the
// end with the copies.

// lifetimeRounds is enough mixed rounds that the root of a p=7 tree ingests
// more than 10 000 intervals after its first detection (it gets about 2.4 a
// round: its own and each child's detections).
const lifetimeRounds = 4400

// copySink returns an Events sink adding a deep copy of every detection, as
// the detector returned it, to log.
func copySink(log *detLog) func(obsv.Event) {
	return func(e obsv.Event) {
		if e.Kind == obsv.SolutionFound {
			log.add(Detection{Node: e.Node, AtRoot: e.AtRoot, Det: &core.Detection{
				Node: e.Node, Set: cloneSet(e.Set), Agg: cloneInterval(e.Agg)}})
		}
	}
}

// cloneInterval copies x's clocks and span into storage of their own.
func cloneInterval(x interval.Interval) interval.Interval {
	x.Lo, x.Hi, x.Span = slices.Clone(x.Lo), slices.Clone(x.Hi), slices.Clone(x.Span)
	return x
}

func cloneSet(set []*interval.Interval) []*interval.Interval {
	out := make([]*interval.Interval, len(set))
	for i, x := range set {
		c := cloneInterval(*x)
		out[i] = &c
	}
	return out
}

// mixedRounds is an execution whose rounds reach the root, a subtree or a
// random subset, so queues hold backlogs that elimination clears.
func mixedRounds(topo *tree.Topology, rounds int, seed int64) *workload.Execution {
	return workload.Generate(workload.Config{Topology: topo, Rounds: rounds, Seed: seed,
		PGlobal: .5, PGroup: .3, PSubset: .2})
}

// expectedAll is how many detections a failure-free run of e finds in all:
// every node detects each occurrence over its subtree.
func expectedAll(topo *tree.Topology, e *workload.Execution) int {
	n := 0
	for v := 0; v < topo.N(); v++ {
		n += e.ExpectedDetections(topo.Subtree(v))
	}
	return n
}

// sameAsCopied fails unless got — one deployment's detections — deep-equals
// the copies its sink took, in the stable (node, seq) order.
func sameAsCopied(t *testing.T, what string, got []Detection, copies *detLog) {
	t.Helper()
	want := stableByNodeSeq(copies.all())
	if len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Detections() differs from the copies taken as the detector returned them (%d vs %d entries)", what, len(got), len(want))
	}
}

// TestSetsOutliveRecycledStorage runs 16 tenants of p=3 on a 4-worker
// substrate for 3 400 mixed rounds, reports coalesced per drain: every root
// gets three intervals a round, so it ingests over 10 000 after its first
// detection, its queue rings wrap hundreds of times, and report batches and
// the ingest staging recycle on every drain. Every detection must still read
// as it did when found.
func TestSetsOutliveRecycledStorage(t *testing.T) {
	const tenants, workers = 16, 4
	topo := tree.Balanced(2, 1)
	sched := NewSharedScheduler(SharedSchedulerConfig{Workers: workers})
	defer sched.Close()
	e := mixedRounds(topo, 3400, 1)
	copies := make([]detLog, tenants)
	clusters := make([]*Cluster, tenants)
	for i := range clusters {
		clusters[i] = New(Config{Topology: topo.Clone(), Seed: int64(i + 1), AdaptiveFlush: true,
			Scheduler: sched, Events: copySink(&copies[i])})
	}
	var wg sync.WaitGroup
	for _, c := range clusters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range e.Rounds {
				for p := range e.Streams {
					c.Observe(p, e.Streams[p][r])
				}
			}
			c.Drain()
		}()
	}
	wg.Wait()
	for i, c := range clusters {
		root := topo.Roots()[0]
		if in := c.MetricsByNode()[root].IntervalsIn; in <= 10000 {
			t.Fatalf("tenant %d: root ingested %d intervals, not the run this test needs", i, in)
		}
		c.Close()
		if got, want := len(c.Detections()), expectedAll(topo, e); got != want {
			t.Fatalf("tenant %d: %d detections, ground truth %d", i, got, want)
		}
		sameAsCopied(t, "tenant", c.Detections(), &copies[i])
	}
}

// TestSetsOutliveRecycledStorageOverTCP is the same over loopback TCP: the
// p=7 tree split by depth parity between two clusters, so every report is
// decoded out of a connection reader's reused buffer into a pooled batch,
// its clocks and its interval carved from pooled receive slabs.
func TestSetsOutliveRecycledStorageOverTCP(t *testing.T) {
	topo := tree.Balanced(2, 2)
	e := mixedRounds(topo, lifetimeRounds, 7)
	var local [2][]int
	host := make([]int, topo.N())
	for v := range host {
		for p := topo.Parent(v); p != tree.None; p = topo.Parent(p) {
			host[v] ^= 1
		}
		local[host[v]] = append(local[host[v]], v)
	}
	var trs [2]*tcptransport.Transport
	for i := range trs {
		tr, err := tcptransport.New(tcptransport.Config{Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
	}
	for i, tr := range trs {
		peers := make(map[int]string)
		for _, v := range local[1-i] {
			peers[v] = trs[1-i].Addr()
		}
		tr.SetPeers(peers)
	}
	var copies detLog
	var cs [2]*Cluster
	for i := range cs {
		sched := NewSharedScheduler(SharedSchedulerConfig{Workers: 4})
		defer sched.Close()
		cs[i] = New(Config{Topology: topo.Clone(), Seed: int64(i + 1), AdaptiveFlush: true, Scheduler: sched,
			Transport: trs[i], LocalNodes: local[i], Events: copySink(&copies)})
	}
	for r := range e.Rounds {
		for p := range e.Streams {
			cs[host[p]].Observe(p, e.Streams[p][r])
		}
	}
	// Close does not see frames inside a connection: wait for every
	// detection the execution holds.
	want := expectedAll(topo, e)
	for deadline := time.Now().Add(30 * time.Second); len(copies.all()) < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d detections after 30 s", len(copies.all()), want)
		}
	}
	if in := cs[host[0]].MetricsByNode()[0].IntervalsIn; in <= 10000 {
		t.Fatalf("root ingested %d intervals, not the run this test needs", in)
	}
	var got []Detection
	for _, c := range cs {
		c.Close()
		got = append(got, c.Detections()...)
	}
	sameAsCopied(t, "split deployment", stableByNodeSeq(got), &copies)
}

// TestSetsOutliveRepair kills a mid-tree node of a p=15 cluster with backlogs
// on its queues: its parent drops the queue (RemoveChild), the orphans are
// adopted (a new queue each, fed from a new epoch: ResetSource), and the
// cluster runs on. Sets published before, during and after must read as they
// did when found.
func TestSetsOutliveRepair(t *testing.T) {
	const phase1, phase2, victim = 200, 200, 1
	topo := tree.Balanced(2, 3)
	e := mixedRounds(topo, phase1+phase2, 6)
	repaired := make(chan int, 8)
	var copies detLog
	sink := copySink(&copies)
	sched := NewSharedScheduler(SharedSchedulerConfig{Workers: 4})
	defer sched.Close()
	c := New(Config{
		Topology: topo, Seed: 11, AdaptiveFlush: true, Scheduler: sched,
		HbEvery: 300 * time.Microsecond, ResendLastOnAdopt: true,
		Events: func(e obsv.Event) {
			sink(e)
			if e.Kind == obsv.RepairConcluded {
				repaired <- e.Node
			}
		},
	})
	feedRange(c, e, 0, phase1)
	awaitRepairs(t, repaired, c.Kill(victim))
	feedRange(c, e, phase1, phase1+phase2)
	c.Close()
	if len(c.Repairs()) == 0 {
		t.Fatal("no repair concluded: the schedule did not happen")
	}
	sameAsCopied(t, "repaired cluster", c.Detections(), &copies)
}
