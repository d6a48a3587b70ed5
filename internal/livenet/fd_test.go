package livenet

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hierdet/internal/obsv"
	"hierdet/internal/transport"
	"hierdet/internal/tree"
	"hierdet/internal/wire"
	"hierdet/internal/workload"
)

// settled reports whether the node has ticked and would wait no more than two
// and a quarter beats before suspecting a neighbour: its links have earned
// their way down from the eight-beat start.
func settled(ln *liveNode) bool {
	t := ln.m.fdTimeout.Load()
	return t > 0 && t <= int64(ln.c.cfg.HbEvery)*9/4
}

// suspicion is one NodeSuspected event, when the sink saw it and, when the
// sink knows the cluster, the timeout the suspected link had earned: the
// silence the suspecting node waited out.
type suspicion struct {
	node, peer int
	at         time.Time
	timeout    time.Duration
}

// suspicions collects the NodeSuspected events of one or more clusters.
type suspicions struct {
	n    atomic.Int64
	seen chan suspicion // room for more than any test here expects
	// c, once set, is the cluster whose links each suspicion reads. The sink
	// runs on the suspecting node's worker before the link is dropped, so it
	// may read the link.
	c atomic.Pointer[Cluster]
}

func newSuspicions() *suspicions { return &suspicions{seen: make(chan suspicion, 256)} }

func (s *suspicions) sink(e obsv.Event) {
	if e.Kind == obsv.NodeSuspected {
		s.n.Add(1)
		sus := suspicion{node: e.Node, peer: e.Peer, at: time.Now()}
		if c := s.c.Load(); c != nil {
			if w := c.nodes[e.Node].watched.Of(e.Peer); w != nil {
				sus.timeout = time.Duration(w.Timeout())
			}
		}
		select {
		case s.seen <- sus:
		default: // a test that provokes hundreds has failed already; do not block a worker
		}
	}
}

// TestKillSuspectedWithinThreeBeats: on settled links a crash is noticed when
// its silence has lasted what the link earned, about two beats — the victim's
// last beat is at most one beat old when it dies, and the deadline has its
// own one-shot, so no kill waits longer than three beats plus a tick (a beat
// of slack). (The fixed timeout this replaces took eight.)
//
// Two kinds of kill measure the box rather than that claim, and are left out
// of it, each one logged. A kill during which the checker was itself held up
// (its pause counter moved) is not timed at all. A kill over the bound whose
// link was no longer settled when it was suspected — the box held the
// victim's last beats up, and the link rightly learned to wait longer — is
// held to what the link had earned instead: that timeout plus the same 1.75
// beats the bound allows a settled link's 2.25. Every other kill counts,
// settled or not. Each kill reads its own verdict, carried with its
// suspicion. More than two kills left out fails the test: a detector that
// learns timeouts too long leaves out most of them.
func TestKillSuspectedWithinThreeBeats(t *testing.T) {
	const every = 5 * time.Millisecond
	sus := newSuspicions()
	c := New(Config{Topology: tree.Balanced(2, 5), HbEvery: every, Events: sus.sink})
	defer c.Close()
	sus.c.Store(c)
	var worst time.Duration
	counted, leftOut := 0, 0
	for victim := 31; victim < 63 && counted < 20; victim++ { // leaves: one suspicion each, the parent's
		parent := c.nodes[(victim-1)/2]
		waitCond(t, "the parent's links to settle", func() bool { return settled(parent) })
		pauses, killed := parent.m.fdPauses.Load(), time.Now()
		c.Kill(victim)
		var s suspicion
		select {
		case s = <-sus.seen:
		case <-time.After(10 * time.Second):
			t.Fatalf("Kill(%d) never suspected", victim)
		}
		if s.peer != victim || s.node != parent.id {
			t.Fatalf("after Kill(%d): node %d suspects %d, want its parent %d to", victim, s.node, s.peer, parent.id)
		}
		took := s.at.Sub(killed)
		switch {
		case parent.m.fdPauses.Load() != pauses:
			leftOut++
			t.Logf("Kill(%d): the parent was held up meanwhile (suspected after %v); left out", victim, took)
		case took > 3*every+every && s.timeout > every*9/4:
			leftOut++
			t.Logf("Kill(%d) suspected after %v, over 3 beats + 1 tick, on a link that had learned %v; left out, held to that",
				victim, took, s.timeout)
			if took > s.timeout+every*7/4 {
				t.Errorf("Kill(%d) suspected after %v, want within the %v its link had learned + 1.75 beats",
					victim, took, s.timeout)
			}
		default:
			counted++
			worst = max(worst, took)
			if took > 3*every+every {
				t.Errorf("Kill(%d) suspected after %v, want within 3 beats + 1 tick (%v)", victim, took, 4*every)
			}
		}
		if leftOut > 2 {
			t.Fatalf("%d kills left out by Kill(%d), want at most 2: the box is too busy to time anything, or links learn too long", leftOut, victim)
		}
	}
	if counted < 20 {
		t.Fatalf("only %d of 32 kills counted", counted)
	}
	t.Logf("slowest of 20 kills suspected after %v (%.2f beats); %d left out", worst, float64(worst)/float64(every), leftOut)
}

// TestHealthyIdleClusterArmsNoDeadlineChecks: a deadline one-shot is armed
// only once a beat is overdue, so over 100 beats of a healthy idle p=127
// cluster nothing is inserted into the wheel at all — the 127 recurring ticks
// re-arm in place.
func TestHealthyIdleClusterArmsNoDeadlineChecks(t *testing.T) {
	const every = 5 * time.Millisecond
	c := New(Config{Topology: tree.Balanced(2, 6), HbEvery: every})
	defer c.Close()
	inserts := func() int64 {
		c.sched.wheel.mu.Lock()
		defer c.sched.wheel.mu.Unlock()
		return c.sched.wheel.inserts
	}
	if got := inserts(); got != 127 {
		t.Fatalf("%d wheel inserts after New, want the 127 ticks", got)
	}
	time.Sleep(100 * every)
	if got := inserts(); got != 127 {
		t.Errorf("%d deadline one-shots armed over 100 healthy idle beats, want 0", got-127)
	}
}

// TestTickAllocatesNothing: the failure detector's tick reads its cached
// watch list and the neighbours' beacons, and nothing else.
func TestTickAllocatesNothing(t *testing.T) {
	// Ticks an hour apart: the wheel fires none during the test, so calling
	// heartbeat from here races with no worker. The beacons are published as
	// the wheel would have, one period apart, so every check takes a sample.
	const every = time.Hour
	c := New(Config{Topology: tree.Balanced(2, 6), HbEvery: every})
	defer c.Close()
	ids := c.NodeIDs()
	beat := int64(0)
	allocs := testing.AllocsPerRun(50, func() {
		beat += int64(every)
		for _, id := range ids {
			c.nodes[id].beat.Store(beat)
		}
		for _, id := range ids {
			c.nodes[id].heartbeat(c.now())
		}
	})
	if allocs != 0 {
		t.Errorf("one tick of all 127 nodes allocates %v times, want 0", allocs)
	}
}

// hbFaults wraps a Transport and decides the fate of every heartbeat frame
// sent through it — told apart from data by wire.FrameKind — leaving every
// other frame alone. The fabric itself has no fault injection.
type hbFaults struct {
	transport.Transport
	// fate returns whether to drop the beat and, if not, how long to hold it.
	fate    func() (drop bool, delay time.Duration)
	pending sync.WaitGroup // held beats not yet sent on
}

func (f *hbFaults) Send(to int, frame []byte) {
	if kind, err := wire.FrameKind(frame); err != nil || kind != wire.KindHeartbeat {
		f.Transport.Send(to, frame)
		return
	}
	drop, delay := f.fate()
	if drop {
		return
	}
	held := append([]byte(nil), frame...) // Send may not keep frame
	f.pending.Add(1)
	time.AfterFunc(delay, func() {
		defer f.pending.Done()
		f.Transport.Send(to, held)
	})
}

func (f *hbFaults) Close() error {
	f.pending.Wait()
	return f.Transport.Close()
}

// watcherAndPeers builds a two-participant deployment over the in-process
// network: the watcher hosts the root of a star and reports what it suspects
// into sus; the other participant hosts the leaves behind faults and, with a
// startup grace that never ends, keeps beating whatever it sees.
func watcherAndPeers(leaves int, every time.Duration, sus *suspicions, fate func() (bool, time.Duration)) (watcher, peers *Cluster) {
	topo := tree.Star(leaves + 1)
	net := transport.NewNetwork()
	local := make([]int, leaves)
	for i := range local {
		local[i] = i + 1
	}
	watcher = New(Config{Topology: topo.Clone(), HbEvery: every, StartupGrace: time.Nanosecond,
		Transport: net.Endpoint(0), LocalNodes: []int{0}, Events: sus.sink})
	peers = New(Config{Topology: topo.Clone(), HbEvery: every, StartupGrace: time.Hour,
		Transport: &hbFaults{Transport: net.Endpoint(local...), fate: fate}, LocalNodes: local})
	return watcher, peers
}

// TestDataCountsAsLiveness: a child whose beats never arrive is not suspected
// while its reports do — anything a neighbour sends shows it alive — and is
// suspected once they stop, which is what shows the beats were really
// withheld. Only beats feed the estimate, so the link is still at its
// eight-beat start when the data stops.
func TestDataCountsAsLiveness(t *testing.T) {
	const every = 5 * time.Millisecond
	sus := newSuspicions()
	watcher, peers := watcherAndPeers(1, every, sus, func() (bool, time.Duration) { return true, 0 })
	defer watcher.Close()
	defer peers.Close()
	const rounds = 60 // one report every 2 ms for 24 beats: three fresh timeouts
	e := workload.Generate(workload.Config{Topology: tree.Star(2), Rounds: rounds, Seed: 3, PGlobal: 1})
	for k := 0; k < rounds; k++ {
		peers.Observe(1, e.Streams[1][k])
		time.Sleep(2 * time.Millisecond)
	}
	if n := sus.n.Load(); n != 0 {
		t.Fatalf("%d suspicions while the child's reports were flowing, want 0", n)
	}
	if got := watcher.Metrics()[0].Heartbeats; got != 0 {
		t.Fatalf("the watcher handled %d heartbeats: the faults withheld nothing", got)
	}
	select {
	case s := <-sus.seen:
		if s.node != 0 || s.peer != 1 {
			t.Fatalf("node %d suspects %d, want 0 suspecting 1", s.node, s.peer)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a child with neither beats nor data was never suspected")
	}
}

// TestLocalPauseIsNotSilence: a node whose worker was held up for ten times
// its links' timeout comes back to a mailbox in which its own overdue tick
// may stand ahead of the beats that arrived meanwhile. It suspects nobody:
// the tick is late by more than any link's slack, so the silence counts as
// the node's own, the count restarts, and the pause counter says so.
func TestLocalPauseIsNotSilence(t *testing.T) {
	const every = 2 * time.Millisecond
	sus := newSuspicions()
	var stall atomic.Int64 // ns the watcher's worker is to be held at its next observation
	hold := func(e obsv.Event) {
		if e.Kind == obsv.IntervalObserved {
			time.Sleep(time.Duration(stall.Swap(0))) // the fault under test, not a wait for anything
		}
		sus.sink(e)
	}
	topo := tree.Star(9)
	net := transport.NewNetwork()
	leaves := []int{1, 2, 3, 4, 5, 6, 7, 8}
	watcher := New(Config{Topology: topo.Clone(), HbEvery: every, StartupGrace: time.Nanosecond,
		Transport: net.Endpoint(0), LocalNodes: []int{0}, Events: hold})
	defer watcher.Close()
	peers := New(Config{Topology: topo.Clone(), HbEvery: every, StartupGrace: time.Hour,
		Transport: net.Endpoint(leaves...), LocalNodes: leaves})
	defer peers.Close()
	root := watcher.nodes[0]
	waitCond(t, "20 beats from each of eight children", func() bool { return root.m.heartbeats.Load() >= 8*20 })

	e := workload.Generate(workload.Config{Topology: topo, Rounds: 1, Seed: 3, PGlobal: 1})
	pausesBefore, beatsBefore := root.m.fdPauses.Load(), root.m.heartbeats.Load()
	stall.Store(10 * root.m.fdTimeout.Load())
	watcher.Observe(0, e.Streams[0][0])
	waitCond(t, "the pause to be counted", func() bool { return root.m.fdPauses.Load() > pausesBefore })
	// Well past the backlog: every queued tick has had its chance to suspect.
	waitCond(t, "the watcher to work off its backlog", func() bool { return root.m.heartbeats.Load() > beatsBefore+8*100 })
	if n := sus.n.Load(); n != 0 {
		s := <-sus.seen
		t.Fatalf("%d suspicions after a local pause (first: node %d suspects %d), want 0", n, s.node, s.peer)
	}
}

// TestJitteryLinkIsNotSuspected: every beat toward the watcher is held for a
// random time up to one beat, so inter-arrival swings a whole beat either way
// around its mean. The links learn it — the deviation term stretches their
// timeouts — and over 500 beats nobody is suspected.
func TestJitteryLinkIsNotSuspected(t *testing.T) {
	const every = 5 * time.Millisecond
	sus := newSuspicions()
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(7))
	watcher, peers := watcherAndPeers(2, every, sus, func() (bool, time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		return false, time.Duration(rng.Int63n(int64(every)))
	})
	defer watcher.Close()
	defer peers.Close()
	root := watcher.nodes[0]
	waitCond(t, "500 beats from each of two children", func() bool { return root.m.heartbeats.Load() >= 1000 })
	if n := sus.n.Load(); n != 0 {
		t.Fatalf("%d suspicions over 500 jittery beats, want 0", n)
	}
}
