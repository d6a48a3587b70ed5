// Package livenet runs the hierarchical detector over real concurrency. It
// is the natural Go embedding of the paper's system model — asynchronous
// processes, asynchronous non-FIFO message passing — and complements
// internal/simnet, which trades real concurrency for determinism.
//
// There is one delivery plane. Every node owns a bounded mailbox shard; a
// node with mail takes a place in its cluster's seat on a scheduler substrate
// (SharedScheduler), whose worker pool drains the shards in deficit-round-
// robin order over seats (one worker per node at a time, so detector state
// stays single-writer); and the substrate's single hashed timer wheel carries
// every delayed message, repair timeout and heartbeat tick. A tenant plane
// hands many clusters one substrate (Config.Scheduler); a standalone cluster
// builds a substrate of its own and is its only seat — the path is the same.
// Steady-state goroutine count is the pool plus the wheel, independent of the
// process count and of the number of in-flight messages. Messages on one link
// still genuinely race and arrive out of order (the wheel quantizes each
// message's pseudo-random delay); the same per-link sequence numbers and
// resequencers as the simulated runtime (shared via internal/repair) restore
// queue order at the receiver.
//
// A report leaves for the parent at one of two moments: at once (the paper's
// Algorithm 1 lines 18-22), or, with Config.AdaptiveFlush, at the end of the
// mailbox drain that produced it, together with every other report of that
// drain as one message (one wire frame in distributed mode). Arrivals batch
// symmetrically: runs of in-order reports released together by a resequencer
// feed the detector through core.Node's batch ingestion (OnRefs: the queues
// refer to each aggregate in its sender's detection record), which runs the
// elimination loop once per exposed head rather than once per arrival
// (Algorithm 1 line 2).
//
// With heartbeats enabled (Config.HbEvery > 0) the cluster is fault
// tolerant per the paper's §III-F: Kill crashes a process, its tree
// neighbours detect the silence, the dead node's parent drops the child's
// queue, and each orphan subtree renegotiates a parent over the network
// using the request/grant/confirm/abort protocol of internal/repair — the
// same state machines the deterministic simulator drives, here exercised
// under real races. Orphans that exhaust their candidates continue as
// partition roots, detecting the partial predicate over their own subtree.
//
// Lifecycle is race-clean by construction: a single mutex guards the
// cluster state machine (running → stopping → stopped) and a message-credit
// ledger; every message holds exactly one credit from before it is sent
// until after it is handled, timers take their credit when armed, and Stop
// waits on a condition variable until the ledger drains before leaving the
// substrate. There is no sleep-polling, no unsynchronized flag, and nothing
// left sleeping after Stop returns: the wheel cancels the cluster's remaining
// (uncredited) entries instead of firing them.
//
// With Config.Transport set the cluster becomes one participant of a
// distributed deployment: it hosts only Config.LocalNodes, traffic between
// co-hosted nodes stays in-process, and everything else is wire-encoded
// (internal/wire) and shipped through the transport — the in-process Network
// of internal/transport for deterministic tests, real TCP sockets
// (internal/transport/tcptransport) for separate OS processes. Distributed
// mode has no shared state to lean on, so it runs the same machinery the
// deterministic simulator's distributed-repair mode does: covered sets and
// the root-seeking flag ride on heartbeat messages, suspicion comes from
// heartbeat silence alone, and adoption grants are validated against local
// knowledge only.
package livenet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hierdet/internal/core"
	"hierdet/internal/interval"
	"hierdet/internal/obsv"
	"hierdet/internal/repair"
	"hierdet/internal/transport"
	"hierdet/internal/tree"
	"hierdet/internal/vclock"
	"hierdet/internal/wire"
)

// Config parameterizes a cluster.
type Config struct {
	// Topology is the spanning tree; one detector node runs per alive node.
	Topology *tree.Topology
	// MaxDelay bounds the random per-message delivery delay (default 200µs;
	// larger values force more reordering). The timer wheel rounds delays up
	// to its tick (MaxDelay/8, clamped to [20µs, 1ms]) and, where the
	// platform gives it a sub-millisecond sleep (Linux), delivers on that
	// tick even when the process is otherwise idle; elsewhere an idle
	// process wakes on whole milliseconds and delivers the ticks it missed
	// in a burst. Delays from 32 ticks up — timers, not messages — are
	// rounded up further, by at most an eighth and 1 ms (see wheel.go).
	MaxDelay time.Duration
	// Seed drives the delay distribution.
	Seed int64
	// Strict and KeepMembers configure the detector nodes (see core.Config).
	Strict, KeepMembers bool

	// Workers sizes the pool that drains the mailbox shards. Zero means
	// GOMAXPROCS.
	Workers int
	// MailboxBound caps each node's mailbox shard for external producers:
	// Observe and ObserveBatch block while the destination shard is at the
	// bound, pushing back on the workload. Internal cascade traffic is not
	// bounded (a blocked worker could deadlock the pool). Zero means 4096.
	MailboxBound int
	// AdaptiveFlush coalesces reports per worker drain: reports a node emits
	// while its worker drains one mailbox swap leave as a single message at
	// the end of that drain. The coalescing unit is the actual burst — a
	// detection cascade triggered by one batch of deliveries flushes as one
	// frame with zero added latency, while an isolated report still leaves
	// within its own drain — so the policy adapts to load. Off, every report
	// is sent the moment it is produced, the paper's per-detection behaviour.
	AdaptiveFlush bool

	// Scheduler seats the cluster on a scheduler substrate the caller owns
	// (see NewSharedScheduler) next to any number of other clusters: the
	// substrate's worker pool drains the mailbox shards, running each node's
	// detection on the worker that drains it, its timer wheel carries the
	// delayed messages and heartbeat ticks and its workers' regions keep what
	// detections publish. Workers is then ignored (the substrate's pool is
	// sized once, at its creation); MailboxBound still applies per cluster.
	// Nil (the default) gives the cluster a substrate of its own — Workers and
	// a wheel tick of MaxDelay/8 — which it closes when it stops.
	Scheduler *SharedScheduler

	// HbEvery enables failure handling and is its one setting: how often every
	// node beats and checks its tree neighbours. The silence that makes a
	// neighbour a suspect is learned per link from the beats seen on it
	// (repair.Link): eight beats at first, about two once steady, more when
	// jittery, and never under eight for a peer another participant hosts.
	// Zero (the default) disables failure handling; Kill then panics.
	HbEvery time.Duration
	// SeekTimeout is how long an orphan root waits for each candidate's
	// grant before moving on. A willing candidate answers in two message
	// delays, so the timeout only gates the failure paths (dead or refusing
	// candidates) — but it must absorb real scheduler and timer jitter, or
	// grants go stale and live candidates are skipped (in the worst case the
	// orphan wrongly declares itself partitioned). Default
	// max(10ms, 4×MaxDelay, 2×HbEvery).
	SeekTimeout time.Duration
	// ResendLastOnAdopt re-reports the subtree's most recent aggregate to a
	// newly adopted parent (paper §III-B / Figure 2(c)): reports in flight
	// to the dead parent are lost, but the latest solution the subtree
	// found is not.
	ResendLastOnAdopt bool

	// Events, when set, receives the cluster's full lifecycle stream —
	// every interval observed, report sent and received, solution found,
	// interval pruned, node suspected, repair concluded and transport
	// redial (see obsv.EventKind). Every detection arrives as a
	// SolutionFound event as it is recorded — the streaming complement of
	// Stop's batch return — and every concluded repair as a RepairConcluded
	// event (Peer is the adopting node, or tree.None when the orphan
	// exhausted its candidates and continues as a partition root). Events
	// for one node are delivered in that node's causal order; events of
	// different nodes interleave, so the sink must be safe for concurrent
	// calls. It runs on runtime goroutines, off the cluster's locks (Metrics
	// and Repairs may be called from it): keep it quick and never call Stop
	// from it.
	Events func(obsv.Event)

	// Transport switches the cluster to distributed mode: it hosts only
	// LocalNodes, and messages to every other topology node are wire-encoded
	// and shipped through the transport (see the package comment). The
	// cluster starts the transport in New and closes it in Stop.
	Transport transport.Transport
	// LocalNodes is the subset of topology nodes this cluster hosts
	// (distributed mode only; default: every alive node, i.e. a
	// single-participant deployment).
	LocalNodes []int
	// StartupGrace suppresses heartbeat-silence suspicion for this long
	// after New: in a multi-process deployment the participants do not start
	// simultaneously, and without a grace window the early ones would
	// "repair around" peers that merely have not launched yet. Default
	// 16×HbEvery in distributed mode, unused otherwise.
	StartupGrace time.Duration
}

// Detection is one predicate satisfaction observed by the live cluster. Det
// points at the one copy of the detector's record the cluster keeps (carved
// from the finding worker's region); it lives as long as the entry does.
type Detection struct {
	Node   int
	AtRoot bool
	Det    *core.Detection
}

// RepairEvent records one concluded reattachment. NewParent is tree.None
// when the orphan became a partition root.
type RepairEvent struct {
	Orphan    int
	NewParent int
}

// clusterState is the lifecycle phase, guarded by Cluster.mu.
type clusterState int

const (
	clusterRunning clusterState = iota
	clusterStopping
	clusterStopped
)

// Cluster is a running set of detector nodes. Create with New, feed local
// intervals with Observe or ObserveBatch, optionally crash processes with
// Kill, then Close it (or Shutdown, under a deadline) and read every
// detection with Detections.
type Cluster struct {
	cfg   Config
	nodes map[int]*liveNode
	bound int // mailbox bound for external producers
	// sched is the substrate this cluster runs on — the caller's
	// (Config.Scheduler) or, that being nil, one New built for this cluster
	// alone and teardown closes — and seat the cluster's DRR run-queue
	// client on it. halted mirrors state == clusterStopped (set with it,
	// under mu; the state is terminal) for the paths that must not take mu
	// to ask: the wheel stops re-arming this cluster's recurring ticks, and
	// drains drop what is left of them.
	sched   *SharedScheduler
	seat    *schedClient
	halted  atomic.Bool
	remote  bool      // distributed mode: Transport is set
	startAt time.Time // zero of the failure detector's clock (now)
	// rx holds the *rxSlabs received reports are decoded into: a pool, not
	// one, because slabs are single-goroutine and the transport's receive
	// callback runs on one goroutine per inbound connection.
	rx sync.Pool

	// Observability plane: the metrics registry every family registers
	// into, the per-kind event counters (index = obsv.EventKind), and the
	// scheduler-pool instruments (see registerFamilies).
	reg         *obsv.Registry
	evCounts    [obsv.NumEventKinds]*obsv.Counter
	busyWorkers atomic.Int64
	drains      atomic.Int64
	drained     atomic.Int64
	drainHist   *obsv.Histogram
	latHist     *obsv.Histogram // observe→SolutionFound latency

	// mu guards everything below: the lifecycle state machine, the
	// message-credit ledger (pending, see post/armTimer/done), the topology
	// mirror the repair protocol validates against, and the collected
	// results. cond signals pending reaching zero. Detections are not here
	// while the cluster runs: each node logs its own (liveNode.log).
	mu      sync.Mutex
	cond    *sync.Cond
	state   clusterState
	pending int
	topo    *tree.Topology
	killed  map[int]bool
	seeking map[int]bool // orphan roots currently renegotiating a parent
	reqSeq  int
	final   []Detection // set once by teardown; read by Detections
	repairs []RepairEvent
}

// New builds and starts a cluster over the alive nodes of the topology.
func New(cfg Config) *Cluster {
	if cfg.Topology == nil {
		panic("livenet: Topology is required")
	}
	if cfg.MaxDelay == 0 {
		cfg.MaxDelay = 200 * time.Microsecond
	}
	if cfg.SeekTimeout == 0 {
		cfg.SeekTimeout = 10 * time.Millisecond
		if 4*cfg.MaxDelay > cfg.SeekTimeout {
			cfg.SeekTimeout = 4 * cfg.MaxDelay
		}
		if 2*cfg.HbEvery > cfg.SeekTimeout {
			cfg.SeekTimeout = 2 * cfg.HbEvery
		}
	}
	if cfg.Transport != nil && cfg.StartupGrace == 0 {
		cfg.StartupGrace = 16 * cfg.HbEvery
	}
	if cfg.MailboxBound <= 0 {
		cfg.MailboxBound = 4096
	}
	hosted := cfg.Topology.AliveNodes()
	if cfg.Transport != nil && len(cfg.LocalNodes) > 0 {
		hosted = cfg.LocalNodes
	}
	// Checked before anything is started, so the panic leaves nothing running.
	for _, id := range hosted {
		if !cfg.Topology.Alive(id) {
			panic(fmt.Sprintf("livenet: LocalNodes lists dead or unknown node %d", id))
		}
	}
	sched := cfg.Scheduler
	if sched == nil {
		sched = NewSharedScheduler(SharedSchedulerConfig{
			Workers: cfg.Workers, Tick: cfg.MaxDelay / 8,
		})
	}
	c := &Cluster{
		cfg:     cfg,
		remote:  cfg.Transport != nil,
		startAt: time.Now(),
		topo:    cfg.Topology,
		bound:   cfg.MailboxBound,
		sched:   sched,
		seat:    sched.register(),
		nodes:   make(map[int]*liveNode),
		killed:  make(map[int]bool),
		seeking: make(map[int]bool),
	}
	c.cond = sync.NewCond(&c.mu)
	c.rx.New = func() any { return &rxSlabs{clocks: vclock.NewStore(c.topo.N())} }
	c.reg = obsv.NewRegistry()
	// One slab for all hosted processes: the node structs dominate a
	// cluster's construction allocations, and a plane registering hundreds
	// of tenants pays that bill hundreds of times over.
	slab := make([]liveNode, len(hosted))
	for i, id := range hosted {
		initLiveNode(&slab[i], c, id)
		c.nodes[id] = &slab[i]
	}
	c.registerFamilies()
	if c.remote {
		// A transport that knows how to describe itself (tcptransport does)
		// joins the cluster's registry and event stream before any traffic
		// flows.
		if inst, ok := cfg.Transport.(interface {
			Instrument(*obsv.Registry, func(obsv.Event))
		}); ok {
			inst.Instrument(c.reg, c.emitEvent)
		}
		if err := cfg.Transport.Start(c.onFrame); err != nil {
			c.leaveSched()
			panic(fmt.Sprintf("livenet: transport start: %v", err))
		}
	}
	if cfg.HbEvery > 0 {
		for _, ln := range c.nodes {
			// Stagger first beats so the cluster does not pulse in lockstep.
			first := 1 + time.Duration(ln.rng.Int64N(int64(cfg.HbEvery)))
			c.sched.wheel.schedule(ln, message{kind: msgHbTick}, first, cfg.HbEvery)
		}
	}
	return c
}

// now reads the failure detector's clock: monotonic nanoseconds since New,
// never 0 (which repair.Link and the beacons keep for "no beat yet").
func (c *Cluster) now() int64 { return int64(time.Since(c.startAt)) + 1 }

// Observe feeds one completed local-predicate interval of process p into the
// cluster. Intervals of one process must be observed in generation order
// (they are at the emitting process by construction); different processes
// may call Observe concurrently. Observe blocks while p's mailbox shard is
// at its bound (backpressure) and must not be called after Stop;
// observations for killed processes are silently dropped (the process is
// dead — it generates nothing). iv's clocks must keep the interval.Interval
// contract — Fidge–Mattern timestamps of events at p, every receive ticking
// — which the detector's span comparisons rely on.
func (c *Cluster) Observe(p int, iv interval.Interval) {
	ln := c.admit(p, 1)
	if ln == nil {
		return
	}
	c.enqueue(ln, message{kind: msgLocal, from: p, iv: iv, born: time.Now().UnixNano()}, true)
}

// ObserveBatch feeds a run of consecutive completed intervals of process p,
// in generation order, as one delivery: the detector enqueues them all and
// runs detection once per exposed head (Algorithm 1 line 2) instead of once
// per interval. The cluster retains ivs until the batch is handled; the
// caller must not modify it afterwards. Semantics are identical to calling
// Observe once per interval — only the per-message overhead differs.
func (c *Cluster) ObserveBatch(p int, ivs []interval.Interval) {
	if len(ivs) == 0 {
		return
	}
	ln := c.admit(p, 1)
	if ln == nil {
		return
	}
	c.enqueue(ln, message{kind: msgLocalBatch, from: p, ivs: ivs, born: time.Now().UnixNano()}, true)
}

// admit performs Observe/ObserveBatch's shared lifecycle check and takes
// credits message deliveries. It returns nil when the observation should be
// silently dropped (killed process).
func (c *Cluster) admit(p, credits int) *liveNode {
	ln, ok := c.nodes[p]
	if !ok {
		panic(fmt.Sprintf("livenet: Observe for unknown process %d", p))
	}
	c.mu.Lock()
	if c.state != clusterRunning {
		c.mu.Unlock()
		panic("livenet: Observe after Stop")
	}
	if c.killed[p] {
		c.mu.Unlock()
		return nil
	}
	c.pending += credits
	c.mu.Unlock()
	return ln
}

// Kill crashes process node (crash-stop: it stops beating, handling and
// sending forever; queued and in-flight messages to it are discarded). It
// returns the number of orphan subtrees the crash created — the number of
// RepairConcluded events that will eventually fire as each orphan reattaches
// or gives up. Killing requires heartbeats (Config.HbEvery > 0); killing an
// already-dead process returns 0.
func (c *Cluster) Kill(node int) int {
	if c.cfg.HbEvery <= 0 {
		panic("livenet: Kill requires heartbeats (Config.HbEvery > 0)")
	}
	ln, ok := c.nodes[node]
	if !ok {
		panic(fmt.Sprintf("livenet: Kill of unknown process %d", node))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != clusterRunning {
		panic("livenet: Kill after Stop")
	}
	if c.killed[node] {
		return 0
	}
	c.killed[node] = true
	delete(c.seeking, node)
	_, orphans := c.topo.MarkFailed(node)
	ln.down.Store(true)
	return len(orphans)
}

// Drain blocks until the message-credit ledger is empty: every observation
// fed so far, and the whole report cascade it triggered, has been handled.
// Armed repair timers and reports buffered for a drain-end flush hold credits
// too, so after the survivors have begun a reattachment Drain also covers its
// conclusion. It does not stop anything; Observe may be called again
// afterwards.
func (c *Cluster) Drain() {
	c.mu.Lock()
	for c.pending != 0 {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// Stop waits for the cluster to go idle, shuts the delivery plane down and
// returns every detection, ordered by node id and then detection order at
// that node.
//
// The quiescence protocol (quiesceLocked): state moves to stopping (new
// Observe calls panic, internal cascade traffic still flows), then Stop
// waits on the condition variable until the credit ledger drains. Because
// every message acquires its credit under mu before it is sent — timers at
// arm time — a drained ledger means no credited delivery can be
// outstanding, so moving to stopped and cancelling the wheel (teardown)
// cannot lose work. The wheel's surviving entries of this cluster are the
// uncredited heartbeat ticks; they are discarded, the seat waits out the
// drains still on workers, and nothing of the cluster is left sleeping or
// running when Stop returns.
//
// Stop is the original teardown entry point, kept as a compatibility alias:
// it is exactly Close followed by Detections, except that stopping an
// already-stopped cluster panics (the historical contract, which existing
// callers rely on to flag double-teardown bugs). New code should prefer
// Close (idempotent) or Shutdown (deadline-aware).
//
// Deprecated: use Close or Shutdown, then Detections.
func (c *Cluster) Stop() []Detection {
	c.mu.Lock()
	if c.state != clusterRunning {
		c.mu.Unlock()
		panic("livenet: Stop called twice")
	}
	c.quiesceLocked(nil)
	c.mu.Unlock()
	return c.teardown()
}

// Close waits for the cluster to go idle and shuts the delivery plane down,
// exactly like Stop, but follows the io.Closer convention: it returns nil on
// an already-closed cluster instead of panicking, and it does not hand the
// detections back — read them with Detections. Close never fails; the error
// return exists so every long-lived object in the package family (Cluster,
// tenant-plane Multiplexer, replay Recorder/Replayer) closes through the
// same signature.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.state != clusterRunning {
		c.mu.Unlock()
		return nil
	}
	c.quiesceLocked(nil)
	c.mu.Unlock()
	c.teardown()
	return nil
}

// Shutdown is Close with a deadline: it waits for the message-credit ledger
// to drain only as long as ctx allows. If the ledger drains in time the
// cluster tears down exactly as Close does and Shutdown returns nil. If ctx
// expires first, Shutdown returns ctx.Err() and the cluster RESUMES RUNNING —
// no work has been lost, Observe is legal again, and a later Close/Stop/
// Shutdown can finish the job. On an already-stopped cluster Shutdown
// returns nil.
func (c *Cluster) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	if c.state != clusterRunning {
		c.mu.Unlock()
		return nil
	}
	if !c.quiesceLocked(ctx) {
		// Deadline hit with traffic still in flight: abort the shutdown and
		// hand the cluster back in the running state.
		c.state = clusterRunning
		c.mu.Unlock()
		return ctx.Err()
	}
	c.mu.Unlock()
	c.teardown()
	return nil
}

// quiesceLocked runs the quiescence protocol under mu: state moves to
// stopping (new Observe calls panic, internal cascade traffic still flows),
// then waits on the condition variable until the credit ledger drains — or,
// when ctx is non-nil, until ctx expires, whichever comes first. Returns true
// with state at clusterStopped when the ledger drained, false with state
// still at clusterStopping when ctx expired first (the caller restores
// clusterRunning).
func (c *Cluster) quiesceLocked(ctx context.Context) bool {
	c.state = clusterStopping
	var stopWatch chan struct{}
	if ctx != nil && ctx.Done() != nil {
		// The waiter below sleeps on the cond; a context expiry has to kick
		// it awake. The watcher is told to stand down once quiescence
		// resolves either way.
		stopWatch = make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				c.mu.Lock()
				c.cond.Broadcast()
				c.mu.Unlock()
			case <-stopWatch:
			}
		}()
		defer close(stopWatch)
	}
	for c.pending != 0 {
		if ctx != nil && ctx.Err() != nil {
			return false
		}
		c.cond.Wait()
	}
	c.state = clusterStopped
	c.halted.Store(true)
	return true
}

// teardown dismantles the delivery plane after a successful quiescence
// (state is clusterStopped, ledger empty — see Stop's doc comment for why
// nothing can be lost from here) and returns the final detection list, also
// stashing it for Detections. The list is the nodes' logs laid end to end in
// node-id order: leaveSched has returned, so no worker is inside a drain and
// the logs, worker-confined until now, are this goroutine's to read.
func (c *Cluster) teardown() []Detection {
	c.leaveSched()
	if c.remote {
		// Incoming frames have been dropped (not credited) since the state
		// reached stopped; Close additionally waits out any receive callback
		// already in flight, so nothing touches the cluster after Stop.
		c.cfg.Transport.Close()
	}
	ids := c.NodeIDs()
	logs := make([]*detectionLog, len(ids))
	for i, id := range ids {
		logs[i] = &c.nodes[id].log
	}
	out := concatLogs(logs)
	c.mu.Lock()
	c.final = out
	c.mu.Unlock()
	return out
}

// leaveSched gives the cluster's seat up. The wheel and the pools belong to
// the substrate and may be serving other clusters: cancel removes this
// cluster's remaining (uncredited, recurring) wheel entries, and detach
// returns once no worker is still inside one of its drains, so no detection
// can be in flight afterwards. A substrate New built for this cluster has no
// other seat and closes with it.
func (c *Cluster) leaveSched() {
	c.sched.wheel.cancel(c)
	c.sched.detach(c.seat)
	if c.cfg.Scheduler == nil {
		c.sched.Close()
	}
}

// Detections returns the final detection list — ordered by node id, then
// detection order at that node — once the cluster has stopped (via Stop,
// Close or a successful Shutdown). Before that it returns nil: the list is
// only final after teardown. The slice is shared with Stop's return value;
// treat it as read-only.
func (c *Cluster) Detections() []Detection {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.final
}

// Workers returns the size of the worker pool draining this cluster's
// mailbox shards.
func (c *Cluster) Workers() int { return c.sched.workers }

// MailboxBound returns the per-node mailbox bound applied to external
// producers.
func (c *Cluster) MailboxBound() int { return c.bound }

// Shared reports whether the cluster sits on a substrate the caller supplied
// (Config.Scheduler), possibly next to other clusters, rather than on one of
// its own.
func (c *Cluster) Shared() bool { return c.cfg.Scheduler != nil }

// Failed returns the processes killed so far, ascending.
func (c *Cluster) Failed() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.killed))
	for id := range c.killed {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Repairs returns the reattachments concluded so far, in conclusion order.
func (c *Cluster) Repairs() []RepairEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]RepairEvent(nil), c.repairs...)
}

// post ships a message to a node's mailbox after delay, taking the message's
// pending credit first. During stopping the internal cascade is still
// allowed — Stop drains it; only after stopped (ledger empty, so nothing can
// legally be in flight) is the message dropped. Zero-delay messages enqueue
// directly; delayed ones ride the wheel.
func (c *Cluster) post(to int, msg message, delay time.Duration) {
	dst, ok := c.nodes[to]
	if !ok {
		return
	}
	c.mu.Lock()
	if c.state == clusterStopped {
		c.mu.Unlock()
		return
	}
	c.pending++
	c.mu.Unlock()
	if delay <= 0 {
		c.enqueue(dst, msg, false)
	} else {
		c.sched.wheel.schedule(dst, msg, delay, 0)
	}
}

// armTimer schedules a timer message, taking its pending credit at arm time:
// an armed timer keeps the ledger non-zero, so Stop cannot tear the delivery
// plane down under a pending timer.
func (c *Cluster) armTimer(ln *liveNode, d time.Duration, msg message) {
	c.mu.Lock()
	if c.state == clusterStopped {
		c.mu.Unlock()
		return
	}
	c.pending++
	c.mu.Unlock()
	c.sched.wheel.schedule(ln, msg, d, 0)
}

// takeFlushCredit reserves one ledger credit for an AdaptiveFlush drain-end
// flush. A buffered report must keep the ledger non-zero until its flush, or
// Drain and Stop could observe quiescence with reports still sitting in
// outBuf. The credit is released by runNode after the flush runs (or after
// the buffer is discarded because the node went down). Returns false after
// stopped, when nothing may enter the ledger anymore.
func (c *Cluster) takeFlushCredit() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == clusterStopped {
		return false
	}
	c.pending++
	return true
}

// done returns n credits to the ledger: one dropped message's, or a whole
// drain's (runNode).
func (c *Cluster) done(n int) {
	c.mu.Lock()
	c.pending -= n
	if c.pending == 0 {
		c.cond.Broadcast()
	}
	c.mu.Unlock()
}

// notifyRepair records a concluded reattachment and tells the sink, outside
// the cluster lock.
func (c *Cluster) notifyRepair(orphan, newParent int) {
	c.mu.Lock()
	c.repairs = append(c.repairs, RepairEvent{Orphan: orphan, NewParent: newParent})
	c.mu.Unlock()
	c.emitEvent(obsv.Event{Kind: obsv.RepairConcluded, Node: orphan, Peer: newParent, Count: 1})
}

// send routes a message: through the in-process mailbox when this cluster
// hosts the destination (or is not distributed at all), wire-encoded over
// the transport otherwise. The transport is best-effort and asynchronous, so
// remote sends take no ledger credit — like the paper's network, a remote
// message in flight is outside any process's knowledge until it arrives.
func (c *Cluster) send(to int, msg message, delay time.Duration) {
	if _, local := c.nodes[to]; local || !c.remote {
		c.post(to, msg, delay)
		return
	}
	if msg.kind == msgReport {
		// Reports — the O(n)-sized hot-path messages — ride wire format v2
		// through a pooled scratch buffer. Send must not retain the frame
		// (transport.Transport contract), so the buffer recycles as soon as
		// it returns; per-link delta chaining, if any, happens inside the
		// transport against its own connection state.
		buf := wire.GetBuffer()
		*buf = wire.AppendReportV2(*buf, wire.Report{Iv: *msg.agg, LinkSeq: msg.seq, Epoch: msg.epoch}, nil)
		c.cfg.Transport.Send(to, *buf)
		wire.PutBuffer(buf)
		return
	}
	if frame := encodeMessage(msg); frame != nil {
		c.cfg.Transport.Send(to, frame)
	}
}

// sendBatch routes a flushed report-batch: one in-process message when the
// destination is hosted here, one self-contained wire batch frame (reports
// delta-chained against each other inside the frame, encoded through a
// pooled buffer — the zero-allocation batched encode path) otherwise.
func (c *Cluster) sendBatch(to, from int, batch *reportBatch, born int64, delay time.Duration) {
	if _, local := c.nodes[to]; local || !c.remote {
		c.post(to, message{kind: msgReportBatch, from: from, batch: batch, born: born}, delay)
		return
	}
	buf := wire.GetBuffer()
	*buf = wire.AppendRefBatch(*buf, batch.reps)
	c.cfg.Transport.Send(to, *buf)
	wire.PutBuffer(buf)
	batch.recycle()
}

// encodeMessage wire-encodes a mailbox message for a remote peer. Timer kinds
// never travel; msgLocal never leaves its process; reports take the pooled
// v2 path in send.
func encodeMessage(msg message) []byte {
	switch msg.kind {
	case msgHeartbeat:
		return wire.EncodeHeartbeat(wire.Heartbeat{
			Sender: msg.from, Epoch: msg.epoch,
			RootSeeking: msg.hb.rootSeeking, Covered: msg.hb.covered,
		})
	case msgAttach:
		return wire.EncodeAttach(wire.Attach{From: msg.from, Msg: msg.att})
	default:
		panic(fmt.Sprintf("livenet: message kind %d cannot be wire-encoded", msg.kind))
	}
}

// rxSlabs is one receive callback's region: decoded report batches' clocks
// (a store of its own, as the hosted nodes' clocks come out of their
// workers' regions) and, beside them, each decoded interval's one home, which
// the receiving node's queue and solution sets refer to. reps stages a
// frame's decode.
type rxSlabs struct {
	clocks *vclock.Store
	homes  vclock.Slab[interval.Interval]
	reps   []repair.Report
}

// onFrame is the transport's receive callback: decode — nothing decoded
// refers to frame, which is the transport's again once onFrame returns —
// then hand the message to the addressed node through the same credited
// post as local traffic.
// Frames that fail to decode are counted and dropped — the wire package's
// typed errors guarantee a corrupt frame cannot crash the node, one of the
// satellite guarantees of the transport work.
func (c *Cluster) onFrame(to int, frame []byte) {
	ln, ok := c.nodes[to]
	if !ok {
		return // misrouted: addressed to a node another participant hosts
	}
	kind, err := wire.FrameKind(frame)
	if err != nil {
		ln.m.badFrames.Add(1)
		return
	}
	var msg message
	switch kind {
	case wire.KindReport:
		r, err := wire.DecodeReport(frame)
		if err != nil {
			ln.m.badFrames.Add(1)
			return
		}
		// A node only reports aggregates it created, so the interval's
		// origin identifies the sender.
		msg = message{kind: msgReport, from: r.Iv.Origin, seq: r.LinkSeq, epoch: r.Epoch, agg: &r.Iv}
	case wire.KindReportBatch:
		// Decoded with its clocks carved from pooled slabs, each report moved
		// into a home beside them, and referred to from a recycled batch (the
		// receiving node hands it back after ingest, like one flushed
		// in-process). A decoded batch is never empty; a rejected frame
		// decodes to nothing.
		rx := c.rx.Get().(*rxSlabs)
		reps, err := wire.AppendDecodedReportBatch(rx.reps[:0], frame, rx.clocks)
		batch := batchPool.Get().(*reportBatch)
		homes := rx.homes.Carve(len(reps))
		for i := range reps {
			homes[i] = reps[i].Iv
			batch.reps = append(batch.reps, repair.Ref{Iv: &homes[i], LinkSeq: reps[i].LinkSeq, Epoch: reps[i].Epoch})
		}
		clear(reps)
		rx.reps = reps[:0]
		c.rx.Put(rx)
		if err != nil {
			batch.recycle()
			ln.m.badFrames.Add(1)
			return
		}
		msg = message{kind: msgReportBatch, from: batch.reps[0].Iv.Origin, batch: batch}
	case wire.KindHeartbeat:
		hb, err := wire.DecodeHeartbeat(frame)
		if err != nil {
			ln.m.badFrames.Add(1)
			return
		}
		msg = message{kind: msgHeartbeat, from: hb.Sender, epoch: hb.Epoch, born: c.now(),
			hb: hbInfo{rootSeeking: hb.RootSeeking, covered: hb.Covered}}
	case wire.KindAttach:
		a, err := wire.DecodeAttach(frame)
		if err != nil {
			ln.m.badFrames.Add(1)
			return
		}
		msg = message{kind: msgAttach, from: a.From, att: a.Msg}
	default:
		// Valid framing of a kind a bare cluster does not consume (a tenant
		// envelope that escaped its mux, or a future addition): dropped, not
		// a zero-value message.
		ln.m.badFrames.Add(1)
		return
	}
	c.post(to, msg, 0)
}

// rootSeekingLocked reports whether the root of id's current tree (per the
// mirror) is another node that is itself renegotiating a parent — in which
// case id must refuse adoption requests, or a cycle of dangling trees could
// form. The simulator propagates this flag on heartbeats; here the mirror is
// exact. Caller holds mu.
func (c *Cluster) rootSeekingLocked(id int) bool {
	r := id
	for c.topo.Parent(r) != tree.None {
		r = c.topo.Parent(r)
	}
	return r != id && c.seeking[r]
}
