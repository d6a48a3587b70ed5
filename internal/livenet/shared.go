package livenet

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hierdet/internal/core"
)

// shared.go — the scheduler substrate. One worker pool and one timer wheel
// serve any number of clusters — one, for a standalone cluster, which builds
// its own (see New) — so a tenant plane's steady-state goroutine count is the
// pool plus the wheel, independent of the tenant count: the same collapse the
// mailbox shards perform for the process count inside one cluster. Each
// worker owns a core.Region and hands it to every node it drains: what
// detections keep is carved, with no lock, from one slab per worker and kind,
// whichever cluster the node belongs to.
//
// Fairness is deficit round robin over clusters: each cluster with scheduled
// nodes is one client on an active ring, a worker serves the ring head while
// its deficit lasts and rotates it to the back when the quantum is spent, and
// each drain's message count is charged against the deficit. A hot tenant
// flooding its mailboxes therefore costs a quiet tenant at most one ring
// rotation of latency, not a starvation wait behind the hot tenant's entire
// backlog. With a single seat the ring has one member and the discipline is
// plain FIFO over that cluster's scheduled nodes.

// SharedSchedulerConfig parameterizes a substrate.
type SharedSchedulerConfig struct {
	// Workers sizes the shared worker pool (default GOMAXPROCS).
	Workers int
	// Tick is the wheel's tick, clamped to [20µs, 1ms] (default 25µs — an
	// eighth of the default Config.MaxDelay).
	// Delays are rounded up to it; how closely deliveries then follow it is
	// the platform's doing (see Config.MaxDelay).
	Tick time.Duration
	// Quantum is the DRR quantum in messages: how many messages one cluster
	// may drain before the ring rotates past it (default 256).
	Quantum int
	// WheelLagSink, when set, receives each wheel advance's lag in seconds
	// (the tenant plane feeds its lag histogram through this).
	WheelLagSink func(float64)
}

// SharedScheduler is one substrate instance. Create with NewSharedScheduler,
// hand it to any number of clusters via Config.Scheduler, and Close it after
// every client cluster has stopped.
type SharedScheduler struct {
	workers int
	quantum int
	wheel   *wheel

	mu       sync.Mutex
	workCond *sync.Cond // workers wait here for ring work
	idleCond *sync.Cond // detach waits here for a dead client's drains
	active   []*schedClient
	closed   bool
	clients  int

	wg   sync.WaitGroup
	busy atomic.Int64
}

// schedClient is one cluster's seat on the substrate: its FIFO of scheduled
// nodes and its round-robin deficit. All fields are guarded by the
// scheduler's mutex.
type schedClient struct {
	s       *SharedScheduler
	nodes   []*liveNode
	head    int // pop index; compacted when the queue empties
	deficit int
	queued  bool // on the active ring
	running int  // drains in flight on workers
	dead    bool // detached: submits are dropped
}

func (cl *schedClient) submit(ln *liveNode) { cl.s.submit(cl, ln) }

func (cl *schedClient) depth() int {
	cl.s.mu.Lock()
	defer cl.s.mu.Unlock()
	return len(cl.nodes) - cl.head
}

// NewSharedScheduler builds and starts a substrate: Workers pool goroutines
// plus one wheel goroutine, all of them shared by every client cluster.
func NewSharedScheduler(cfg SharedSchedulerConfig) *SharedScheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 25 * time.Microsecond
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 256
	}
	s := &SharedScheduler{
		workers: cfg.Workers,
		quantum: cfg.Quantum,
		wheel:   newWheel(cfg.Tick),
	}
	s.wheel.lagObserve = cfg.WheelLagSink
	s.workCond = sync.NewCond(&s.mu)
	s.idleCond = sync.NewCond(&s.mu)
	go s.wheel.run()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Workers returns the shared pool size.
func (s *SharedScheduler) Workers() int { return s.workers }

// Busy returns how many shared workers are currently draining a shard.
func (s *SharedScheduler) Busy() int { return int(s.busy.Load()) }

// Clients returns how many clusters are currently attached.
func (s *SharedScheduler) Clients() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clients
}

// WheelEntries returns the shared wheel's live entry count.
func (s *SharedScheduler) WheelEntries() int { return s.wheel.entries() }

// WheelTick returns the shared wheel's quantization tick.
func (s *SharedScheduler) WheelTick() time.Duration { return s.wheel.tick }

// WheelLagNanos returns how far past its deadline the last advance ran.
func (s *SharedScheduler) WheelLagNanos() int64 { return s.wheel.lagNanos.Load() }

// WheelTicks returns how many occupied wheel slots have expired.
func (s *SharedScheduler) WheelTicks() int64 { return s.wheel.ticksTotal.Load() }

// register attaches a cluster, returning its run-queue seat. Called from New.
func (s *SharedScheduler) register() *schedClient {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		panic("livenet: cluster attached to a closed SharedScheduler")
	}
	s.clients++
	return &schedClient{s: s}
}

// submit queues a scheduled node under its cluster's seat and activates the
// seat on the ring if it was idle.
func (s *SharedScheduler) submit(cl *schedClient, ln *liveNode) {
	s.mu.Lock()
	if cl.dead || s.closed {
		s.mu.Unlock()
		return
	}
	cl.nodes = append(cl.nodes, ln)
	if !cl.queued {
		cl.queued = true
		cl.deficit = s.quantum
		s.active = append(s.active, cl)
	}
	s.workCond.Signal()
	s.mu.Unlock()
}

// next pops the node a worker should drain, blocking while the ring is
// empty. The ring head serves while its deficit lasts; a spent head gets a
// fresh quantum added and rotates to the back, so every pass over the ring
// grows each client's claim until it is served — the DRR guarantee that a
// backlogged client cannot push the others' deficits to zero.
func (s *SharedScheduler) next() (*schedClient, *liveNode) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil, nil
		}
		if len(s.active) == 0 {
			s.workCond.Wait()
			continue
		}
		cl := s.active[0]
		if cl.deficit <= 0 {
			cl.deficit += s.quantum
			copy(s.active, s.active[1:])
			s.active[len(s.active)-1] = cl
			continue
		}
		ln := cl.nodes[cl.head]
		cl.nodes[cl.head] = nil
		cl.head++
		if cl.head == len(cl.nodes) {
			cl.nodes = cl.nodes[:0]
			cl.head = 0
			cl.queued = false
			s.active = s.active[1:]
			if len(s.active) == 0 {
				s.active = nil
			}
		}
		cl.running++
		return cl, ln
	}
}

// charge settles a finished drain: the handled message count comes off the
// client's deficit, and a detaching cluster waiting for its in-flight drains
// is woken when the last one lands.
func (s *SharedScheduler) charge(cl *schedClient, msgs int) {
	s.mu.Lock()
	cl.deficit -= msgs
	cl.running--
	if cl.dead && cl.running == 0 {
		s.idleCond.Broadcast()
	}
	s.mu.Unlock()
}

// detach removes a stopping cluster's seat: queued nodes are discarded (its
// ledger has drained, so their mailboxes hold only uncredited ticks), new
// submits are dropped, and detach returns only once no worker is still
// inside one of the cluster's drains.
func (s *SharedScheduler) detach(cl *schedClient) {
	s.mu.Lock()
	cl.dead = true
	if cl.queued {
		cl.queued = false
		for i, a := range s.active {
			if a == cl {
				s.active = append(s.active[:i], s.active[i+1:]...)
				break
			}
		}
	}
	cl.nodes, cl.head = nil, 0
	for cl.running > 0 {
		s.idleCond.Wait()
	}
	s.clients--
	s.mu.Unlock()
}

// worker is one shared pool goroutine: pop a node off the DRR ring, hand it
// the worker's region, drain it through its own cluster, charge the drain.
func (s *SharedScheduler) worker() {
	defer s.wg.Done()
	reg := new(core.Region)
	for {
		cl, ln := s.next()
		if ln == nil {
			return
		}
		s.busy.Add(1)
		ln.reg = reg
		ln.node.Use(reg)
		msgs := ln.c.runNode(ln)
		s.busy.Add(-1)
		s.charge(cl, msgs)
	}
}

// Close tears the substrate down: the wheel goroutine, then the workers.
// Every client cluster must have stopped first —
// Stop detaches a cluster, so by here the wheel holds no credited entries
// and the ring is empty.
func (s *SharedScheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.workCond.Broadcast()
	s.mu.Unlock()
	s.wheel.stop()
	<-s.wheel.done
	s.wg.Wait()
}
