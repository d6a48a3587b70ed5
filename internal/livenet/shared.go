package livenet

import (
	"math/bits"
	"runtime"
	"sync"
	"time"

	"hierdet/internal/core"
	"hierdet/internal/interval"
	"hierdet/internal/obsv"
	"hierdet/internal/repair"
	"hierdet/internal/vclock"
)

// shared.go — the scheduler substrate (DESIGN §12). One worker pool and one
// timer wheel serve any number of clusters — one, for a standalone cluster,
// which builds its own (see Open) — so a tenant plane's steady-state
// goroutine count is the pool plus the wheel, whatever the tenant count. Each
// worker lends every node it drains, of any cluster, its staging: a region
// detections carve from with no lock, and what the drain needs while it runs.
//
// Fairness is deficit round robin over clusters: each cluster with scheduled
// nodes is one client on an active ring, served while its deficit lasts and
// rotated to the back when the quantum is spent, each drain's message count
// charged against it. A hot tenant costs a quiet one at most one ring
// rotation of latency, never a wait behind its whole backlog; with one seat
// the ring is plain FIFO.

// SharedSchedulerConfig parameterizes a substrate.
type SharedSchedulerConfig struct {
	// Workers sizes the shared worker pool (default GOMAXPROCS).
	Workers int
	// Tick is the wheel's tick, clamped to [20µs, 1ms] (default 25µs — an
	// eighth of the default Config.MaxDelay).
	// Delays are rounded up to it; how closely deliveries then follow it is
	// the platform's doing (see Config.MaxDelay).
	Tick time.Duration
	// WheelLagSink, when set, receives each wheel advance's lag in seconds
	// (the tenant plane feeds its lag histogram through this).
	WheelLagSink func(float64)
}

// SharedScheduler is one substrate instance. Create with NewSharedScheduler,
// hand it to any number of clusters via Config.Scheduler, and Close it after
// every client cluster has stopped.
type SharedScheduler struct {
	workers int
	wheel   *wheel

	mu       sync.Mutex
	workCond *sync.Cond // workers wait here for ring work
	idleCond *sync.Cond // detach waits here for a dead client's drains
	active   []*schedClient
	closed   bool
	clients  int
	running  int // drains in flight on workers, all clients'

	wg sync.WaitGroup
}

// schedClient is one cluster's seat on the substrate: its FIFO of scheduled
// nodes, its round-robin deficit and its drain counts. All fields are guarded
// by the scheduler's mutex, which each drain takes anyway to be charged.
type schedClient struct {
	s       *SharedScheduler
	nodes   []*liveNode
	head    int // pop index; compacted when the queue empties
	deficit int
	queued  bool // on the active ring
	running int  // drains in flight on workers
	dead    bool // detached: submits are dropped

	drains  int64                // drains charged
	drained int64                // messages those drains handled
	sizes   [drainBins + 1]int64 // drains per drainBuckets bucket, the last +Inf
}

// drainBuckets bound the drain-size histogram (hierdet_sched_drain_batch_size):
// 1, 2, 4, … 512 messages, so a drain of n goes in bucket bits.Len(n-1).
const drainBins = 10

var drainBuckets = obsv.ExponentialBuckets(1, 2, drainBins)

// quantum is the DRR quantum in messages: how many messages one cluster may
// drain before the ring rotates past it.
const quantum = 256

// stats reads the seat's drain accounting: drains in flight, drains charged,
// the messages they handled and the drains per size bucket.
func (cl *schedClient) stats() (running, drains, drained int64, sizes [drainBins + 1]int64) {
	cl.s.mu.Lock()
	defer cl.s.mu.Unlock()
	return int64(cl.running), cl.drains, cl.drained, cl.sizes
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
	s := &SharedScheduler{
		workers: cfg.Workers,
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
func (s *SharedScheduler) Busy() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

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
		cl.deficit = quantum
		s.active = append(s.active, cl)
	}
	s.workCond.Signal()
	s.mu.Unlock()
}

// next settles the worker's last drain — msgs messages of done's, nil for
// none — and pops the node it should drain now, blocking while the ring is
// empty: one lock hold per drain for both. The ring head serves while its
// deficit lasts; a spent head gets a fresh quantum added and rotates to the
// back, so every pass over the ring grows each client's claim until it is
// served — the DRR guarantee that a backlogged client cannot push the
// others' deficits to zero.
func (s *SharedScheduler) next(done *schedClient, msgs int) (*schedClient, *liveNode) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if done != nil {
		s.chargeLocked(done, msgs)
	}
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
			cl.deficit += quantum
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
		s.running++
		return cl, ln
	}
}

// chargeLocked settles a finished drain: it is counted, its handled message
// count comes off the client's deficit, and a detaching cluster waiting for
// its in-flight drains is woken when the last one lands. Caller holds mu.
func (s *SharedScheduler) chargeLocked(cl *schedClient, msgs int) {
	cl.deficit -= msgs
	cl.running--
	s.running--
	cl.drains++
	cl.drained += int64(msgs)
	cl.sizes[min(bits.Len(uint(max(msgs, 1)-1)), drainBins)]++
	if cl.dead && cl.running == 0 {
		s.idleCond.Broadcast()
	}
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

// staging is what a worker lends every node it drains, of any cluster: its
// region, mailbox spares (runNode), ingestion scratch, the log-chunk slab and
// the drain in progress. Its arrays are cleared between nodes.
type staging struct {
	reg         core.Region
	spare       []message
	spareLocals []interval.Interval
	ivs         []*interval.Interval // ingest's batch
	rdy         []repair.Ref         // a resequencer's released run
	chunks      vclock.Slab[logChunk]
	// outBuf holds the reports owed to the parent until the drain's end
	// (AdaptiveFlush), covered by its credits (runNode; emit takes one if it
	// holds none). born is the handled message's stamp, bufBorn the oldest in
	// outBuf, foundAt the clock read for the handled message's detections.
	outBuf                 *reportBatch
	credits                int
	born, bufBorn, foundAt int64
}

// worker is one shared pool goroutine: pop a node off the DRR ring, hand it
// the worker's staging and region, drain it through its own cluster, and
// charge the drain with the next pop.
func (s *SharedScheduler) worker() {
	defer s.wg.Done()
	w := new(staging)
	var cl *schedClient
	msgs := 0
	for {
		var ln *liveNode
		if cl, ln = s.next(cl, msgs); ln == nil {
			return
		}
		ln.w = w
		ln.node.Use(&w.reg)
		msgs = ln.c.runNode(ln)
	}
}

// Close tears the substrate down: the wheel goroutine, then the workers.
// Every client cluster must have stopped first —
// Close detaches a cluster, so by here the wheel holds no credited entries
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
