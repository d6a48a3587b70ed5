package livenet

import (
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hierdet/internal/core"
	"hierdet/internal/interval"
	"hierdet/internal/obsv"
	"hierdet/internal/repair"
	"hierdet/internal/tree"
)

// msgKind discriminates what flows through a node's mailbox.
type msgKind int

const (
	msgLocal       msgKind = iota // a completed local-predicate interval
	msgLocalBatch                 // a run of completed local intervals (ObserveBatch)
	msgReport                     // a child→parent aggregate report
	msgReportBatch                // one drain's worth of reports, flushed as one message
	msgAttach                     // a reattachment-protocol message
	msgHeartbeat                  // a liveness beat with repair state (distributed mode)
	msgHbTick                     // the wheel's recurring heartbeat tick (uncredited)
	msgHbCheck                    // one watched peer's suspicion deadline (from = peer; uncredited)
	msgSeekTimeout                // per-candidate grant timeout (seq = reqID)
	msgSeekBackoff                // between-rounds pause (seq = round)
)

// hbInfo is the repair state riding on a distributed-mode heartbeat: the
// sender's covered set (meaningful child→parent) and whether its tree root
// is currently renegotiating a parent (meaningful parent→child). See
// wire.Heartbeat for why each direction needs its half.
type hbInfo struct {
	rootSeeking bool
	covered     []int
}

// message is one mailbox entry: 64 bytes, which every hop copies. A
// msgLocal's interval waits beside it in the mailbox (mailbox.locals), and
// the rare kinds' payloads behind ext. Every message except the failure
// detector's two timers holds one credit in the cluster's pending ledger from
// before it is sent until after it is handled (see creditedKind).
type message struct {
	kind  msgKind
	from  int
	seq   int // linkSeq (msgReport), index into the drain's locals (msgLocal), reqID or round (timers)
	epoch int
	agg   *interval.Interval // msgReport payload: the aggregate where it is stored
	batch *reportBatch       // msgReportBatch payload
	ext   *msgExt            // msgLocalBatch, msgAttach and msgHeartbeat payloads
	// born is the Observe wall-clock stamp (UnixNano) of the observation
	// whose causal cascade this message belongs to — stamped at admission,
	// inherited by every report the handling of this message emits, and
	// consumed when a detection closes the chain (observe→SolutionFound
	// latency). Zero on timer kinds and on frames that crossed a transport
	// (the stamp is deliberately not wire-encoded: wall clocks of different
	// processes do not subtract meaningfully). On the failure detector's
	// messages it is on that detector's clock (Cluster.now): when a heartbeat
	// reached this cluster — the mailbox wait is no part of the peer's rhythm
	// — when a tick was due, which deadline a check was armed for.
	born int64
}

// msgExt carries the payloads no report hop needs. It is read-only once
// sent: one heartbeat's ext goes to every watched peer.
type msgExt struct {
	ivs []interval.Interval // msgLocalBatch
	att repair.Msg          // msgAttach
	hb  hbInfo              // msgHeartbeat
}

// liveNode is one process: a detector node plus its links. All fields below
// mb are confined to the worker currently running the node (the mailbox's
// scheduled flag admits at most one at a time), so they need no locks;
// cross-goroutine state lives in the cluster (under mu) or in atomics.
type liveNode struct {
	c    *Cluster
	id   int
	mb   mailbox
	down atomic.Bool  // crashed: drain messages without handling, stop beating
	beat atomic.Int64 // liveness beacon: Cluster.now() of the last published beat, 0 before the first

	node    *core.Node
	parent  int
	outSeq  int                // per-current-link counter for reports to parent
	lastAgg *interval.Interval // most recent aggregate, for resend-on-adopt; nil before the first

	// log is every detection this node has found, in order, its records
	// carved from the draining worker's region and its chunks from that
	// worker's slab. Worker-confined like everything below; teardown reads
	// log once no worker runs the node.
	log detectionLog
	// w is the worker draining the node — its region and the drain's
	// staging, report buffer and stamps included — set at every drain and
	// used only inside one.
	w *staging

	reseq  []childSeq    // one per current child, in no order
	epochs repair.Epochs // value: the zero Epochs is ready to use

	// Failure-detector state (worker-confined, like everything above): the
	// parent and the current children, each with the estimate of its beat
	// rhythm; empty without heartbeats.
	watched repair.Links
	// rep is the repair and distributed-mode failure-detector state, nil
	// until first needed (getRep): a healthy node never pays for it.
	rep *repairState

	// rng drives this node's delivery-delay jitter, held by value with its
	// source. PCG rather than the classic rand.Source: seeding the latter
	// costs ~20µs of warmup per node, which at p≥512 turns into >10ms of
	// pure startup overhead per cluster.
	pcg rand.PCG
	rng rand.Rand

	m nodeMetrics
	// lastPruned is the detector's Pruned count as of the last syncCoreStats,
	// so the IntervalPruned event can carry the delta. Worker-confined.
	lastPruned int
}

// repairState is what only repair touches: the state machines (each built
// on first use), the suspects, and in distributed mode, fed by beats, each
// child's covered set, this node's own (nil when stale, never modified once
// handed out) and whether the parent said this tree's root is seeking.
type repairState struct {
	seeker        *repair.Seeker
	adopter       *repair.Adopter
	suspected     map[int]bool
	covered       map[int][]int
	ownCov        []int
	rootSeekingHB bool
}

// getRep returns the node's repair state, building it on first use.
func (ln *liveNode) getRep() *repairState {
	if ln.rep == nil {
		ln.rep = &repairState{suspected: make(map[int]bool), covered: make(map[int][]int)}
	}
	return ln.rep
}

// childSeq is one child's resequencer, by value (the zero one expects 0). A
// node looks one up among a handful on every report: a scan beats a map.
type childSeq struct {
	child int
	rs    repair.Resequencer[repair.Ref]
}

// resequencer returns child's resequencer, or nil if child is not a current
// child; the pointer lives until a child is added or dropped.
func (ln *liveNode) resequencer(child int) *repair.Resequencer[repair.Ref] {
	for i := range ln.reseq {
		if ln.reseq[i].child == child {
			return &ln.reseq[i].rs
		}
	}
	return nil
}

// reportBatch is one flush's reports, each a reference to the aggregate in
// its sender's detection record (or, decoded off a socket, in a receive
// slab). The sender fills it, the message carries it, and the receiver hands
// it back to batchPool once every reference is in a resequencer or a queue
// (a flush used to make and copy a fresh slice, 179 B per interval at
// p=127). A batch dropped on the way is just collected.
type reportBatch struct{ reps []repair.Ref }

var batchPool = sync.Pool{New: func() any { return new(reportBatch) }}

// recycle returns an ingested (or encoded) batch to the pool, cleared first so
// the pool keeps no interval reachable.
func (b *reportBatch) recycle() {
	clear(b.reps)
	b.reps = b.reps[:0]
	batchPool.Put(b)
}

// detectionLog is one node's detections in the order it found them: 24-byte
// entries pointing at records carved from the worker's region, in a chain of
// 8-entry chunks (200 bytes) carved from the worker's slab (deliver), so a
// node costs what it found plus one chunk's tail. The node's worker is the
// only writer, so recording takes no lock; teardown lays the logs end to end
// (concatLogs). No entry is ever moved.
type detectionLog struct {
	head, tail *logChunk
	n, slots   int // entries in all, and room in the chunks linked
}

const detLogChunk = 8

type logChunk struct {
	next *logChunk
	ents [detLogChunk]Detection
}

// add appends d, linking a chunk of its own if none was linked for it.
func (l *detectionLog) add(d Detection) {
	if l.n == l.slots {
		l.link(new(logChunk))
	}
	l.tail.ents[l.n%detLogChunk] = d
	l.n++
}

func (l *detectionLog) link(c *logChunk) {
	if l.tail == nil {
		l.head = c
	} else {
		l.tail.next = c
	}
	l.tail = c
	l.slots += detLogChunk
}

// concatLogs empties the logs into one exactly-sized list, log after log —
// entries, not records: each record stays where it was carved. A chunk shares
// a slab with other nodes', so it is cleared as it is copied. The caller
// passes the logs in node-id order and each is in its node's Agg.Seq order
// already (a node numbers its aggregates as it finds them), which makes the
// result the list sorted by (node, Agg.Seq); a run found out of order is
// stable-sorted on its own, so that holds whatever was logged.
func concatLogs(logs []*detectionLog) []Detection {
	total := 0
	for _, l := range logs {
		total += l.n
	}
	out := make([]Detection, 0, total)
	for _, l := range logs {
		begin := len(out)
		for c, left := l.head, l.n; c != nil; c, left = c.next, left-detLogChunk {
			ents := c.ents[:min(left, detLogChunk)]
			out = append(out, ents...)
			clear(ents)
		}
		*l = detectionLog{}
		run := out[begin:]
		bySeq := func(i, j int) bool { return run[i].Det.Agg.Seq < run[j].Det.Agg.Seq }
		if !sort.SliceIsSorted(run, bySeq) {
			sort.SliceStable(run, bySeq)
		}
	}
	return out
}

// initLiveNode builds one process in place. The cluster allocates all its
// liveNodes as one slab and initializes each slot here — at 256 tenants on a
// shared substrate, per-node boxing was a visible slice of registration's
// allocation bill. ln must be zero-valued (its sync fields forbid assigning
// a fresh struct over it).
func initLiveNode(ln *liveNode, c *Cluster, id int) {
	coreCfg := core.Config{
		N: c.topo.N(), Strict: c.cfg.Verify, KeepMembers: c.cfg.Verify,
		Parallel: true,
	}
	ln.c = c
	ln.id = id
	children := c.topo.Children(id)
	ln.node = core.NewNode(id, coreCfg, true, children...)
	ln.parent = c.topo.Parent(id)
	ln.pcg = *rand.NewPCG(uint64(c.cfg.Seed), uint64(id)<<17|1)
	ln.rng = *rand.New(&ln.pcg)
	ln.mb.init()
	if ln.parent != tree.None {
		ln.watched.Add(ln.parent, c.cfg.HbEvery, c.now())
	}
	ln.reseq = make([]childSeq, 0, len(children))
	for _, child := range children {
		ln.reseq = append(ln.reseq, childSeq{child: child})
		ln.watched.Add(child, c.cfg.HbEvery, c.now())
		if c.remote {
			// Seed each child's covered set from the initial topology (every
			// participant knows it); the child's heartbeats refresh it.
			ln.setCovered(child, c.topo.Subtree(child))
		}
	}
}

// handle runs one message; a msgLocal's seq indexes the drain's locals.
func (ln *liveNode) handle(msg *message, locals []interval.Interval) {
	ln.w.born, ln.w.foundAt = msg.born, 0
	switch msg.kind {
	case msgLocal:
		ln.c.emitEvent(obsv.Event{Kind: obsv.IntervalObserved, Node: ln.id, Peer: obsv.NoPeer, Count: 1})
		ln.deliver(ln.node.OnInterval(ln.id, locals[msg.seq]))
	case msgLocalBatch:
		ln.c.emitEvent(obsv.Event{Kind: obsv.IntervalObserved, Node: ln.id, Peer: obsv.NoPeer, Count: len(msg.ext.ivs)})
		ln.deliver(ln.node.OnIntervals(ln.id, msg.ext.ivs))
	case msgReport, msgReportBatch:
		ln.m.msgsIn.Add(1)
		ln.alive(msg.from)
		one := [1]repair.Ref{{Iv: msg.agg, LinkSeq: msg.seq, Epoch: msg.epoch}}
		reps := one[:]
		if msg.batch != nil {
			reps = msg.batch.reps
		}
		rs := ln.resequencer(msg.from)
		if rs == nil {
			// Reports from a process that is no longer our child (in flight
			// across a repair); they belong to the new parent's stream now.
			ln.m.stale.Add(int64(len(reps)))
			return
		}
		ln.c.emitEvent(obsv.Event{Kind: obsv.ReportRecv, Node: ln.id, Peer: msg.from,
			Seq: reps[0].LinkSeq, Count: len(reps)})
		w := ln.w
		for i := range reps {
			if rs.AcceptNext(reps[i].LinkSeq) {
				ln.ingest(msg.from, reps[i:i+1]) // in order: straight from the batch
				continue
			}
			w.rdy = rs.AcceptInto(&reps[i], w.rdy[:0])
			ln.ingest(msg.from, w.rdy)
			clear(w.rdy)
		}
		if msg.batch != nil {
			msg.batch.recycle()
		}
		ln.gaugeReseq()
	case msgAttach:
		ln.m.msgsIn.Add(1)
		ln.alive(msg.from)
		ln.onAttach(msg.from, msg.ext.att)
	case msgHeartbeat:
		ln.m.heartbeats.Add(1)
		if w := ln.watched.Of(msg.from); w != nil {
			w.Beat(msg.born)
		}
		hb := &msg.ext.hb
		if msg.from == ln.parent && (hb.rootSeeking || ln.rep != nil) {
			ln.getRep().rootSeekingHB = hb.rootSeeking
		}
		if hb.covered != nil && ln.resequencer(msg.from) != nil {
			ln.setCovered(msg.from, hb.covered)
		}
	case msgHbTick:
		ln.w.born = 0 // no observation's stamp: a child drop may deliver detections
		ln.heartbeat(msg.born)
	case msgHbCheck:
		ln.w.born = 0
		if w := ln.watched.Of(msg.from); w != nil {
			ln.check(w, msg.born+1, 0)
		}
	case msgSeekTimeout:
		ln.getSeeker().OnTimeout(msg.seq)
	case msgSeekBackoff:
		ln.getSeeker().OnBackoff(msg.seq)
	}
}

// ingest feeds a resequencer's released run — in-order reports from one
// child — into the detector, by reference. Consecutive reports of one
// reconfiguration epoch go in as one batch (Algorithm 1 line 2: enqueue all,
// then detect per exposed head); an epoch advance in the middle of the run
// means the child's subtree changed and its stream restarted, so the queued
// remainder of the old stream is discarded before the new epoch's reports
// enter.
func (ln *liveNode) ingest(from int, ready []repair.Ref) {
	for i := 0; i < len(ready); {
		if ln.epochs.Observe(from, ready[i].Epoch) {
			ln.node.ResetSource(from)
		}
		ivs := ln.w.ivs[:0]
		j := i
		for ; j < len(ready) && ready[j].Epoch == ready[i].Epoch; j++ {
			ivs = append(ivs, ready[j].Iv)
		}
		ln.deliver(ln.node.OnRefs(from, ivs))
		clear(ivs)
		ln.w.ivs = ivs[:0]
		i = j
	}
}

// deliver logs a batch of detections, tells the sink — on this node's worker,
// so SolutionFound events keep the node's causal order — and reports each
// aggregate upward. dets is the worker region's result buffer
// (core.Node.OnInterval): each Detection is copied out here once, into a
// record carved from that region, before any node is called again; the
// report and the parent's queue refer to the record's Agg.
func (ln *liveNode) deliver(dets []core.Detection) {
	for i := range dets {
		rec := ln.w.reg.Keep(&dets[i])
		atRoot := ln.parent == tree.None
		ln.m.detections.Add(1)
		ln.noteLatency()
		if ln.log.n == ln.log.slots {
			ln.log.link(&ln.w.chunks.Carve(1)[0])
		}
		ln.log.add(Detection{Node: ln.id, AtRoot: atRoot, Det: rec})
		ln.c.emitEvent(obsv.Event{Kind: obsv.SolutionFound, Node: ln.id, Peer: obsv.NoPeer,
			Seq: rec.Agg.Seq, Count: 1, AtRoot: atRoot, Agg: rec.Agg, Set: rec.Set})
		if !atRoot {
			ln.report(&rec.Agg)
		}
	}
}

// noteLatency records one observe→SolutionFound measurement: a detection was
// just found whose triggering cascade began with an Observe stamped at
// the drain's born (UnixNano). The clock is read once per handled message, not per
// detection — a handle's detections are microseconds apart, and the read was
// 3 % of a wide node's CPU.
func (ln *liveNode) noteLatency() {
	h, w := ln.c.latHist, ln.w
	if h == nil || w.born <= 0 {
		return
	}
	if w.foundAt == 0 {
		w.foundAt = time.Now().UnixNano()
	}
	if d := w.foundAt - w.born; d > 0 {
		h.Observe(float64(d) / 1e9)
	}
}

// report ships an aggregate to the parent — immediately on a racing delayed
// path, or into the drain's buffer under AdaptiveFlush. Reports to a crashed
// parent are lost (its mailbox drains unhandled), exactly like in-flight
// messages to a crashed process.
func (ln *liveNode) report(agg *interval.Interval) {
	ln.lastAgg = agg
	ln.emit(agg)
}

// resendLast re-reports the most recent aggregate to a newly adopted parent
// (paper §III-B / Figure 2(c)).
func (ln *liveNode) resendLast() {
	if ln.lastAgg == nil || ln.parent == tree.None {
		return
	}
	ln.emit(ln.lastAgg)
}

// emit assigns the next link sequence number and either sends the report or,
// under AdaptiveFlush, buffers it until the end of the current mailbox drain
// (runNode). The drain's own credits cover the buffer, so Drain and Close
// cover buffered reports; a drain that holds none (failure-detector timers
// only) takes one here, at first buffer.
func (ln *liveNode) emit(agg *interval.Interval) {
	pl := repair.Ref{Iv: agg, LinkSeq: ln.outSeq, Epoch: ln.epochs.Stamp()}
	ln.outSeq++
	if !ln.c.cfg.AdaptiveFlush {
		ln.m.msgsOut.Add(1)
		ln.c.emitEvent(obsv.Event{Kind: obsv.ReportSent, Node: ln.id, Peer: ln.parent, Seq: pl.LinkSeq, Count: 1})
		ln.c.send(ln.parent, message{kind: msgReport, from: ln.id, seq: pl.LinkSeq, epoch: pl.Epoch, agg: pl.Iv, born: ln.w.born}, ln.delay())
		return
	}
	w := ln.w
	w.bufferBorn()
	if w.outBuf == nil {
		w.outBuf = batchPool.Get().(*reportBatch)
	}
	w.outBuf.reps = append(w.outBuf.reps, pl)
	if w.credits == 0 && ln.c.credit() {
		w.credits = 1
	}
}

// bufferBorn folds the current handle's observation stamp into the buffered
// flush's: a coalesced batch carries the oldest stamp among its reports, so
// latency attribution never flatters coalescing.
func (w *staging) bufferBorn() {
	if w.born > 0 && (w.bufBorn == 0 || w.born < w.bufBorn) {
		w.bufBorn = w.born
	}
}

// flushReports sends the buffered reports to the parent as one message (one
// wire frame in distributed mode), on a credit the drain holds if held
// (reporting whether it took it). Runs on the node's worker at the end of a
// drain, and synchronously before a parent switch — buffered sequence
// numbers belong to the old link, so they must go (or be lost) there.
func (ln *liveNode) flushReports(held bool) (spent bool) {
	w := ln.w
	batch, born := w.outBuf, w.bufBorn
	if batch == nil {
		return false
	}
	w.outBuf, w.bufBorn = nil, 0
	if ln.parent == tree.None {
		batch.recycle()
		return false
	}
	ln.m.msgsOut.Add(1)
	ln.m.batchFlushes.Add(1)
	ln.c.emitEvent(obsv.Event{Kind: obsv.ReportSent, Node: ln.id, Peer: ln.parent,
		Seq: batch.reps[0].LinkSeq, Count: len(batch.reps)})
	return ln.c.sendBatch(ln.parent, ln.id, batch, born, ln.delay(), held)
}

// dropChild removes a dead or reassigned child's queue, returning the
// detections the removal unblocked.
func (ln *liveNode) dropChild(child int) []core.Detection {
	ln.reseq = slices.DeleteFunc(ln.reseq, func(s childSeq) bool { return s.child == child })
	if ln.rep != nil {
		delete(ln.rep.covered, child)
		ln.rep.ownCov = nil
	}
	ln.watched.Drop(child)
	ln.epochs.Forget(child)
	ln.epochs.Bump()
	ln.gaugeReseq()
	return ln.node.RemoveChild(child)
}

// alive notes a frame from peer in distributed mode: whatever a neighbour
// sends shows it alive, though only beats, with their promised cadence, say
// when the next is due.
func (ln *liveNode) alive(peer int) {
	if !ln.c.remote {
		return
	}
	if w := ln.watched.Of(peer); w != nil {
		w.Alive(ln.c.now())
	}
}

// heartbeat is one tick of the failure detector: beat, then check every
// watched neighbour's silence against what its link has earned (repair.Link).
// In single-process mode beats are atomic timestamps, not messages: the wheel
// publishes each node's beacon as its tick fires and a checker samples the
// difference of successive beacon values, so liveness traffic stays out of the
// quiescence ledger and an idle cluster can stop while beats still flow. In
// distributed mode beats are heartbeat messages — carrying the covered set
// (fed upward into the parent's) and the root-seeking flag (propagated
// downward so a dangling tree refuses adoptions) — and handle samples their
// inter-arrival.
//
// Silence is judged as of when the tick was due: a late tick's own lateness is
// never the peer's. Silence this node cannot vouch for at all restarts the
// count: every tick inside StartupGrace (the peer may not have launched), and
// any tick handled later than a link's slack after it was due — the wheel or
// the worker was held up, beats may be waiting behind the tick, and what it
// measured is its own pause (counted in fdPauses).
func (ln *liveNode) heartbeat(due int64) {
	c := ln.c
	now := c.now()
	if c.remote {
		beat := message{kind: msgHeartbeat, from: ln.id, epoch: ln.epochs.Peek(), born: now,
			ext: &msgExt{hb: hbInfo{rootSeeking: ln.rep != nil && ln.rep.rootSeekingHB || ln.seeking(), covered: ln.ownCovered()}}}
		for i := range ln.watched {
			c.send(ln.watched[i].Peer, beat, 0)
		}
	}
	late, next := now-due, due+int64(c.cfg.HbEvery)
	grace := c.remote && now < int64(c.cfg.StartupGrace)
	paused, worst := false, int64(0)
	for i := 0; i < len(ln.watched); {
		w := &ln.watched[i]
		extra := ln.unvouched(w)
		if grace || late > w.Slack()+extra {
			w.Alive(now)
			paused = paused || !grace
		}
		worst = max(worst, w.Timeout()+extra)
		peer := w.Peer
		ln.check(w, due, next)
		// A suspected child leaves the list, and the next one takes its place.
		if i < len(ln.watched) && ln.watched[i].Peer == peer {
			i++
		}
	}
	ln.m.fdTimeout.Store(worst)
	if paused {
		ln.m.fdPauses.Add(1)
	}
}

// unvouched is the patience owed a peer hosted elsewhere on top of what its
// link has earned: never less than a fresh link's eight beats in all. Nothing
// validates that peer's suspicion (see suspect), a wrong one reconfigures the
// tree for good, and its beats cross goroutine hand-offs a busy process holds
// up for beats at a time (EXPERIMENTS, PR 23). A hosted peer's suspicion is
// checked against the kill record, so its link is as quick as it has earned.
func (ln *liveNode) unvouched(w *repair.Watched) int64 {
	if ln.c.hosted(w.Peer) != nil {
		return 0
	}
	return max(8*int64(ln.c.cfg.HbEvery)-w.Timeout(), 0)
}

// check brings one watched link up to date and acts on its silence as of asOf:
// past the deadline the peer is suspected. A deadline before next, the tick
// after this one (0: this is no tick), gets one uncredited one-shot on the
// wheel for that instant, so a crash is noticed when the silence is long
// enough, not a tick later; a deadline that close means a beat is overdue, so
// a healthy fleet arms none. The one-shot carries the deadline it was armed
// for and suspects if that still stands: whatever arrived before it fired is
// ahead of it in the mailbox. w may be gone from the list on return.
func (ln *liveNode) check(w *repair.Watched, asOf, next int64) {
	c := ln.c
	if ln.rep != nil && ln.rep.suspected[w.Peer] {
		return
	}
	if pn := c.hosted(w.Peer); !c.remote && pn != nil {
		w.Beat(pn.beat.Load())
	}
	switch dl := w.Deadline() + ln.unvouched(w); {
	case dl < asOf:
		ln.suspect(w.Peer)
	case dl < next:
		c.sched.wheel.schedule(ln, message{kind: msgHbCheck, from: w.Peer, born: dl}, time.Duration(dl-asOf), 0)
	}
}

// ownCovered returns this node's covered set, ascending: itself plus the last
// covered set each child reported (or the initial topology's subtree before a
// child's first beat). Distributed mode only; mirrors the simulator's
// bookkeeping. Beats and attach requests carry the slice to other nodes, so a
// change builds a new one.
func (ln *liveNode) ownCovered() []int {
	rep := ln.getRep()
	if rep.ownCov == nil {
		out := []int{ln.id}
		for _, cov := range rep.covered {
			out = append(out, cov...)
		}
		sort.Ints(out)
		rep.ownCov = slices.Compact(out)
	}
	return rep.ownCov
}

// suspect handles a stale beacon or heartbeat silence. For a peer this
// cluster hosts, the suspicion is validated against the failure injector's
// record before acting: a node starved by the scheduler can miss beats
// without having crashed, and acting on a false suspicion would wrongly
// reconfigure the tree. (The check stands in for the perfect failure
// detector the paper's crash-stop model assumes.) A remote peer offers no
// such oracle — heartbeat silence is all the evidence there is, which is
// exactly the paper's model: the timeout plus crash-stop assumption makes
// the detector perfect, and the link's learned timeout (repair.Link) is what
// absorbs real network and scheduling jitter.
func (ln *liveNode) suspect(peer int) {
	c := ln.c
	if c.hosted(peer) != nil {
		c.mu.Lock()
		dead := c.killed[peer]
		if dead && peer == ln.parent {
			c.seeking[ln.id] = true
		}
		c.mu.Unlock()
		if !dead {
			return
		}
	} else if peer == ln.parent {
		c.mu.Lock()
		c.seeking[ln.id] = true
		c.mu.Unlock()
	}
	ln.getRep().suspected[peer] = true
	ln.c.emitEvent(obsv.Event{Kind: obsv.NodeSuspected, Node: ln.id, Peer: peer, Count: 1})
	switch {
	case peer == ln.parent:
		// Our subtree is orphaned: renegotiate a parent (paper §III-F).
		ln.getSeeker().Start()
	case ln.node.HasSource(peer):
		// A child died: its whole subtree is gone from ours. Drop the queue;
		// the orphaned grandchildren reattach on their own.
		ln.m.childDrops.Add(1)
		ln.deliver(ln.dropChild(peer))
	}
}

// getSeeker and getAdopter return the node's orphan-root and candidate state
// machines, building each on first use.
func (ln *liveNode) getSeeker() *repair.Seeker {
	if rep := ln.getRep(); rep.seeker == nil {
		rep.seeker = repair.NewSeeker(ln.id, ln)
	}
	return ln.rep.seeker
}

func (ln *liveNode) getAdopter() *repair.Adopter {
	if rep := ln.getRep(); rep.adopter == nil {
		rep.adopter = repair.NewAdopter(ln.id, ln)
	}
	return ln.rep.adopter
}

// seeking reports whether this node is renegotiating a parent, without
// forcing the seeker into existence.
func (ln *liveNode) seeking() bool {
	return ln.rep != nil && ln.rep.seeker != nil && ln.rep.seeker.Seeking()
}

// setCovered records a child's covered set. A beat that repeats the last one
// — nearly every beat — changes nothing.
func (ln *liveNode) setCovered(peer int, cov []int) {
	rep := ln.getRep()
	if old, ok := rep.covered[peer]; ok && slices.Equal(old, cov) {
		return
	}
	rep.covered[peer] = cov
	rep.ownCov = nil
}

// delay draws a random per-message delivery delay, on the node's worker.
func (ln *liveNode) delay() time.Duration {
	return time.Duration(ln.rng.Int64N(int64(ln.c.cfg.MaxDelay)))
}
