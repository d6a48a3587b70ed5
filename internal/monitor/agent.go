package monitor

import (
	"fmt"
	"sort"

	"hierdet/internal/core"
	"hierdet/internal/interval"
	"hierdet/internal/repair"
	"hierdet/internal/simnet"
	"hierdet/internal/tree"
)

// ivlPayload is one hierarchical child→parent report: the shared
// repair.Report. LinkSeq is a per-link counter (restarting at zero on every
// adoption) that lets the receiver resequence the non-FIFO channel; Epoch
// counts the sender's subtree reconfigurations (see repair.Epochs for why
// the receiver must reset the stream on an epoch advance).
type ivlPayload = repair.Report

// ivlBatch is the wire payload of a KindIvl message: one or more reports.
// Without batching every message carries exactly one; with
// Config.BatchWindow > 0 a node buffers reports per link and flushes them
// as a single message — an optimization beyond the paper that trades
// detection latency (up to one window) for per-message overhead.
type ivlBatch []ivlPayload

// agent runs one process of the hierarchical detector: its core.Node, its
// tree links, per-child resequencers and heartbeats.
type agent struct {
	r      *Runner
	id     int
	node   *core.Node
	parent int
	outSeq int // per-current-link counter for reports to parent

	reseq     map[int]*repair.Resequencer[ivlPayload] // child id → resequencer
	lastHeard map[int]simnet.Time                     // peer id → last heartbeat time
	lastAgg   *interval.Interval                      // most recent aggregate, for resend-on-adopt
	staleIvls int                                     // reports from ex-children, dropped

	// Batching state (Config.BatchWindow > 0): reports buffered for the
	// current parent and whether a flush timer is pending.
	outBuf       ivlBatch
	flushPending bool

	ivScratch []interval.Interval // reused batch-ingestion staging

	// epochs stamps outgoing reports and tracks each child stream's last
	// seen epoch (shared with the live runtime; see repair.Epochs).
	epochs *repair.Epochs

	// Distributed-repair state: the shared attach-protocol state machines
	// (the agent implements their host interfaces in attach.go) plus the
	// heartbeat-fed bookkeeping they draw on.
	seeker        *repair.Seeker
	adopter       *repair.Adopter
	covered       map[int][]int // child → covered set it last reported
	rootSeeking   bool          // this tree's root is currently seeking (via parent hb)
	suspectedDead map[int]bool
}

func (r *Runner) buildHierarchical() {
	coreCfg := core.Config{N: r.topo.N(), Strict: r.cfg.Strict, KeepMembers: r.cfg.KeepMembers}
	for _, id := range r.topo.AliveNodes() {
		a := &agent{
			r:             r,
			id:            id,
			node:          core.NewNode(id, coreCfg, true),
			parent:        r.topo.Parent(id),
			reseq:         make(map[int]*repair.Resequencer[ivlPayload]),
			lastHeard:     make(map[int]simnet.Time),
			covered:       make(map[int][]int),
			suspectedDead: make(map[int]bool),
			epochs:        repair.NewEpochs(),
		}
		a.seeker = repair.NewSeeker(id, a)
		a.adopter = repair.NewAdopter(id, a)
		for _, c := range r.topo.Children(id) {
			a.node.AddChild(c)
			a.reseq[c] = repair.NewResequencer[ivlPayload]()
			a.covered[c] = r.topo.Subtree(c)
		}
		r.agents[id] = a
		r.sim.Register(id, a)
	}
	if r.cfg.HbEvery > 0 {
		for _, id := range r.topo.AliveNodes() {
			// Stagger first beats so the network does not pulse in lockstep.
			r.sim.After(id, 1+simnet.Time(r.rng.Int63n(int64(r.cfg.HbEvery))), "hb", nil)
			r.sim.After(id, r.cfg.HbTimeout, "hbcheck", nil)
		}
	}
}

// scheduleLocalIntervals converts the recorded execution into timed
// completion events: process p's round-k interval completes at
// (k+1)·Spacing plus per-event jitter, preserving per-process order.
func (r *Runner) scheduleLocalIntervals() {
	jitterSpan := int64(r.cfg.Spacing / 2)
	for p, stream := range r.cfg.Exec.Streams {
		if !r.topo.Alive(p) {
			continue
		}
		for k, iv := range stream {
			jitter := simnet.Time(0)
			if jitterSpan > 0 {
				jitter = simnet.Time(r.rng.Int63n(jitterSpan))
			}
			at := simnet.Time(k+1)*r.cfg.Spacing + jitter
			r.sim.After(p, at, "local", iv)
		}
	}
}

// OnMessage implements simnet.Handler.
func (a *agent) OnMessage(at simnet.Time, msg simnet.Message) {
	switch msg.Kind {
	case KindIvl:
		batch := msg.Payload.(ivlBatch)
		rs, ok := a.reseq[msg.From]
		if !ok {
			// Report from a process that is no longer our child (in flight
			// across a repair); it belongs to the new parent's stream now.
			a.staleIvls += len(batch)
			return
		}
		for _, pl := range batch {
			a.ingest(at, msg.From, rs.Accept(pl))
		}
	case KindHb:
		a.lastHeard[msg.From] = at
		if pl, ok := msg.Payload.(hbPayload); ok {
			if msg.From == a.parent {
				a.rootSeeking = pl.RootSeeking
			}
			if _, isChild := a.reseq[msg.From]; isChild && pl.Covered != nil {
				a.covered[msg.From] = pl.Covered
			}
		}
	case KindAttach:
		a.onAttach(at, msg.From, msg.Payload.(repair.Msg))
	default:
		panic(fmt.Sprintf("monitor: agent %d got unknown message kind %q", a.id, msg.Kind))
	}
}

// ingest feeds a resequencer's released run — in-order reports from one
// child — into the detector. Consecutive reports of one reconfiguration
// epoch enter as a single batch (Algorithm 1 line 2 amortized over the run,
// via core's OnIntervals); an epoch advance inside the run means the child's
// subtree changed and its stream restarted, so the queued remainder of the
// old stream is discarded — and our own output stream restarts in turn —
// before the new epoch's reports enter.
func (a *agent) ingest(at simnet.Time, from int, ready []ivlPayload) {
	for i := 0; i < len(ready); {
		if a.epochs.Observe(from, ready[i].Epoch) {
			a.node.ResetSource(from)
		}
		j := i + 1
		for j < len(ready) && ready[j].Epoch == ready[i].Epoch {
			j++
		}
		if j == i+1 {
			a.r.record(at, a.node.OnInterval(from, ready[i].Iv), a.id)
		} else {
			ivs := a.ivScratch[:0]
			for k := i; k < j; k++ {
				ivs = append(ivs, ready[k].Iv)
			}
			a.r.record(at, a.node.OnIntervals(from, ivs), a.id)
			a.ivScratch = ivs[:0]
		}
		i = j
	}
}

// OnTimer implements simnet.Handler.
func (a *agent) OnTimer(at simnet.Time, kind simnet.Kind, data any) {
	switch kind {
	case "local":
		a.r.record(at, a.node.OnInterval(a.id, data.(interval.Interval)), a.id)
	case "hb":
		rootSeeking := a.rootSeeking || a.seeker.Seeking()
		var ownCov []int
		if a.r.cfg.DistributedRepair {
			ownCov = a.ownCovered()
		}
		for _, peer := range a.peers() {
			a.r.sim.Send(a.id, peer, KindHb, hbPayload{Covered: ownCov, RootSeeking: rootSeeking})
		}
		if at < a.r.horizon {
			a.r.sim.After(a.id, a.r.cfg.HbEvery, "hb", nil)
		}
	case "hbcheck":
		for _, peer := range a.peers() {
			last := a.lastHeard[peer]
			if at-last > a.r.cfg.HbTimeout {
				a.r.suspect(at, a.id, peer)
			}
		}
		if at < a.r.horizon {
			a.r.sim.After(a.id, a.r.cfg.HbEvery, "hbcheck", nil)
		}
	case "ivlflush":
		a.flushBatch()
	case "seekTimeout":
		a.seeker.OnTimeout(data.(int))
	case "seekBackoff":
		a.seeker.OnBackoff(data.(int))
	default:
		panic(fmt.Sprintf("monitor: agent %d got unknown timer %q", a.id, kind))
	}
}

// peers returns the agent's current tree neighbours (parent first, then
// children ascending). The order is deterministic on purpose: peers drive
// message sends, and every send draws from the seeded delay stream, so map
// iteration order here would make whole runs irreproducible.
func (a *agent) peers() []int {
	out := make([]int, 0, len(a.reseq)+1)
	if a.parent != tree.None {
		out = append(out, a.parent)
	}
	kids := make([]int, 0, len(a.reseq))
	for c := range a.reseq {
		kids = append(kids, c)
	}
	sort.Ints(kids)
	return append(out, kids...)
}

// sendAggregate ships one aggregate to the current parent, immediately or —
// with batching enabled — buffered until the window's flush.
func (a *agent) sendAggregate(at simnet.Time, agg interval.Interval) {
	cp := agg
	a.lastAgg = &cp
	a.r.res.AggSentByDepth[a.r.topo.Depth(a.id)]++
	pl := ivlPayload{Iv: agg, LinkSeq: a.outSeq, Epoch: a.epochs.Stamp()}
	a.outSeq++
	if a.r.cfg.BatchWindow <= 0 {
		a.r.sim.Send(a.id, a.parent, KindIvl, ivlBatch{pl})
		return
	}
	a.outBuf = append(a.outBuf, pl)
	if !a.flushPending {
		a.flushPending = true
		a.r.sim.After(a.id, a.r.cfg.BatchWindow, "ivlflush", nil)
	}
}

// flushBatch sends every buffered report as one message.
func (a *agent) flushBatch() {
	a.flushPending = false
	if len(a.outBuf) == 0 || a.parent == tree.None {
		a.outBuf = nil
		return
	}
	a.r.sim.Send(a.id, a.parent, KindIvl, a.outBuf)
	a.outBuf = nil
}

// resendLast re-reports the most recent aggregate to a newly adopted parent
// (paper §III-B / Figure 2(c)): reports in flight to the dead parent are
// lost, but the latest solution the subtree found is not.
func (a *agent) resendLast(at simnet.Time) {
	if a.lastAgg == nil || a.parent == tree.None {
		return
	}
	a.r.sim.Send(a.id, a.parent, KindIvl, ivlBatch{{Iv: *a.lastAgg, LinkSeq: a.outSeq, Epoch: a.epochs.Stamp()}})
	a.outSeq++
}

// removeChild drops a failed or re-parented child. The node's own source
// set changed, so its output stream starts a new reconfiguration epoch.
func (a *agent) removeChild(child int) []core.Detection {
	delete(a.reseq, child)
	delete(a.lastHeard, child)
	delete(a.covered, child)
	a.epochs.Forget(child)
	a.epochs.Bump()
	return a.node.RemoveChild(child)
}

// addChild adopts a new child subtree; like removeChild, it bumps the
// node's own output epoch.
func (a *agent) addChild(child int) {
	a.node.AddChild(child)
	a.reseq[child] = repair.NewResequencer[ivlPayload]()
	a.lastHeard[child] = a.r.sim.Now()
	a.covered[child] = a.r.topo.Subtree(child)
	a.epochs.Forget(child)
	a.epochs.Bump()
}

// setParent repoints the agent at a new parent, restarting the link counter.
// Reports still buffered for the old link are flushed to it first (they
// carry the old link's sequence numbers; if the old parent is dead they are
// dropped, the same fate as in-flight messages).
func (a *agent) setParent(p int) {
	if len(a.outBuf) > 0 && a.parent != tree.None {
		a.flushBatch()
	}
	a.outBuf = nil
	a.parent = p
	a.outSeq = 0
	if p != tree.None {
		a.lastHeard[p] = a.r.sim.Now()
	}
}
