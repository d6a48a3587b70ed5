package livenet

import (
	"fmt"
	"sort"

	"hierdet/internal/repair"
	"hierdet/internal/tree"
)

// This file adapts the shared reattachment protocol of internal/repair to
// the live runtime: the orphan-root and candidate state machines run on the
// node's goroutine (driven from handle), messages travel through the same
// racing delayed channels as reports — or over the transport in distributed
// mode — and timers are real timers holding quiescence credits.
//
// The host methods are mode-split. In single-process mode the cluster's
// topology mirror is exact under the cluster mutex (Kill and TryAttach keep
// it so), and validation and the attach share one lock hold, so no
// interleaving can slip a cycle in between them. Distributed mode has no
// exact mirror: like the simulator's distributed-repair mode, covered sets
// ride on heartbeats and lag by up to one period, so validation uses local
// knowledge only and cycle freedom rests on the protocol's own guards (the
// covered-set test, the root-seeking flag, the smaller-id-anchors
// tie-break). That is the honest distributed setting the paper's §III-F
// assumes; a production protocol would add epoch validation in its messages.

// onAttach dispatches an attach-protocol message to the shared state
// machines.
func (ln *liveNode) onAttach(from int, msg repair.Msg) {
	switch msg.Type {
	case repair.Req:
		c := ln.c
		var rootSeeking bool
		if c.remote {
			// Heartbeat-fed, like the simulator: the parent's beats say
			// whether this tree's root is still renegotiating a parent.
			rootSeeking = ln.rep != nil && ln.rep.rootSeekingHB
		} else {
			c.mu.Lock()
			rootSeeking = c.rootSeekingLocked(ln.id)
			c.mu.Unlock()
		}
		ln.getAdopter().OnRequest(from, msg, ln.seeking(), rootSeeking)
	case repair.Grant:
		ln.getSeeker().OnGrant(from, msg)
	case repair.Confirm:
		ln.getAdopter().OnConfirm(msg)
	case repair.Abort:
		ln.getAdopter().OnAbort(msg)
	default:
		panic(fmt.Sprintf("livenet: node %d got unknown attach type %v", ln.id, msg.Type))
	}
}

// --- repair.SeekerHost / repair.AdopterHost ---

// Candidates returns the live neighbours outside this node's subtree,
// ascending. The neighbour pool comes from the static communication graph;
// the subtree comes from the mirror in single-process mode and from the
// heartbeat-fed covered sets in distributed mode, where suspicion (not the
// killed record, which only covers local nodes) excludes dead peers.
func (ln *liveNode) Candidates() []int {
	c := ln.c
	covered := make(map[int]bool)
	if c.remote {
		for _, p := range ln.ownCovered() {
			covered[p] = true
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.remote {
		for _, p := range c.topo.Subtree(ln.id) {
			covered[p] = true
		}
	}
	var out []int
	for _, nb := range c.topo.Neighbors(ln.id) {
		if !covered[nb] && !c.killed[nb] && !(ln.rep != nil && ln.rep.suspected[nb]) {
			out = append(out, nb)
		}
	}
	sort.Ints(out)
	return out
}

// Covered returns this node's current subtree — per the mirror in
// single-process mode, per the heartbeat-fed sets in distributed mode —
// sorted.
func (ln *liveNode) Covered() []int {
	c := ln.c
	if c.remote {
		return ln.ownCovered()
	}
	c.mu.Lock()
	cov := c.topo.Subtree(ln.id)
	c.mu.Unlock()
	sort.Ints(cov)
	return cov
}

// NextReqID implements repair.SeekerHost. Request ids must never repeat
// across the whole deployment (a candidate blacklists aborted ids), and in
// distributed mode the participants share no counter — so the cluster-local
// sequence is qualified with the seeking node's id, which is globally unique
// by construction. Kept to 32 bits so the id survives the wire encoding.
func (ln *liveNode) NextReqID() int {
	c := ln.c
	c.mu.Lock()
	c.reqSeq++
	seq := c.reqSeq
	c.mu.Unlock()
	return seq<<16 | (ln.id & 0xffff)
}

// Send ships a protocol message over a racing delayed channel — or the
// transport — like any other message.
func (ln *liveNode) Send(to int, m repair.Msg) {
	ln.m.msgsOut.Add(1)
	ln.c.send(to, message{kind: msgAttach, from: ln.id, ext: &msgExt{att: m}}, ln.delay())
}

// ArmTimeout schedules the per-candidate grant timeout.
func (ln *liveNode) ArmTimeout(reqID int) {
	ln.c.post(ln.id, message{kind: msgSeekTimeout, seq: reqID}, ln.c.cfg.SeekTimeout)
}

// ArmBackoff schedules the between-rounds pause.
func (ln *liveNode) ArmBackoff(round int) {
	ln.c.post(ln.id, message{kind: msgSeekBackoff, seq: round}, ln.c.cfg.SeekTimeout)
}

// TryAttach validates a grant and performs the adoption. Single-process
// mode asks the topology mirror under one lock hold: the granter must still
// be alive and outside this node's subtree when the parent pointer flips, so
// concurrent repairs cannot close a cycle between the check and the attach.
// Distributed mode validates with local knowledge — the granter is not
// suspected dead and not in this node's own covered set — and does not touch
// the mirror, which no longer tracks remote reattachments.
func (ln *liveNode) TryAttach(granter int) bool {
	c := ln.c
	if c.remote {
		if ln.rep.suspected[granter] { // a seeker's node has its repair state
			return false
		}
		for _, p := range ln.ownCovered() {
			if p == granter {
				return false
			}
		}
		c.mu.Lock()
		if c.killed[granter] { // co-hosted granter crashed after granting
			c.mu.Unlock()
			return false
		}
		delete(c.seeking, ln.id)
		c.mu.Unlock()
		ln.rep.rootSeekingHB = false // refreshed by the new parent's beats
		ln.reparent(granter)
		return true
	}
	c.mu.Lock()
	if c.killed[granter] || c.topo.InSubtree(granter, ln.id) {
		c.mu.Unlock()
		return false
	}
	c.topo.SetParent(ln.id, granter)
	delete(c.seeking, ln.id)
	c.mu.Unlock()
	ln.reparent(granter)
	return true
}

// reparent points the node at its new parent (tree.None: it is a root now).
// Buffered reports go first, their sequence numbers belong to the old link;
// the old parent's estimate goes with it and the new one starts fresh.
func (ln *liveNode) reparent(to int) {
	ln.flushReports(false)
	ln.watched.Drop(ln.parent)
	ln.parent = to
	ln.outSeq = 0
	if to != tree.None {
		ln.watched.Add(to, ln.c.cfg.HbEvery, ln.c.now())
	}
	ln.m.repairs.Add(1)
}

// Attached runs after the adoption was confirmed to the granter.
func (ln *liveNode) Attached(granter int) {
	if ln.c.cfg.ResendLastOnAdopt {
		ln.resendLast()
	}
	ln.c.notifyRepair(ln.id, granter)
}

// Partitioned makes the node a standalone root: detection of the partial
// predicate over its own subtree continues (paper §III-F).
func (ln *liveNode) Partitioned() {
	c := ln.c
	c.mu.Lock()
	delete(c.seeking, ln.id)
	c.mu.Unlock()
	ln.rep.rootSeekingHB = false // this node is the root now, and it is done seeking
	ln.reparent(tree.None)
	c.notifyRepair(ln.id, tree.None)
}

// HasSource implements repair.AdopterHost.
func (ln *liveNode) HasSource(child int) bool { return ln.node.HasSource(child) }

// Adopt reserves the child queue backing a grant. In distributed mode the
// request's declared covered set seeds the failure detector's bookkeeping
// for the new child (its own heartbeats refresh both entries).
func (ln *liveNode) Adopt(child int, covered []int) {
	ln.node.AddChild(child)
	ln.reseq = append(ln.reseq, childSeq{child: child})
	ln.watched.Add(child, ln.c.cfg.HbEvery, ln.c.now())
	if ln.c.remote {
		ln.setCovered(child, covered)
	}
	ln.epochs.Forget(child)
	ln.epochs.Bump()
}

// Unadopt releases an aborted reservation, delivering any detections the
// queue removal unblocked.
func (ln *liveNode) Unadopt(child int) {
	ln.deliver(ln.dropChild(child))
}
