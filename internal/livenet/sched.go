package livenet

import (
	"sync"

	"hierdet/internal/interval"
)

// sched.go — the delivery plane's mailbox shards and their drain (DESIGN §7).
//
// Every node owns one bounded mailbox shard that producers append to and a
// worker drains in one swap. A node with mail is "scheduled" — queued under
// its cluster's seat on the substrate (shared.go) — and one worker runs it at
// a time, so its state stays single-writer with no goroutine of its own.
// External producers (Observe, ObserveBatch) block at the bound; internal
// cascade traffic never does: a worker blocked on a sibling's full shard
// could deadlock the pool, and the detection math bounds the cascade.

// mailbox is one node's delivery shard. A msgLocal's interval goes into
// locals, not into the message (whose seq indexes it), so the messages stay
// one cache line each; a drain swaps both for its worker's spares (staging).
type mailbox struct {
	mu        sync.Mutex
	notFull   sync.Cond
	buf       []message
	locals    []interval.Interval
	scheduled bool
	high      int // high-water mark of len(buf), for Metrics
}

func (mb *mailbox) init() { mb.notFull.L = &mb.mu }

// enqueue appends msg to ln's shard — local, if not nil, is a msgLocal's
// interval — and queues the node under the cluster's seat if it was idle.
// external marks producer traffic subject to the bound.
func (c *Cluster) enqueue(ln *liveNode, msg message, local *interval.Interval, external bool) {
	mb := &ln.mb
	mb.mu.Lock()
	if external {
		for len(mb.buf) >= c.bound {
			mb.notFull.Wait()
		}
	}
	if local != nil {
		msg.seq = len(mb.locals)
		mb.locals = append(mb.locals, *local)
	}
	mb.buf = append(mb.buf, msg)
	if len(mb.buf) > mb.high {
		mb.high = len(mb.buf)
	}
	schedule := !mb.scheduled
	mb.scheduled = true
	mb.mu.Unlock()
	if schedule {
		c.seat.submit(ln)
	}
}

// runNode drains one swap of ln's mailbox — one drain per pop keeps the pool
// fair across nodes while still handing the detector whole batches —
// returning the number of messages handled (the substrate counts the drain
// and charges it against the cluster's round-robin deficit). The scheduled
// flag stays set from the pop until the shard is observed empty, so no second
// worker can claim the node concurrently. The worker swaps its spares in for
// the shard's arrays and keeps those, cleared, for the next node it runs.
func (c *Cluster) runNode(ln *liveNode) int {
	mb, w := &ln.mb, ln.w
	mb.mu.Lock()
	batch, locals := mb.buf, mb.locals
	mb.buf, mb.locals = w.spare, w.spareLocals
	mb.mu.Unlock()
	mb.notFull.Broadcast()

	// After the ledger drained and the state reached stopped, the only
	// messages left are uncredited heartbeat ticks from the wheel's last
	// turns; dropping them keeps post-Close callbacks (child drops, repairs,
	// detections) from firing into a cluster the caller believes final.
	stopped := c.halted.Load()

	// The drain's credits go back together, after its flush and the counter
	// mirror: an empty ledger means Metrics shows everything every drain did.
	// Until then they cover whatever the handlers buffer (emit).
	w.credits = 0
	for i := range batch {
		if creditedKind(batch[i].kind) {
			w.credits++
		}
	}
	down := ln.down.Load()
	for i := range batch {
		if !down && !stopped {
			ln.handle(&batch[i], locals)
		}
		down = ln.down.Load()
	}
	clear(batch) // release interval/clock references
	clear(locals)

	// AdaptiveFlush: the drain boundary is the coalescing edge. Everything
	// this drain's handlers emitted leaves as one batch now — the report
	// burst of one delivery batch, with no timer and no added latency — on
	// one of the drain's credits, which it keeps instead of returning. A
	// node that crashed mid-drain loses its buffer, like any of its in-flight
	// messages.
	credits := w.credits
	if w.outBuf != nil {
		if down || stopped {
			w.outBuf, w.bufBorn = nil, 0
		} else if ln.flushReports(credits > 0) {
			credits--
		}
	}
	w.credits = 0
	ln.syncCoreStats()
	if credits > 0 {
		c.done(credits)
	}

	w.spare, w.spareLocals = batch[:0], locals[:0]
	mb.mu.Lock()
	requeue := len(mb.buf) > 0
	if !requeue {
		mb.scheduled = false
	}
	mb.mu.Unlock()
	if requeue {
		c.seat.submit(ln)
	}
	return len(batch)
}

// creditedKind reports whether a message kind holds a ledger credit. Only the
// failure detector's timers, tick and deadline check, are uncredited:
// background work that must not keep an idle cluster from stopping.
func creditedKind(k msgKind) bool { return k != msgHbTick && k != msgHbCheck }

// depths reads the shard's current depth and its high-water mark.
func (mb *mailbox) depths() (current, highWater int) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.buf), mb.high
}
