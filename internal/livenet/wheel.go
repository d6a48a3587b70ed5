package livenet

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// wheel is a hashed timer wheel: every delayed message, repair timeout and
// heartbeat tick it carries is one entry in one ring driven by one goroutine,
// so the timer side of the delivery plane costs a single goroutine regardless
// of load — which is what lets the scale benchmarks run p ≥ 512 trees
// without drowning the scheduler.
//
// A wheel belongs to a scheduler substrate, not to a cluster: each entry
// remembers its node, and a node knows its cluster, so one wheel serves a
// whole tenant plane exactly as it serves a standalone cluster's one-seat
// substrate. cancel(c) surgically removes one cluster's entries when that
// cluster stops underneath a wheel that keeps running.
//
// Layout: a power-of-two ring of slots, each a linked list of entries. An
// entry due in d is placed ceil(d/tick)-1 slots ahead of the cursor, with a
// rounds counter absorbing delays longer than one rotation. The goroutine
// sleeps until the next slot boundary (absolute deadlines against the wheel
// epoch, so processing jitter never accumulates), expires the slot, and
// re-arms recurring entries.
//
// Wake-ups follow due work, not elapsed ticks. Long timers (coarseTicks and
// up: heartbeat ticks, seek timeouts) are rounded up
// to a coarse boundary, so a cluster's worth of them shares a few slots; and
// when the napMinTicks slots ahead of the cursor are all empty — nothing but
// such timers pending — the goroutine naps to the next occupied slot in one
// sleep instead of ticking through the gap. An insert that lands inside a
// nap positions itself against the clock (the cursor is stale) and wakes
// the goroutine if it is due before the nap ends. An empty wheel is the
// limiting case, a nap with no end: the epoch restarts on the next insert,
// and an idle cluster without heartbeats burns no timer wake-ups at all.
//
// Sleeps shorter than timerSleepMin go through a tickSleeper where there is
// one (see wheel_sleep_linux.go for why a time.Timer will not do); longer
// ones start on a time.Timer and finish on the sleeper.
//
// Lifecycle: entries that deliver credited messages hold their ledger credit
// from insertion (the caller takes it) until the delivery is handled, so
// Cluster.Close's drain covers everything the wheel still owes. cancel(c) —
// and, once every cluster has left, the substrate's stop() — runs after the
// drain: by then only uncredited recurring entries (heartbeat ticks) remain,
// and they are discarded without firing.
type wheel struct {
	tick time.Duration

	mu      sync.Mutex
	inserts int64 // schedule calls so far (re-arms are not inserts)
	slots   []*wheelEntry
	mask    int
	cursor  int       // slot the next advance will expire
	count   int       // live entries across all slots
	epoch   time.Time // time of tick 0 of the current busy period
	ticked  int64     // ticks the cursor has passed this busy period
	// napUntil is the tick by whose deadline the goroutine will be up: the
	// one it is sleeping toward across empty slots (math.MaxInt64: the wheel
	// is empty), lowered by each insert that wakes it for an earlier one — so
	// a burst of inserts wakes it once — or awake while it is ticking slot by
	// slot.
	napUntil int64
	// free is the entry freelist: expired one-shot and cancelled entries
	// recycle here instead of churning the allocator — at scale the wheel
	// turns over one entry per delayed message, the hottest allocation site
	// of the whole delivery plane.
	free *wheelEntry

	kick    chan struct{} // wake's token: ends a sleep on the timer (capacity 1)
	sleeper *tickSleeper  // short sleeps; nil where there is none
	stopped chan struct{}
	done    chan struct{} // closed when the wheel goroutine has exited

	// lagObserve, when set before the goroutine starts, receives in seconds
	// how far past its deadline each slot that fired an entry was expired
	// (the shared substrate feeds a histogram).
	lagObserve func(float64)

	// Scrape-safe observability mirrors: the last such lag, and total slots
	// expired across all busy periods (slots a nap or a catch-up skipped as
	// empty are not counted).
	lagNanos   atomic.Int64
	ticksTotal atomic.Int64
}

// wheelEntry is one scheduled delivery. Entries are owned by the wheel while
// queued and never shared, so they need no locks of their own.
type wheelEntry struct {
	ln     *liveNode
	msg    message
	rounds int
	// period re-arms the entry after each fire (heartbeat ticks). Recurring
	// entries are uncredited and die with the wheel — or earlier, when their
	// node is down or their cluster halted.
	period time.Duration
	next   *wheelEntry
}

// wheelSlots is the ring size. Delays land within one rotation as long as
// they are under wheelSlots×tick; longer ones (repair timeouts against a
// microsecond tick) ride the rounds counter.
const wheelSlots = 512

const (
	// awake is napUntil while the goroutine expires one slot per tick.
	awake = -1
	// coarseTicks is the delay from which an entry's deadline is rounded up
	// to a multiple of coarseCap or an eighth of the delay, whichever is
	// less: it fires at most 12.5 % (and 1 ms) late, on a boundary it shares
	// with the other long timers. Message delays, at most 8 ticks, stay exact.
	coarseTicks = 32
	coarseCap   = time.Millisecond
	// napMinTicks is how many empty slots ahead of the cursor make a nap.
	// Message delays span at most 8 ticks, so a gap this long means no
	// message is in flight and inserts that cut the nap short are rare;
	// shorter gaps are ticked through, which costs inserts nothing.
	napMinTicks = 8
	// timerOvershoot is how late a time.Timer can fire when every P is idle
	// (the runtime's poller rounds its timeout up to whole milliseconds), and
	// timerSleepMin the wait from which one takes the first part all the
	// same: it can be woken through a channel, and stopped short by its
	// overshoot it still covers half the wait.
	timerOvershoot = time.Millisecond
	timerSleepMin  = 2 * timerOvershoot
	forever        = time.Duration(math.MaxInt64)
)

func newWheel(tick time.Duration) *wheel {
	if tick < 20*time.Microsecond {
		tick = 20 * time.Microsecond
	}
	if tick > time.Millisecond {
		tick = time.Millisecond
	}
	return &wheel{
		tick:     tick,
		slots:    make([]*wheelEntry, wheelSlots),
		mask:     wheelSlots - 1,
		napUntil: math.MaxInt64,
		kick:     make(chan struct{}, 1),
		sleeper:  newTickSleeper(),
		stopped:  make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// schedule inserts a one-shot or recurring (period > 0) entry due in d. The
// caller has already taken the entry's ledger credit if its message carries
// one.
func (w *wheel) schedule(ln *liveNode, msg message, d, period time.Duration) {
	w.mu.Lock()
	e := w.free
	if e != nil {
		w.free = e.next
		e.ln, e.msg, e.period, e.next = ln, msg, period, nil
	} else {
		e = &wheelEntry{ln: ln, msg: msg, period: period}
	}
	w.inserts++
	wake := w.insertLocked(e, d)
	w.mu.Unlock()
	if wake {
		w.wake()
	}
}

// wake cuts the goroutine's sleep short, whichever way it is sleeping: the
// token for the timer, then the interrupt for the sleeper (in that order;
// see sleep). The half that finds nobody waiting may make a later sleep
// return early once; the loop re-reads the clock after every sleep, so that
// costs one pass.
func (w *wheel) wake() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
	w.sleeper.interrupt()
}

// insertLocked places e due in d from now and reports whether the goroutine
// must be woken for it. Caller holds mu.
func (w *wheel) insertLocked(e *wheelEntry, d time.Duration) (wake bool) {
	ticks := int64((d + w.tick - 1) / w.tick)
	if ticks < 1 {
		ticks = 1
	}
	from := w.ticked // the tick e is counted from: the cursor's, if it is current
	switch {
	case w.count == 0:
		// Empty wheel: restart the epoch so the loop does not spin through
		// the ticks that elapsed while it was parked.
		w.epoch = time.Now()
		w.ticked, from = 0, 0
		if w.napUntil != awake {
			// Ticks are renumbered, so a nap toward an entry that cancel
			// removed since is, like a parked wheel, ended by this insert.
			w.napUntil = math.MaxInt64
		}
	case w.napUntil != awake:
		// The cursor stands where the nap began; the clock says where it
		// would be had it ticked.
		if now := int64(time.Since(w.epoch) / w.tick); now > from {
			from = now
		}
	}
	due := from + ticks - 1 // e fires when this tick expires, at epoch+(due+1)×tick
	if ticks >= coarseTicks {
		g := ticks / 8
		if c := int64(coarseCap / w.tick); g > c {
			g = c
		}
		due += g - 1 - due%g
	}
	ahead := int(due - w.ticked)
	idx := (w.cursor + ahead) & w.mask
	e.rounds = ahead / wheelSlots
	e.next = w.slots[idx]
	w.slots[idx] = e
	w.count++
	if due < w.napUntil {
		w.napUntil = due
		return true
	}
	return false
}

// releaseLocked recycles an entry that is out of every slot list. Caller
// holds mu.
func (w *wheel) releaseLocked(e *wheelEntry) {
	*e = wheelEntry{next: w.free} // release interval/clock references
	w.free = e
}

// run is the wheel goroutine. It signals exit on its own done channel (not
// the worker pool's WaitGroup): SharedScheduler.Close waits for the wheel to
// be fully gone before it waits for the workers, because an advancing wheel
// pushes nodes onto the run queue.
//
// Every pass reads the clock afresh and either sleeps — then starts over,
// trusting no sleep to have lasted as asked — or finds the cursor slot's
// deadline behind it and expires the slot.
func (w *wheel) run() {
	defer close(w.done)
	defer w.sleeper.close()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		w.mu.Lock()
		wait, until := forever, int64(math.MaxInt64)
		if w.count > 0 {
			now := time.Now()
			gap := w.emptyAhead()
			// Empty slots whose deadlines have passed — a nap's worth, or
			// what a late wake-up missed — are stepped over, not expired.
			if late := int(int64(now.Sub(w.epoch)/w.tick) - w.ticked); gap > 0 && late > 0 {
				skip := min(gap, late)
				w.cursor = (w.cursor + skip) & w.mask
				w.ticked += int64(skip)
				gap -= skip
			}
			target := w.ticked // the tick to sleep through: the cursor's
			until = awake
			if gap >= napMinTicks {
				target += int64(gap)
				until = target
			}
			deadline := w.epoch.Add(time.Duration(target+1) * w.tick)
			if wait = deadline.Sub(now); wait <= 0 {
				w.napUntil = awake
				// A slot that only counts a round down (an entry put there
				// during a nap, due a rotation later) kept nobody waiting.
				if w.advanceLocked() {
					w.lagNanos.Store(int64(-wait))
					if w.lagObserve != nil {
						w.lagObserve((-wait).Seconds())
					}
				}
				continue
			}
		}
		w.napUntil = until
		w.mu.Unlock()
		if w.sleep(wait, timer) {
			w.drain()
			return
		}
	}
}

// emptyAhead counts the empty slots from the cursor to the first occupied
// one. Caller holds mu and has checked count > 0.
func (w *wheel) emptyAhead() int {
	gap := 0
	for w.slots[(w.cursor+gap)&w.mask] == nil {
		gap++
	}
	return gap
}

// sleep waits for d, less if wake is called meanwhile, and reports whether
// the wheel was stopped.
func (w *wheel) sleep(d time.Duration, timer *time.Timer) (stopped bool) {
	if w.sleeper != nil && d < timerSleepMin {
		// arm overwrites the read deadline, and with it an interrupt that
		// came first. wake sends its token before it interrupts: a wake whose
		// interrupt arm could have overwritten has its token here by now.
		w.sleeper.arm(d)
		select {
		case <-w.kick:
		default:
			w.sleeper.wait()
		}
	} else {
		if w.sleeper != nil {
			// Stop short by what the timer may run over; the next pass
			// sleeps the last stretch on the sleeper.
			d -= timerOvershoot
		}
		timer.Reset(d)
		select {
		case <-timer.C:
		case <-w.kick:
		case <-w.stopped:
		}
	}
	select {
	case <-w.stopped:
		return true
	default:
		return false
	}
}

// advanceLocked expires the cursor slot: due entries are collected under the
// lock — the caller's, released here — and delivered outside it (delivery
// takes mailbox locks), not-yet-due entries decrement rounds and stay,
// recurring entries re-arm after firing. Delivery routes through each entry's
// own cluster, so one wheel can carry many clusters' timers. Reports whether
// any entry was due.
func (w *wheel) advanceLocked() (fired bool) {
	var due, keep *wheelEntry
	deadline := w.epoch.Add(time.Duration(w.ticked+1) * w.tick)
	for e := w.slots[w.cursor]; e != nil; {
		next := e.next
		if e.rounds > 0 {
			e.rounds--
			e.next = keep
			keep = e
		} else {
			w.count--
			if c := e.ln.c; e.msg.kind == msgHbTick {
				// The tick says when it was due, so its handler knows its own
				// lateness. The single-process beacon is published at fire
				// time, not handle time — a node with a backed-up mailbox is
				// busy, not dead — and before any of the slot's ticks is
				// delivered, or a checker sharing the slot reads it a beat short.
				e.msg.born = int64(deadline.Sub(c.startAt)) + 1
				if !e.ln.down.Load() && !c.remote {
					e.ln.beat.Store(c.now())
				}
			}
			e.next = due
			due = e
		}
		e = next
	}
	w.slots[w.cursor] = keep
	w.cursor = (w.cursor + 1) & w.mask
	w.ticked++
	w.mu.Unlock()
	w.ticksTotal.Add(1)

	var rearm, spent *wheelEntry
	for e := due; e != nil; {
		next := e.next
		c := e.ln.c
		c.enqueue(e.ln, e.msg, nil, false)
		if e.period > 0 && !e.ln.down.Load() && !c.halted.Load() {
			e.next = rearm
			rearm = e
		} else {
			e.next = spent
			spent = e
		}
		e = next
	}
	if rearm != nil || spent != nil {
		w.mu.Lock()
		for e := rearm; e != nil; {
			next := e.next
			w.insertLocked(e, e.period) // the goroutine is this one: no wake
			e = next
		}
		for e := spent; e != nil; {
			next := e.next
			w.releaseLocked(e)
			e = next
		}
		w.mu.Unlock()
	}
	return due != nil
}

// entries reads the wheel's live entry count.
func (w *wheel) entries() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

// stop cancels the wheel. It runs after every client cluster detached, so
// any surviving entries are uncredited (recurring ticks); credited strays —
// impossible by the drain argument, but cheap to honor — have their credits
// returned so no ledger accounting is ever lost.
func (w *wheel) stop() {
	close(w.stopped)
	w.sleeper.interrupt()
}

// cancel removes every entry belonging to one cluster, run by that cluster's
// teardown after its ledger drained while other clusters' timers keep
// running. Credited strays return their credits, same argument as drain.
func (w *wheel) cancel(c *Cluster) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.slots {
		var keep *wheelEntry
		for e := w.slots[i]; e != nil; {
			next := e.next
			if e.ln.c == c {
				if e.period == 0 && creditedKind(e.msg.kind) {
					c.done(1)
				}
				w.count--
				w.releaseLocked(e)
			} else {
				e.next = keep
				keep = e
			}
			e = next
		}
		w.slots[i] = keep
	}
}

// drain discards every queued entry on the way out, returning stray credits.
func (w *wheel) drain() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.slots {
		for e := w.slots[i]; e != nil; e = e.next {
			if e.period == 0 && creditedKind(e.msg.kind) {
				e.ln.c.done(1)
			}
			w.count--
		}
		w.slots[i] = nil
	}
}
