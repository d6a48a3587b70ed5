package livenet

import (
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"hierdet/internal/tree"
)

// fireLog records when a bare wheel fires its entries. The wheel delivers
// into the mailbox of the log's one stub node, whose seat is dead (nothing
// drains it), and calls collect through its lag hook — on the wheel
// goroutine, at the end of the advance that fired the slot — so the stamp
// taken there is the fire time of everything found in the mailbox. The
// message's seq names the entry.
type fireLog struct {
	ln    *liveNode
	mu    sync.Mutex
	fires map[int][]time.Time
	fired chan struct{} // one token per fire while there is room, for tests that wait on each
}

// newFireLog builds a log and its stub node: a node of a cluster that has
// nothing but a mailbox, enough for the wheel to deliver to.
func newFireLog() *fireLog {
	c := &Cluster{bound: 1 << 30, seat: &schedClient{s: &SharedScheduler{}, dead: true}}
	c.cond = sync.NewCond(&c.mu)
	ln := &liveNode{c: c}
	ln.mb.init()
	return &fireLog{ln: ln, fires: make(map[int][]time.Time), fired: make(chan struct{}, 1<<16)}
}

func (q *fireLog) collect() {
	at := time.Now()
	mb := &q.ln.mb
	mb.mu.Lock()
	batch := mb.buf
	mb.buf, mb.scheduled = nil, false
	mb.mu.Unlock()
	q.mu.Lock()
	for _, m := range batch {
		q.fires[m.seq] = append(q.fires[m.seq], at)
	}
	q.mu.Unlock()
	for range batch {
		select {
		case q.fired <- struct{}{}:
		default: // nobody is counting (recurring entries outlive the test body)
		}
	}
}

func (q *fireLog) of(seq int) []time.Time {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]time.Time(nil), q.fires[seq]...)
}

// bareWheel starts a wheel whose entries fire into a fireLog through its
// stub node, and stops it when the test ends.
func bareWheel(t *testing.T) (w *wheel, ln *liveNode, q *fireLog) {
	t.Helper()
	q = newFireLog()
	w = newWheel(25 * time.Microsecond)
	w.lagObserve = func(float64) { q.collect() }
	go w.run()
	t.Cleanup(func() {
		w.stop()
		<-w.done
	})
	return w, q.ln, q
}

// TestWheelNeverEarly: whatever the wheel is doing when an entry arrives —
// parked, napping toward a coarse timer, ticking — the entry fires no sooner
// than a tick short of its delay. Covers message-sized delays, the coarse-
// rounded class, delays past one rotation (the rounds counter) and recurring
// entries. "napping" holds only long timers and pauses between inserts, so
// they land against a cursor a nap has left up to a millisecond stale;
// "ticking" keeps a short recurring entry in the wheel so it never naps long.
func TestWheelNeverEarly(t *testing.T) {
	type recurring struct{ first, period time.Duration }
	for _, tc := range []struct {
		name     string
		pause    time.Duration // up to this long between inserts
		periodic []recurring
	}{
		{"napping", 2 * time.Millisecond, []recurring{{time.Millisecond, 9 * time.Millisecond}}},
		{"ticking", 400 * time.Microsecond, []recurring{
			{700 * time.Microsecond, 300 * time.Microsecond}, // under the coarse class
			{2 * time.Millisecond, time.Millisecond},         // in it
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, ln, q := bareWheel(t)
			rng := rand.New(rand.NewPCG(12, 34))
			rotation := wheelSlots * w.tick
			upTo := func(d time.Duration) time.Duration { return time.Duration(rng.Int64N(int64(d))) }

			type sched struct {
				at        time.Time
				d, period time.Duration
				stale     time.Duration
			}
			var entries []sched
			add := func(d, period time.Duration) {
				kind := msgSeekTimeout
				if period > 0 {
					kind = msgHbTick // recurring entries are uncredited
				}
				// While the goroutine ticks, entries are counted from its
				// cursor, and one that runs late (a loaded test box) leaves
				// the cursor behind the clock: by that much, and no more, an
				// entry may be early. Asleep, it places them by the clock.
				var stale time.Duration
				w.mu.Lock()
				if w.napUntil == awake && w.count > 0 {
					stale = max(0, time.Since(w.epoch)-time.Duration(w.ticked)*w.tick)
				}
				w.mu.Unlock()
				entries = append(entries, sched{at: time.Now(), d: d, period: period, stale: stale})
				w.schedule(ln, message{kind: kind, seq: len(entries) - 1}, d, period)
			}
			for _, r := range tc.periodic {
				add(r.first, r.period)
			}
			for i := 0; i < 200; i++ {
				var d time.Duration
				switch i % 4 {
				case 0: // a message delay: 1–8 ticks
					d = 1 + upTo(8*w.tick)
				case 1: // under the coarse threshold
					d = 8*w.tick + upTo((coarseTicks-8)*w.tick)
				case 2: // coarse, within one rotation
					d = coarseTicks*w.tick + upTo(rotation-coarseTicks*w.tick)
				case 3: // past one rotation
					d = rotation + upTo(2*rotation)
				}
				add(d, 0)
				if i%3 != 0 {
					time.Sleep(upTo(tc.pause))
				}
			}

			deadline := time.Now().Add(10 * time.Second)
			for i, e := range entries {
				want := 1
				if e.period > 0 {
					want = 5
				}
				for len(q.of(i)) < want {
					if time.Now().After(deadline) {
						t.Fatalf("entry %d (d=%v period=%v) fired %d times, want %d", i, e.d, e.period, len(q.of(i)), want)
					}
					time.Sleep(time.Millisecond)
				}
			}
			worst := time.Duration(0)
			for i, e := range entries {
				worst = max(worst, e.stale)
				for k, at := range q.of(i) {
					if e.period == 0 && k > 0 {
						t.Fatalf("one-shot entry %d fired %d times", i, k+1)
					}
					ideal := e.d + time.Duration(k)*e.period
					// One tick is the wheel's quantum, one covers the cursor
					// moving between the look at it above and the insert.
					if got, slack := at.Sub(e.at), 2*w.tick+e.stale; got < ideal-slack {
						t.Errorf("entry %d (d=%v period=%v) fire %d came %v after scheduling, want >= %v - %v",
							i, e.d, e.period, k, got, ideal, slack)
					}
				}
			}
			t.Logf("stalest cursor an entry was placed against: %v", worst)
		})
	}
}

// TestWheelIdlePrecision: with every P idle a time.Timer wakes on the next
// whole millisecond; the wheel must not. One 100 µs entry at a time on an
// otherwise idle wheel, median lateness well under that quantum.
func TestWheelIdlePrecision(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("sub-millisecond idle sleeps are the Linux tickSleeper's")
	}
	if testing.Short() || raceEnabled {
		t.Skip("a timing measurement: needs a quiet, uninstrumented process")
	}
	w, ln, q := bareWheel(t)
	if w.sleeper == nil {
		t.Skip("the kernel refused a timerfd")
	}
	const n, d = 200, 100 * time.Microsecond
	late := make([]time.Duration, n)
	for i := range late {
		time.Sleep(300 * time.Microsecond) // let the process go idle
		at := time.Now()
		w.schedule(ln, message{kind: msgSeekTimeout, seq: i}, d, 0)
		<-q.fired
		late[i] = q.of(i)[0].Sub(at) - d
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	t.Logf("lateness of %d idle %v entries: median %v, p90 %v, max %v", n, d, late[n/2], late[n*9/10], late[n-1])
	if late[n/2] >= 400*time.Microsecond {
		t.Errorf("median lateness %v, want < 400µs", late[n/2])
	}
}

// TestWheelIdleWakeBudget: a fault-tolerant cluster with no traffic holds
// only heartbeat ticks, and those share coarse boundaries, so the wheel
// wakes per boundary (8 per 5 ms period), not per 25 µs tick.
func TestWheelIdleWakeBudget(t *testing.T) {
	c := New(Config{Topology: tree.Balanced(2, 6), HbEvery: 5 * time.Millisecond})
	defer c.Close()
	time.Sleep(15 * time.Millisecond) // every first beat, staggered over one period, has fired
	const window = 250 * time.Millisecond
	start, before := time.Now(), c.sched.wheel.ticksTotal.Load()
	time.Sleep(window)
	expired, took := c.sched.wheel.ticksTotal.Load()-before, time.Since(start)
	perSec := float64(expired) / took.Seconds()
	t.Logf("%d slots expired in %v: %.0f/s for %d heartbeat entries", expired, took, perSec, c.sched.wheel.entries())
	if perSec > 2000 {
		t.Errorf("idle wheel expired %.0f slots/s, want <= 2000", perSec)
	}
}

// openFDs counts the process's open descriptors, or -1 where /proc/self/fd
// does not exist.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestWheelHygiene: a wheel owns one goroutine and at most one descriptor,
// and gives both back — on Close for a cluster's own, and never leaks them
// per client for a caller's; stop() does not wait out the sleep it finds
// the goroutine in.
func TestWheelHygiene(t *testing.T) {
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	for i := 0; i < 200; i++ {
		c := New(Config{Topology: tree.Star(3), HbEvery: time.Millisecond})
		c.Close()
	}
	goroutinesSettleTo(t, goroutines)
	if got := openFDs(); got != fds {
		t.Errorf("open descriptors after 200 New/Close cycles = %d, want %d", got, fds)
	}

	s := NewSharedScheduler(SharedSchedulerConfig{})
	shared, sharedFDs := runtime.NumGoroutine(), openFDs()
	for i := 0; i < 50; i++ {
		c := New(Config{Topology: tree.Star(3), HbEvery: time.Millisecond, Scheduler: s})
		time.Sleep(100 * time.Microsecond)
		c.Close() // cancel(c) under a wheel that keeps running
	}
	// A tick that was mid-delivery when its cluster closed is re-armed past
	// cancel and dies at its next fire, a beat later.
	waitCond(t, "the shared wheel to hold no closed client's entries", func() bool { return s.WheelEntries() == 0 })
	goroutinesSettleTo(t, shared)
	if got := openFDs(); got != sharedFDs {
		t.Errorf("open descriptors after 50 shared attach/cancel cycles = %d, want %d", got, sharedFDs)
	}
	s.Close()
	goroutinesSettleTo(t, goroutines)
	if got := openFDs(); got != fds {
		t.Errorf("open descriptors after SharedScheduler.Close = %d, want %d", got, fds)
	}

	// Mid-sleep stops: on the tickSleeper (a 1.5 ms wait) and on the timer
	// (a 50 ms nap).
	for _, d := range []time.Duration{1500 * time.Microsecond, 50 * time.Millisecond} {
		w := newWheel(25 * time.Microsecond)
		go w.run()
		w.schedule(newFireLog().ln, message{kind: msgHbTick}, d, 0)
		time.Sleep(300 * time.Microsecond) // the goroutine is asleep toward d
		at := time.Now()
		w.stop()
		<-w.done
		limit := 5 * time.Millisecond
		if raceEnabled {
			limit *= 10 // the instrumented scheduler, not the wheel
		}
		if took := time.Since(at); took > limit {
			t.Errorf("stop() during a %v sleep took %v, want <= %v", d, took, limit)
		}
	}
	goroutinesSettleTo(t, goroutines)
	if got := openFDs(); got != fds {
		t.Errorf("open descriptors after mid-sleep stops = %d, want %d", got, fds)
	}
}
