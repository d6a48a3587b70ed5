package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hierdet/internal/livenet"
	"hierdet/internal/obsv"
)

const (
	// onTimeLimit is the latency limit behind on_time_detection_share: a
	// round counts as served on time when its root detection reaches the
	// harness within this long of the round's due (open loop) or feed
	// (closed loop) time. It sits several times above every kill-free p99 on
	// the reference box (tenant_fanout's closed loop queues up to ~50 ms),
	// so it only bites when detection stops: a crash, or a backlog that
	// keeps growing.
	onTimeLimit = 200 * time.Millisecond
	// greyRounds rounds before a kill may still be in flight when it lands
	// (20 ms at the kill workload's pace, the generator lateness at which a
	// pass is discarded anyway); whether they complete is a race, so they
	// are neither sampled nor counted.
	greyRounds = 8
	// killGrace is how long a kill pass waits after its last feed for the
	// last round's detection before calling the tail rounds lost.
	killGrace = 250 * time.Millisecond
	// stallLimit bounds every wait of the harness on the system under test;
	// hitting it fails the pass instead of hanging the benchmark.
	stallLimit = 20 * time.Second
	// lateLimit is the generator lateness above which an open-loop pass is
	// discarded and run again (see run.go).
	lateLimit = 20 * time.Millisecond
)

// pass is the harness side of one pass: the feeder's schedule, the sink's
// view of root detections, and what both measured.
type pass struct {
	in   *inputs
	base time.Time
	tr   *tracer // nil when the pass is untraced

	// Per tenant and round. due is when the round's last interval was fed
	// (closed loop) or when the round was due (open loop), in ns since
	// base; lat is due → root detection seen by the sink, -1 until then.
	// The feeder writes due[t][r] before the Observe that can cause the
	// detection; atomics because across tcp_split's sockets nothing the
	// race detector can see orders the two.
	due, lat [][]atomic.Int64

	// Closed loop: at most cap(tokens) rounds are in flight. holds[t][r]
	// says round r of tenant t took a token; released[t] is the first round
	// whose token the sink has not yet given back (sink-confined).
	tokens    chan struct{}
	holds     [][]atomic.Bool
	released  []int
	remaining atomic.Int64 // root detections still expected (kill-free)
	done      chan struct{}
	lastRoot  atomic.Int64 // ns since base of the latest root detection
	unknown   atomic.Int64 // root detections the round lookup could not place

	// Kill-and-recover state: when Kill was called, and the first root
	// detection after it that covers every survivor.
	killAt         atomic.Int64
	recoveredAt    atomic.Int64
	recoveredRound atomic.Int64
	lastServed     chan struct{} // closed when the final round is served

	drainTail time.Duration // traced passes: Drain() after the last feed

	mu       sync.Mutex // guards the repair event log
	suspects []int64    // ns since base of each NodeSuspected
	repairs  []int64    // ns since base of each RepairConcluded
	giveups  int        // RepairConcluded with no adopter
}

func newPass(in *inputs, tr *tracer) *pass {
	tenants := in.spec.tenantCount()
	ps := &pass{
		in: in, tr: tr, base: time.Now(),
		due:        make([][]atomic.Int64, tenants),
		lat:        make([][]atomic.Int64, tenants),
		done:       make(chan struct{}),
		lastServed: make(chan struct{}),
	}
	for t := range ps.due {
		ps.due[t] = make([]atomic.Int64, in.spec.rounds)
		ps.lat[t] = make([]atomic.Int64, in.spec.rounds)
		for r := range ps.lat[t] {
			ps.lat[t][r].Store(-1)
		}
	}
	ps.remaining.Store(int64(len(in.rootRounds) * tenants))
	if !in.spec.openLoop() {
		ps.tokens = make(chan struct{}, in.spec.tokens)
		for i := 0; i < in.spec.tokens; i++ {
			ps.tokens <- struct{}{}
		}
		ps.holds = make([][]atomic.Bool, tenants)
		ps.released = make([]int, tenants)
		for t := range ps.holds {
			ps.holds[t] = make([]atomic.Bool, in.spec.rounds)
		}
	}
	ps.recoveredRound.Store(-1)
	return ps
}

func (ps *pass) now() int64 { return int64(time.Since(ps.base)) }

// sinks returns one event sink per tenant. Untraced, a sink looks only at
// root solutions and repair events; traced, it first stamps every event.
func (ps *pass) sinks() []func(obsv.Event) {
	out := make([]func(obsv.Event), len(ps.due))
	for t := range out {
		t := t
		out[t] = func(e obsv.Event) {
			if ps.tr != nil {
				ps.tr.stamp(t, ps.now(), e)
			}
			switch e.Kind {
			case obsv.SolutionFound:
				if e.Node == ps.in.root {
					ps.rootDetection(t, e)
				}
			case obsv.NodeSuspected:
				ps.mu.Lock()
				ps.suspects = append(ps.suspects, ps.now())
				ps.mu.Unlock()
			case obsv.RepairConcluded:
				ps.mu.Lock()
				ps.repairs = append(ps.repairs, ps.now())
				if e.Peer == obsv.NoPeer {
					ps.giveups++
				}
				ps.mu.Unlock()
			}
		}
	}
	return out
}

// liveSet is how many processes are alive when round r is fed.
func (ps *pass) liveSet(r int) int {
	if ps.in.spec.kills() && r >= ps.in.spec.killRound {
		return ps.in.n - 1
	}
	return ps.in.n
}

// rootDetection handles one root SolutionFound. Root events of one cluster
// are emitted from the root node's single-writer execution, so per tenant
// this never runs concurrently with itself.
func (ps *pass) rootDetection(t int, e obsv.Event) {
	at := ps.now()
	r, ok := ps.in.roundOfLo[e.Agg.Lo[ps.in.root]]
	if !ok {
		ps.unknown.Add(1)
		return
	}
	if len(e.Agg.Span) != ps.liveSet(r) || ps.lat[t][r].Load() >= 0 {
		return // a partial-span detection during an outage, or a repeat
	}
	ps.lat[t][r].Store(at - ps.due[t][r].Load())
	ps.lastRoot.Store(at)
	if ps.in.spec.kills() {
		if r >= ps.in.spec.killRound && ps.recoveredRound.Load() < 0 {
			ps.recoveredAt.Store(at)
			ps.recoveredRound.Store(int64(r))
		}
		if r == ps.in.spec.rounds-1 {
			close(ps.lastServed)
		}
		return
	}
	// Count the round done before giving its tokens back: the feeder waits
	// for a token only while it counts a root round in flight, and must
	// never count one whose tokens it has already spent.
	left := ps.remaining.Add(-1)
	if ps.tokens != nil {
		// The root cannot detect round r before every queue in the tree has
		// moved past the rounds before it, so r's detection also completes
		// every earlier round that could not signal for itself. Never
		// blocks: each token given back here was taken by that round.
		for q := ps.released[t]; q <= r; q++ {
			if ps.holds[t][q].Load() {
				ps.tokens <- struct{}{}
			}
		}
		ps.released[t] = r + 1
	}
	if left == 0 {
		close(ps.done)
	}
}

// feed drives the whole pass against sys from the calling goroutine — the
// harness has exactly one feeder — and waits for the pass's end condition.
// It returns the intervals fed, the feed-start time (ns since base) and the
// worst generator lateness (open loop only).
func (ps *pass) feed(sys *system) (intervals int, start int64, lateMax time.Duration, err error) {
	in, s := ps.in, ps.in.spec
	tenants := len(ps.due)
	stall := time.NewTimer(stallLimit)
	defer stall.Stop()
	start = ps.now()
	period := time.Duration(0)
	if s.openLoop() {
		period = time.Duration(float64(time.Second) / s.rate)
	}
	killed := false
	// Root rounds fed so far against root rounds the sink has seen done
	// (rootTotal − remaining): the difference is in flight.
	fedRoot, rootTotal := int64(0), ps.remaining.Load()
	for r := 0; r < s.rounds; r++ {
		var dueAt int64
		if s.openLoop() {
			due := ps.base.Add(time.Duration(start) + time.Duration(r)*period)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			if late := time.Since(due); late > lateMax {
				lateMax = late
			}
			dueAt = int64(due.Sub(ps.base))
		}
		if r == s.killRound {
			ps.killAt.Store(ps.now())
			sys.kill(s.killNode)
			killed = true
		}
		for t := 0; t < tenants; t++ {
			if ps.tokens != nil {
				// A round that expects a root detection waits for a token.
				// One that expects none cannot say when it is done, and
				// holds a token until the next root detection. It may wait
				// for one only while a root round is in flight to give one
				// back, and otherwise takes one only if that leaves another
				// (only the feeder takes tokens, so the count cannot drop
				// under it): a round that can signal must always be able to
				// start. Failing both it rides free.
				rootInFlight := fedRoot > rootTotal-ps.remaining.Load()
				if in.expectsRoot[r] || rootInFlight || len(ps.tokens) > 1 {
					select {
					case <-ps.tokens:
						ps.holds[t][r].Store(true)
					case <-stall.C:
						return intervals, start, lateMax, fmt.Errorf("round %d: no token for %v (root detections stopped arriving)", r, stallLimit)
					}
					if in.expectsRoot[r] {
						fedRoot++
					}
				}
			}
			if s.openLoop() {
				ps.due[t][r].Store(dueAt)
			}
			for p := 0; p < in.n; p++ {
				if killed && p == s.killNode {
					continue // the process is dead: it generates nothing
				}
				if !s.openLoop() && p == in.n-1 {
					ps.due[t][r].Store(ps.now())
				}
				if ps.tr != nil {
					t0 := ps.now()
					sys.observe(t, p, in.stream(p, r))
					ps.tr.observed(t, p, r, t0, ps.now())
				} else {
					sys.observe(t, p, in.stream(p, r))
				}
				intervals++
			}
		}
	}
	if ps.tr != nil {
		t0 := time.Now()
		sys.drain()
		ps.drainTail = time.Since(t0)
	}
	// End condition: every expected root detection has reached the sink
	// (kill-free), or the last round was served or given up on (kill).
	if s.kills() {
		grace := time.NewTimer(killGrace)
		defer grace.Stop()
		select {
		case <-ps.lastServed:
		case <-grace.C:
		}
		return intervals, start, lateMax, nil
	}
	if len(in.rootRounds) == 0 {
		return intervals, start, lateMax, nil
	}
	select {
	case <-ps.done:
	case <-stall.C:
		return intervals, start, lateMax, fmt.Errorf("%d root detections still missing %v after the pass began", ps.remaining.Load(), stallLimit)
	}
	return intervals, start, lateMax, nil
}

// passResult is what one pass measured.
type passResult struct {
	intervals int
	start     int64         // feed start, ns since the pass's base
	wall      time.Duration // feed start → last root detection
	newDur    time.Duration
	closeDur  time.Duration
	lateMax   time.Duration
	latMs     []float64 // one sample per served round
	onTime    int       // rounds served within onTimeLimit
	dueRounds int       // rounds that could have been
	attempted int       // expected outputs checked
	failed    int       // of those, missing or surplus
	reports   int       // aggregates sent child→parent
	err       error     // the pass stalled; counts above are partial

	// Kill passes only.
	recoveryMs, suspectMs, reattachMs float64
	suspicions, giveups               int
	stalledRounds                     int // rounds after recovery never served

	// Traced passes only: Drain() after the last feed, the goroutine count
	// once the system is built, the pass's due stamps for the span builder.
	drained    bool
	drainTail  time.Duration
	goroutines int
	due        [][]atomic.Int64

	cm  []livenet.ClusterMetrics // per cluster, read after close
	tcp []tcpStats
	// tenantDone[t] is when tenant t's last root detection arrived, since
	// feed start.
	tenantDone []time.Duration
	sampled    planeSamples
}

// builder assembles a system for a pass: build, or buildNoop.
type builder func(in *inputs, seed int64, sinks []func(obsv.Event)) (*system, error)

// runPass builds a fresh system, feeds the pass, closes the system and
// checks its outputs against the reference. A traced pass (tr != nil) also
// runs the plane sampler and times Drain after the last feed.
func runPass(in *inputs, ref *reference, seed int64, mk builder, tr *tracer) passResult {
	ps := newPass(in, tr)
	res := passResult{due: ps.due}
	t0 := time.Now()
	sys, err := mk(in, seed, ps.sinks())
	res.newDur = time.Since(t0)
	if err != nil {
		res.err = err
		return res
	}
	var stopSampler func() planeSamples
	if tr != nil {
		res.goroutines = runtime.NumGoroutine()
		stopSampler = startSampler(sys)
	}
	intervals, start, lateMax, err := ps.feed(sys)
	res.intervals, res.start, res.lateMax, res.err = intervals, start, lateMax, err
	res.wall = time.Duration(ps.lastRoot.Load() - start)
	res.drained, res.drainTail = tr != nil, ps.drainTail
	if stopSampler != nil {
		res.sampled = stopSampler()
	}
	t0 = time.Now()
	dets := sys.close()
	res.closeDur = time.Since(t0)
	for _, c := range sys.clusters {
		res.cm = append(res.cm, c.ClusterMetrics())
	}
	for _, t := range sys.tcp {
		res.tcp = append(res.tcp, tcpStatsOf(t))
	}
	ps.account(&res, ref, dets)
	return res
}

// account turns the pass's raw observations into counts and samples.
func (ps *pass) account(res *passResult, ref *reference, dets [][]livenet.Detection) {
	in, s := ps.in, ps.in.spec
	for _, td := range dets {
		for _, d := range td {
			if d.Node != in.root {
				res.reports++
			}
		}
	}
	res.failed += int(ps.unknown.Load())

	// Which rounds were due a root detection, and which of those count as
	// checked outputs (kill passes drop the grey zone and the outage).
	recovered := int(ps.recoveredRound.Load())
	for t := range ps.lat {
		last := int64(0)
		for _, r := range in.rootRounds {
			inGrey := s.kills() && r >= s.killRound-greyRounds && r < s.killRound
			if inGrey {
				continue
			}
			// A kill pass counts on-time service over the rounds due from
			// the kill on: before it the pass is paced_latency over again.
			counted := !s.kills() || r >= s.killRound
			if counted {
				res.dueRounds++
			}
			lat := ps.lat[t][r].Load()
			served := lat >= 0
			if served {
				res.latMs = append(res.latMs, float64(lat)/1e6)
				if counted && lat <= int64(onTimeLimit) {
					res.onTime++
				}
				if at := ps.due[t][r].Load() + lat - res.start; at > last {
					last = at
				}
			}
			if s.kills() {
				outage := r >= s.killRound && (recovered < 0 || r < recovered)
				if outage {
					continue // lost to the crash by the paper's model
				}
				res.attempted++
				if !served {
					res.failed++
					if r >= s.killRound {
						res.stalledRounds++
					}
				}
			}
		}
		res.tenantDone = append(res.tenantDone, time.Duration(last))
	}

	if s.kills() {
		ps.accountRepair(res)
		return
	}
	// Kill-free: every node's detection count must equal the reference's.
	for _, td := range dets {
		got := make([]int, in.n)
		for _, d := range td {
			got[d.Node]++
		}
		for v, want := range ref.perNode {
			res.attempted += want
			if d := got[v] - want; d < 0 {
				res.failed -= d
			} else {
				res.failed += d
			}
		}
	}
}

func (ps *pass) accountRepair(res *passResult) {
	kill := ps.killAt.Load()
	if at := ps.recoveredAt.Load(); at > 0 {
		res.recoveryMs = float64(at-kill) / 1e6
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	res.suspicions, res.giveups = len(ps.suspects), ps.giveups
	if len(ps.suspects) > 0 {
		res.suspectMs = float64(ps.suspects[0]-kill) / 1e6
	}
	if n := len(ps.repairs); n > 0 {
		res.reattachMs = float64(ps.repairs[n-1]-kill) / 1e6
	}
}
