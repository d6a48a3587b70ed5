package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"hierdet/internal/interval"
	"hierdet/internal/livenet"
	"hierdet/internal/obsv"
)

// options are one run's arguments.
type options struct {
	seed    int64
	seconds float64
	outDir  string
	log     io.Writer // progress and the human-readable table
}

// setupReps is how many times an end-to-end run sets up; setup_s is the
// median, so one disturbed set-up does not decide the metric.
const setupReps = 3

// prepared is what one set-up produces and every pass then shares.
type prepared struct {
	in     *inputs
	ref    *reference
	genDur time.Duration
}

// setUp does everything that precedes the first timed pass: generate the
// execution from the seed, run the reference over it, check the reference
// against the generator's ground truth, and run one discarded warm-up pass
// (which also binds tcp_split's listeners once).
func setUp(s spec, seed int64) (*prepared, time.Duration, error) {
	start := time.Now()
	in := generate(s, seed)
	pr := &prepared{in: in, genDur: time.Since(start)}
	pr.ref = runReference(in)
	if err := pr.ref.checkAgainstTruth(in); err != nil {
		return nil, 0, err
	}
	if warm := runPass(in, pr.ref, passSeed(seed, -1), build, nil); warm.err != nil {
		return nil, 0, fmt.Errorf("warm-up pass: %w", warm.err)
	}
	return pr, time.Since(start), nil
}

// passSeed varies the injected delays from pass to pass, reproducibly.
func passSeed(seed int64, pass int) int64 { return seed*1_000_003 + int64(pass) + 1 }

// tally sums what the passes of one kind measured.
type tally struct {
	passes, discarded                             int
	intervals, reports, onTime, dueRounds         int
	attempted, failed                             int
	ips, latMs, newMs, closeMs, drainTailMs       []float64
	passP50, passP90                              []float64 // per-pass latency quantiles
	cpuUs                                         []float64 // per pass: CPU µs per interval
	alloc                                         uint64
	lateMax                                       time.Duration
	recoveryMs, suspectMs, reattachMs, tenantSkew []float64
	suspicions, giveups, stalled, killPasses      int
	goroutines                                    int
	cm                                            []livenet.ClusterMetrics
	tcp                                           tcpStats
	sampled                                       planeSamples
	observeNs                                     []float64
	events                                        int
	err                                           error
	lastDue                                       [][]atomic.Int64 // the latest pass's due stamps
}

func (t *tally) add(in *inputs, res passResult, cpu time.Duration, alloc uint64) {
	t.passes++
	t.intervals += res.intervals
	t.reports += res.reports
	t.onTime += res.onTime
	t.dueRounds += res.dueRounds
	t.attempted += res.attempted
	t.failed += res.failed
	t.ips = append(t.ips, float64(res.intervals)/res.wall.Seconds())
	t.latMs = append(t.latMs, res.latMs...)
	lat := sortedCopy(res.latMs)
	t.passP50 = append(t.passP50, quantile(lat, 0.50))
	t.passP90 = append(t.passP90, quantile(lat, 0.90))
	t.newMs = append(t.newMs, ms(res.newDur))
	t.closeMs = append(t.closeMs, ms(res.closeDur))
	t.cpuUs = append(t.cpuUs, ratio(float64(cpu)/1e3, float64(res.intervals)))
	t.alloc += alloc
	t.lateMax = max(t.lateMax, res.lateMax)
	if in.spec.kills() {
		t.killPasses++
		if res.recoveryMs > 0 {
			t.recoveryMs = append(t.recoveryMs, res.recoveryMs)
			t.suspectMs = append(t.suspectMs, res.suspectMs)
			t.reattachMs = append(t.reattachMs, res.reattachMs)
		}
		t.suspicions += res.suspicions
		t.giveups += res.giveups
		t.stalled += res.stalledRounds
	}
	if len(res.tenantDone) > 1 {
		perTenant := make([]float64, len(res.tenantDone))
		for i, d := range res.tenantDone {
			perTenant[i] = ratio(float64(in.intervals), d.Seconds())
		}
		sort.Float64s(perTenant)
		t.tenantSkew = append(t.tenantSkew, ratio(perTenant[0], mean(perTenant)))
	}
	if res.drained {
		t.drainTailMs = append(t.drainTailMs, ms(res.drainTail))
	}
	t.goroutines = max(t.goroutines, res.goroutines)
	t.lastDue = res.due
	t.cm = append(t.cm, res.cm...)
	for _, s := range res.tcp {
		t.tcp.add(s)
	}
	t.sampled.merge(res.sampled)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measured runs one pass with the process's CPU time and allocation volume
// read around it (cluster build and close included: that work is the
// system's too). An open-loop pass whose generator ran late is discarded
// and reported as such; the caller runs another.
func measured(pr *prepared, seed int64, tr *tracer, t *tally) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu := processCPU()
	res := runPass(pr.in, pr.ref, seed, build, tr)
	cpu = processCPU() - cpu
	runtime.ReadMemStats(&after)
	if res.err != nil {
		t.err = res.err
		t.failed++
		return
	}
	if res.lateMax > lateLimit {
		t.discarded++
		t.lateMax = max(t.lateMax, res.lateMax)
		return
	}
	t.add(pr.in, res, cpu, after.TotalAlloc-before.TotalAlloc)
}

// harnessAlloc measures what the harness itself allocates per pass — pass
// bookkeeping, sample slices — by running one pass against a system that
// does nothing but answer each round at once. It is subtracted from the
// allocation figure so the metric speaks for the system under test.
func harnessAlloc(pr *prepared) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runPass(pr.in, pr.ref, 0, buildNoop, nil)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// buildNoop is the system that is not there: Observe costs nothing, and the
// round's last interval is answered with a root detection on the spot.
func buildNoop(in *inputs, _ int64, sinks []func(obsv.Event)) (*system, error) {
	span := make([]int, in.n)
	round := make([]int, len(sinks)) // next round per tenant
	return &system{
		observe: func(t, p int, iv interval.Interval) {
			if p != in.n-1 {
				return
			}
			r := round[t]
			round[t]++
			if in.expectsRoot[r] {
				live := in.n
				if in.spec.kills() && r >= in.spec.killRound {
					live-- // the killed process is out of every later span
				}
				sinks[t](obsv.Event{Kind: obsv.SolutionFound, Node: in.root, AtRoot: true,
					Agg: interval.Interval{Lo: in.stream(in.root, r).Lo, Span: span[:live]}})
			}
		},
		kill:  func(int) int { return 0 },
		close: func() [][]livenet.Detection { return nil },
	}, nil
}

// tooLate says whether so many open-loop passes were discarded that the
// workload's numbers are not worth reporting.
func (t *tally) tooLate() bool { return t.discarded > 0 && 3*t.discarded > t.passes+t.discarded }

// runEndToEnd is a --trace 0 run: set up (several times, for a steady
// setup_s), then timed passes for the run's length with tracing off, every
// pass checked against the reference.
func runEndToEnd(s spec, o options) (result, *record, error) {
	var pr *prepared
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		var counts *refCounts
		if pr != nil {
			// Keep only the work ledger of the previous set-up, so its
			// inputs are garbage before the next one allocates its own.
			counts, pr = &pr.ref.counts, nil
		}
		p, d, err := setUp(s, o.seed)
		if err != nil {
			return result{}, nil, err
		}
		if counts != nil && p.ref.counts != *counts {
			return result{}, nil, fmt.Errorf("reference work counts differ between two runs over the same execution: %+v vs %+v", *counts, p.ref.counts)
		}
		pr = p
		setups = append(setups, d.Seconds())
	}
	own := harnessAlloc(pr)
	runtime.GC() // start the timed passes from a heap the set-ups have left

	var t tally
	start := time.Now()
	for pass := 0; t.err == nil && (time.Since(start).Seconds() < o.seconds || t.passes < 2); pass++ {
		measured(pr, passSeed(o.seed, pass), nil, &t)
		if t.discarded > 8 && t.tooLate() {
			break
		}
	}
	if t.tooLate() {
		return result{}, nil, fmt.Errorf("%s: %d of %d open-loop passes ran more than %v late (worst %v): this box cannot hold the schedule, numbers withheld",
			s.name, t.discarded, t.passes+t.discarded, lateLimit, t.lateMax)
	}

	m := make(metrics)
	sort.Float64s(t.latMs)
	m.set("intervals_per_sec", "1/s", median(t.ips))
	m.set("detect_latency_p50_ms", "ms", median(t.passP50))
	m.set("detect_latency_p90_ms", "ms", median(t.passP90))
	m.set("on_time_detection_share", "ratio", ratio(float64(t.onTime), float64(t.dueRounds)))
	m.set("reports_per_interval", "count", ratio(float64(t.reports), float64(t.intervals)))
	alloc := float64(t.alloc) - float64(own)*float64(t.passes)
	m.set("alloc_bytes_per_interval", "B", ratio(alloc, float64(t.intervals)))
	m.set("setup_s", "s", median(setups))
	// Diagnostics, printed and recorded but not part of the gated set.
	m.set("harness.cpu_us_per_interval", "us", median(t.cpuUs))
	m.set("harness.latency_p99_ms", "ms", quantile(t.latMs, 0.99))
	m.set("harness.latency_max_ms", "ms", maxOf(t.latMs))
	m.set("harness.generator_late_ms_max", "ms", ms(t.lateMax))
	if s.kills() {
		m.set("repair.recovery_ms", "ms", median(t.recoveryMs))
	}

	res := result{Correct: t.failed == 0 && t.err == nil, Attempted: t.attempted, Failed: t.failed, Metrics: m.only(endToEnd)}
	rec := newRecord(s, o, 0, &t, m)
	rec.SetupSeconds = setups
	if t.err != nil {
		return res, rec, fmt.Errorf("%s: %w", s.name, t.err)
	}
	return res, rec, nil
}

// runTraced is a --trace 1 run: one set-up, the isolated layer kernels on
// inputs captured from the workload, then plain and traced passes in
// alternation for the run's length. The traced passes give the per-layer
// numbers; the difference between the two kinds is the tracing overhead.
func runTraced(s spec, o options) (result, *record, error) {
	m := make(metrics)
	m.set("harness.calibration_score", "1/s", calibrationScore())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	pr, _, err := setUp(s, o.seed)
	if err != nil {
		return result{}, nil, err
	}
	in, ref := pr.in, pr.ref
	runtime.GC()
	runtime.ReadMemStats(&after)
	m.set("workload.generate_s", "s", pr.genDur.Seconds())
	// The live heap the harness holds for the whole run: the generated
	// streams plus the reference's expected outputs and captured reports.
	m.set("workload.heap_mb", "MB", float64(after.HeapAlloc-before.HeapAlloc)/(1<<20))

	vclockKernels(in, m)
	intervalKernels(in, m)
	wireKernels(ref, m)
	if err := tcpLoopback(ref, m); err != nil {
		return result{}, nil, err
	}
	// The set-up's reference run was the process's first work on a cold
	// heap; time it twice more and report the median. The work ledger must
	// come out identical every time.
	walls := []float64{ref.wall.Seconds()}
	for len(walls) < 3 {
		again := runReference(in)
		if again.counts != ref.counts {
			return result{}, nil, fmt.Errorf("reference work counts differ between two runs over the same execution: %+v vs %+v", ref.counts, again.counts)
		}
		walls = append(walls, again.wall.Seconds())
		ref.callNs = again.callNs
	}
	n := float64(in.intervals)
	c := ref.counts
	m.set("core.ref_intervals_per_sec", "1/s", n/median(walls))
	m.set("core.oninterval_ns_p50", "ns", quantile(ref.callNs, 0.50))
	m.set("core.oninterval_ns_p99", "ns", quantile(ref.callNs, 0.99))
	m.set("core.cmps_per_interval", "count", float64(c.VecComparisons)/n)
	m.set("core.filtered_per_cmp", "ratio", ratio(float64(c.FilteredComparisons), float64(c.VecComparisons)))
	m.set("core.memo_hits_per_cmp", "ratio", ratio(float64(c.MemoHits), float64(c.VecComparisons)))
	m.set("core.eliminated_per_interval", "count", float64(c.Eliminated)/n)
	m.set("core.pruned_per_interval", "count", float64(c.Pruned)/n)
	m.set("core.reports_per_interval", "count", float64(c.Reports)/n)
	m.set("core.queue_high_water", "count", float64(c.QueueHighWater))
	m.set("core.alloc_bytes_per_interval", "B", float64(ref.allocBytes)/n)
	if s.shape == shapeTenants {
		m.set("tenantplane.bytes_per_tenant", "B", tenantFootprint(in))
	}
	runtime.GC()

	var plain, traced tally
	var spans spanSamples
	start := time.Now()
	for pass := 0; plain.err == nil && traced.err == nil &&
		(time.Since(start).Seconds() < o.seconds || traced.passes < 2 || plain.passes < 2); pass++ {
		if pass%2 == 0 {
			measured(pr, passSeed(o.seed, pass), nil, &plain)
			continue
		}
		tr := newTracer(in)
		before := traced.passes
		measured(pr, passSeed(o.seed, pass), tr, &traced)
		if traced.passes == before {
			continue // discarded or failed
		}
		traced.observeNs = append(traced.observeNs, tr.observeNs...)
		traced.events += len(tr.recorded())
		maxRound := s.rounds
		if s.kills() {
			maxRound = s.killRound - greyRounds
		}
		buildSpans(in, tr, traced.lastDue, maxRound, &spans)
		if plain.discarded+traced.discarded > 8 && (plain.tooLate() || traced.tooLate()) {
			break
		}
	}
	for _, t := range []*tally{&plain, &traced} {
		if t.err != nil {
			return result{}, nil, fmt.Errorf("%s: %w", s.name, t.err)
		}
	}
	if plain.tooLate() || traced.tooLate() {
		return result{}, nil, fmt.Errorf("%s: open-loop passes ran more than %v late too often (worst %v): numbers withheld",
			s.name, lateLimit, max(plain.lateMax, traced.lateMax))
	}

	layerMetrics(s, pr, &plain, &traced, &spans, m)
	path, err := writeSpans(o.outDir, s.name, spans.spans)
	if err != nil {
		return result{}, nil, err
	}
	fmt.Fprintf(o.log, "spans of the first %d rounds of the last traced pass: %s\n", keepRounds, path)

	failed := plain.failed + traced.failed
	res := result{Correct: failed == 0, Attempted: plain.attempted + traced.attempted, Failed: failed, Metrics: m.only(perLayer)}
	return res, newRecord(s, o, 1, &traced, m), nil
}

// layerMetrics fills in the per-layer metrics that come from the passes.
func layerMetrics(s spec, pr *prepared, plain, traced *tally, spans *spanSamples, m metrics) {
	t := traced
	n := float64(t.intervals)
	sort.Float64s(t.latMs)
	sort.Float64s(t.observeNs)
	m.set("livenet.new_ms", "ms", median(t.newMs))
	m.set("livenet.close_ms", "ms", median(t.closeMs))
	m.set("livenet.observe_ns_p50", "ns", quantile(t.observeNs, 0.50))
	m.set("livenet.observe_ns_p99", "ns", quantile(t.observeNs, 0.99))
	m.set("livenet.drain_tail_ms", "ms", median(t.drainTailMs))

	var sum livenet.ClusterMetrics
	var histP50 []float64
	shared := s.shape == shapeTenants
	for i, cm := range t.cm {
		sum.MsgsOut += cm.MsgsOut
		sum.BatchFlushes += cm.BatchFlushes
		sum.VecComparisons += cm.VecComparisons
		sum.Drains += cm.Drains
		sum.MessagesDrained += cm.MessagesDrained
		sum.MailboxHighWater = max(sum.MailboxHighWater, cm.MailboxHighWater)
		sum.ReseqHighWater = max(sum.ReseqHighWater, cm.ReseqHighWater)
		sum.QueueHighWater = max(sum.QueueHighWater, cm.QueueHighWater)
		// Tenants share one comparison pool: every cluster of a pass
		// reports the same pool counters, so count each pass's once.
		if !shared || i%s.tenants == 0 {
			sum.DetectFanouts += cm.DetectFanouts
			sum.DetectInlines += cm.DetectInlines
		}
		if cm.LatencyCount > 0 {
			histP50 = append(histP50, cm.LatencyP50*1e3)
		}
	}
	m.set("livenet.msgs_per_interval", "count", ratio(float64(sum.MsgsOut), n))
	m.set("livenet.reports_per_msg", "count", ratio(float64(t.reports), float64(sum.MsgsOut)))
	m.set("livenet.drain_batch_mean", "count", ratio(float64(sum.MessagesDrained), float64(sum.Drains)))
	m.set("livenet.batch_flushes_per_interval", "count", ratio(float64(sum.BatchFlushes), n))
	m.set("livenet.mailbox_high_water", "count", float64(sum.MailboxHighWater))
	m.set("livenet.reseq_high_water", "count", float64(sum.ReseqHighWater))
	m.set("livenet.queue_high_water", "count", float64(sum.QueueHighWater))
	m.set("livenet.peak_goroutines", "count", float64(t.sampled.peakGoroutines))
	m.set("livenet.workers_busy_share", "ratio", ratio(t.sampled.busySum, float64(t.sampled.samples)))
	m.set("livenet.wheel_lag_ms_max", "ms", float64(t.sampled.wheelLagMaxNs)/1e6)
	m.set("livenet.runq_depth_max", "count", float64(t.sampled.runqDepthMax))
	m.set("livenet.detect_fanout_share", "ratio", ratio(float64(sum.DetectFanouts), float64(sum.DetectFanouts+sum.DetectInlines)))
	m.set("livenet.live_cmps_per_interval", "count", ratio(float64(sum.VecComparisons), n))
	m.set("livenet.hist_latency_p50_ms", "ms", median(histP50))
	// Live wall per interval over the single-threaded reference's: what the
	// delivery plane adds (or, with spare cores, wins back).
	m.set("livenet.plane_overhead_ratio", "ratio", ratio(m["core.ref_intervals_per_sec"].Value, median(plain.ips)))

	if s.shape == shapeSplit {
		tc := t.tcp
		m.set("tcptransport.wire_bytes_per_interval", "B", ratio(float64(tc.bytesOut), n))
		m.set("tcptransport.connections", "count", ratio(float64(tc.dials), float64(t.passes)))
		m.set("tcptransport.frames_per_flush", "count", ratio(float64(tc.framesOut), float64(tc.flushes)))
		m.set("tcptransport.bytes_per_frame", "B", ratio(float64(tc.bytesOut), float64(tc.framesOut)))
		m.set("tcptransport.backlog_dropped", "count", float64(tc.backlogDropped))
		m.set("tcptransport.redelivered", "count", float64(tc.redelivered))
		m.set("tcptransport.corrupt_frames", "count", float64(tc.corruptFrames))
		m.set("tcptransport.redials", "count", float64(tc.redials))
	}
	if s.shape == shapeTenants {
		m.set("tenantplane.register_ms_per_tenant", "ms", median(t.newMs)/float64(s.tenants))
		m.set("tenantplane.goroutines", "count", float64(t.goroutines))
		m.set("tenantplane.close_ms", "ms", median(t.closeMs))
		m.set("tenantplane.tenant_ips_min_over_mean", "ratio", median(t.tenantSkew))
	}
	if s.kills() {
		// A crash of a node with k children is on script when it draws k+1
		// suspicions (each orphan and the parent) and k repairs.
		orphans := len(pr.in.topo.Children(s.killNode))
		all := &tally{}
		for _, k := range []*tally{plain, traced} {
			all.recoveryMs = append(all.recoveryMs, k.recoveryMs...)
			all.suspectMs = append(all.suspectMs, k.suspectMs...)
			all.reattachMs = append(all.reattachMs, k.reattachMs...)
			all.suspicions += k.suspicions
			all.giveups += k.giveups
			all.stalled += k.stalled
			all.killPasses += k.killPasses
		}
		m.set("repair.recovery_ms", "ms", median(all.recoveryMs))
		m.set("repair.suspect_ms_p50", "ms", median(all.suspectMs))
		m.set("repair.reattach_ms_p50", "ms", median(all.reattachMs))
		m.set("repair.spurious_suspicions", "count", float64(max(0, all.suspicions-all.killPasses*(orphans+1))))
		m.set("repair.partition_giveups", "count", float64(all.giveups))
		m.set("repair.stalled_rounds", "count", float64(all.stalled))
	}

	m.set("obsv.trace_overhead_pct", "%", 100*(1-ratio(median(traced.ips), median(plain.ips))))
	m.set("obsv.events_per_interval", "count", ratio(float64(t.events), n))

	m.set("trace.leaf_admit_ms_p50", "ms", median(spans.leafAdmit))
	m.set("trace.link_transit_ms_p50", "ms", median(spans.linkTransit))
	m.set("trace.node_wait_ms_p50", "ms", median(spans.nodeWait))
	sumGaps := median(spans.feedGap)
	m.set("trace.level_gap_ms.feed", "ms", sumGaps)
	for k, gaps := range spans.levelGap {
		g := median(gaps)
		sumGaps += g
		m.set(fmt.Sprintf("trace.level_gap_ms.L%d", k), "ms", g)
	}
	// The gaps telescope to the end-to-end latency round by round; their
	// medians need not add up to its median. The error says by how much
	// the per-layer picture misstates the end-to-end figure.
	e2e := median(spans.e2e)
	if e2e > 0 {
		m.set("trace.reconcile_err_pct", "%", 100*math.Abs(sumGaps-e2e)/e2e)
	}

	m.set("harness.cpu_us_per_interval", "us", median(plain.cpuUs))
	m.set("harness.generator_late_ms_max", "ms", ms(max(plain.lateMax, traced.lateMax)))
	m.set("harness.latency_p99_ms", "ms", quantile(t.latMs, 0.99))
	m.set("harness.latency_max_ms", "ms", maxOf(t.latMs))
}

// tenantFootprint is the retained heap per registered, idle tenant: live
// heap after a GC, before and after registration.
func tenantFootprint(in *inputs) float64 {
	sinks := make([]func(obsv.Event), in.spec.tenants)
	for i := range sinks {
		sinks[i] = func(obsv.Event) {}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sys, err := build(in, 1, sinks)
	if err != nil {
		return 0
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	sys.close()
	if after.HeapAlloc <= before.HeapAlloc {
		return 0
	}
	return float64(after.HeapAlloc-before.HeapAlloc) / float64(in.spec.tenants)
}
