package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"hierdet/internal/obsv"
	"hierdet/internal/transport/tcptransport"
)

// stamped is one Events callback as the traced sink saw it: when it arrived
// (ns since the pass's base) and the few fields the span builder needs.
type stamped struct {
	at                     int64
	kind                   obsv.EventKind
	tenant                 int32
	node, peer, seq, count int32
}

// tracer records a traced pass from outside the program: the sink stamps
// every Events callback into a pre-sized slice, the feeder stamps every
// Observe call, and spans are built from the two after the pass. Nothing in
// the system under test knows it is being traced.
type tracer struct {
	events  []stamped
	next    atomic.Int64
	dropped atomic.Int64
	// obsCall[t][p*rounds+r] is when the harness called Observe for
	// (tenant, process, round); observeNs is how long each call took
	// (admission plus any backpressure wait).
	obsCall   [][]int64
	observeNs []float64
	rounds    int
}

func newTracer(in *inputs) *tracer {
	tenants := in.spec.tenantCount()
	// Per interval the runtime emits an observed, a solution and a pruned
	// event at the leaf and a sent/received pair per hop at most (coalescing
	// only lowers it); 8 per interval leaves headroom, and overflow is
	// counted rather than grown into during the pass.
	tr := &tracer{
		events:    make([]stamped, 8*in.intervals*tenants),
		obsCall:   make([][]int64, tenants),
		observeNs: make([]float64, 0, in.intervals*tenants),
		rounds:    in.spec.rounds,
	}
	for t := range tr.obsCall {
		tr.obsCall[t] = make([]int64, in.n*in.spec.rounds)
	}
	return tr
}

func (tr *tracer) stamp(tenant int, at int64, e obsv.Event) {
	i := tr.next.Add(1) - 1
	if i >= int64(len(tr.events)) {
		tr.dropped.Add(1)
		return
	}
	tr.events[i] = stamped{at: at, kind: e.Kind, tenant: int32(tenant),
		node: int32(e.Node), peer: int32(e.Peer), seq: int32(e.Seq), count: int32(e.Count)}
}

// observed is called by the one feeder goroutine only.
func (tr *tracer) observed(tenant, p, r int, t0, t1 int64) {
	tr.obsCall[tenant][p*tr.rounds+r] = t0
	tr.observeNs = append(tr.observeNs, float64(t1-t0))
}

func (tr *tracer) recorded() []stamped {
	n := tr.next.Load()
	if n > int64(len(tr.events)) {
		n = int64(len(tr.events))
	}
	return tr.events[:n]
}

// span is one reconstructed interval of a round's journey. trace is the
// round (with the tenant in front on the tenant plane); parent names the
// span that caused this one, "" for the round's own end-to-end span.
type span struct {
	Trace   string  `json:"trace"`
	Name    string  `json:"name"`
	Node    int     `json:"node"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	Parent  string  `json:"parent,omitempty"`
}

// spanSamples gathers span durations (ms) by kind across traced passes.
type spanSamples struct {
	leafAdmit, linkTransit, nodeWait []float64
	feedGap                          []float64   // feed → last solution at the deepest level
	levelGap                         [][]float64 // [k]: last solution at depth k+1 → last at depth k
	e2e                              []float64   // feed → root solution, the telescoped sum per round
	spans                            []span      // the first keepRounds rounds of the latest pass
}

// keepRounds bounds the trace file: spans of this many rounds per traced
// workload are written out (every round still feeds the samples).
const keepRounds = 32

// buildSpans reconstructs one pass's spans from the stamped events.
//
// Attribution needs no ids from the program: a node's k-th SolutionFound
// belongs to the k-th round in which the predicate holds over its subtree
// (in.nodeRounds, checked against the oracle), its k-th IntervalObserved to
// the k-th Observe of that process, and a report with link sequence k to the
// sender's k-th detection. Events of one node arrive in that node's causal
// order, so "k-th" is well defined. Rounds from maxRound on are ignored
// (kill passes: attribution by count ends where the crash lands).
func buildSpans(in *inputs, tr *tracer, due [][]atomic.Int64, maxRound int, out *spanSamples) {
	rounds := in.spec.rounds
	tenants := len(tr.obsCall)
	if out.levelGap == nil {
		out.levelGap = make([][]float64, in.topo.Height())
	}
	out.spans = out.spans[:0]
	idx := func(v, r int) int { return v*rounds + r }
	byTenant := make([][]stamped, tenants) // index order = each node's causal order
	for _, e := range tr.recorded() {
		byTenant[e.tenant] = append(byTenant[e.tenant], e)
	}
	for t := 0; t < tenants; t++ {
		solAt := filled(in.n*rounds, -1)  // [node][round] solution stamp
		obsAt := filled(in.n*rounds, -1)  // [process][round] IntervalObserved stamp
		recvAt := filled(in.n*rounds, -1) // [child][round] when the parent accepted the child's report for the round
		sentAt := make(map[int64]int64)   // child<<32|seq → ReportSent stamp
		solN := make([]int, in.n)
		obsN := make([]int, in.n)
		for _, e := range byTenant[t] {
			v := int(e.node)
			switch e.kind {
			case obsv.SolutionFound:
				if k := solN[v]; k < len(in.nodeRounds[v]) {
					solAt[idx(v, in.nodeRounds[v][k])] = e.at
				}
				solN[v]++
			case obsv.IntervalObserved:
				for i := 0; i < int(e.count) && obsN[v] < rounds; i++ {
					obsAt[idx(v, obsN[v])] = e.at
					obsN[v]++
				}
			case obsv.ReportSent:
				sentAt[int64(v)<<32|int64(e.seq)] = e.at
			case obsv.ReportRecv:
				c := int(e.peer)
				if s, ok := sentAt[int64(c)<<32|int64(e.seq)]; ok {
					out.linkTransit = append(out.linkTransit, float64(e.at-s)/1e6)
					if r := roundOfSeq(in, c, int(e.seq)); r >= 0 && r < keepRounds && r < maxRound {
						out.spans = append(out.spans, span{Trace: traceID(in, t, r), Name: "link_transit", Node: c,
							StartUs: float64(s) / 1e3, EndUs: float64(e.at) / 1e3, Parent: fmt.Sprintf("node_wait@%d", v)})
					}
				}
				for k := int(e.seq); k < int(e.seq+e.count); k++ {
					if r := roundOfSeq(in, c, k); r >= 0 {
						recvAt[idx(c, r)] = e.at
					}
				}
			}
		}

		for p := 0; p < in.n; p++ {
			for r := 0; r < rounds && r < maxRound; r++ {
				call, seen := tr.obsCall[t][idx(p, r)], obsAt[idx(p, r)]
				if seen < 0 {
					continue // never observed: the process was dead by then
				}
				out.leafAdmit = append(out.leafAdmit, float64(seen-call)/1e6)
				if r < keepRounds {
					out.spans = append(out.spans, span{Trace: traceID(in, t, r), Name: "leaf_admit", Node: p,
						StartUs: float64(call) / 1e3, EndUs: float64(seen) / 1e3, Parent: "e2e"})
				}
			}
		}
		for v := 0; v < in.n; v++ {
			children := in.topo.Children(v)
			if len(children) == 0 {
				continue
			}
			for _, r := range in.nodeRounds[v] {
				sol := solAt[idx(v, r)]
				if r >= maxRound || sol < 0 {
					continue
				}
				first := int64(-1)
				for _, c := range children {
					if at := recvAt[idx(c, r)]; at >= 0 && (first < 0 || at < first) {
						first = at
					}
				}
				if first < 0 {
					continue
				}
				out.nodeWait = append(out.nodeWait, float64(sol-first)/1e6)
				if r < keepRounds {
					out.spans = append(out.spans, span{Trace: traceID(in, t, r), Name: "node_wait", Node: v,
						StartUs: float64(first) / 1e3, EndUs: float64(sol) / 1e3, Parent: "e2e"})
				}
			}
		}
		// Level gaps telescope: feed → last leaf-level solution → … → root
		// solution sums, round by round, to exactly the end-to-end latency.
		h := in.topo.Height()
		last := make([]int64, h+1)
	round:
		for _, r := range in.rootRounds {
			if r >= maxRound {
				break
			}
			for d := 0; d <= h; d++ {
				last[d] = -1
				for _, v := range in.byDepth[d] {
					at := solAt[idx(v, r)]
					if at < 0 {
						continue round
					}
					if at > last[d] {
						last[d] = at
					}
				}
			}
			fed := due[t][r].Load()
			out.feedGap = append(out.feedGap, float64(last[h]-fed)/1e6)
			for k := 0; k < h; k++ {
				out.levelGap[k] = append(out.levelGap[k], float64(last[k]-last[k+1])/1e6)
			}
			out.e2e = append(out.e2e, float64(last[0]-fed)/1e6)
			if r < keepRounds {
				id := traceID(in, t, r)
				out.spans = append(out.spans, span{Trace: id, Name: "e2e", Node: in.root,
					StartUs: float64(fed) / 1e3, EndUs: float64(last[0]) / 1e3})
				out.spans = append(out.spans, span{Trace: id, Name: "level_gap.feed", Node: -1,
					StartUs: float64(fed) / 1e3, EndUs: float64(last[h]) / 1e3, Parent: "e2e"})
				for k := 0; k < h; k++ {
					out.spans = append(out.spans, span{Trace: id, Name: fmt.Sprintf("level_gap.L%d", k), Node: -1,
						StartUs: float64(last[k+1]) / 1e3, EndUs: float64(last[k]) / 1e3, Parent: "e2e"})
				}
			}
		}
	}
}

// roundOfSeq is the round of node v's k-th detection, or -1 past the end.
func roundOfSeq(in *inputs, v, k int) int {
	if k < 0 || k >= len(in.nodeRounds[v]) {
		return -1
	}
	return in.nodeRounds[v][k]
}

func traceID(in *inputs, tenant, r int) string {
	if in.spec.shape == shapeTenants {
		return fmt.Sprintf("t%d/r%d", tenant, r)
	}
	return fmt.Sprintf("r%d", r)
}

func filled(n int, v int64) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// writeSpans writes the kept spans when the run ends.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(spans)
	if err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	return path, nil
}

// planeSamples is what the sampler saw while a pass ran: maxima of the
// delivery plane's gauges and the mean share of busy workers.
type planeSamples struct {
	samples        int
	busySum        float64 // Σ WorkersBusy/Workers over samples
	wheelLagMaxNs  int64
	runqDepthMax   int
	peakGoroutines int
}

// merge folds another pass's samples in: sums stay sums, maxima maxima.
func (ps *planeSamples) merge(o planeSamples) {
	ps.samples += o.samples
	ps.busySum += o.busySum
	ps.wheelLagMaxNs = max(ps.wheelLagMaxNs, o.wheelLagMaxNs)
	ps.runqDepthMax = max(ps.runqDepthMax, o.runqDepthMax)
	ps.peakGoroutines = max(ps.peakGoroutines, o.peakGoroutines)
}

// samplePeriod is the sampler's sleep between reads: 50 Hz keeps a dozen
// samples in the shortest pass and costs well under 1% of one core.
const samplePeriod = 20 * time.Millisecond

// startSampler reads ClusterMetrics and the goroutine count until stopped.
// It sleeps between reads and runs only in traced passes.
func startSampler(sys *system) (stop func() planeSamples) {
	var ps planeSamples
	quit := make(chan struct{})
	finished := make(chan struct{})
	read := func() {
		// Tenants share one worker pool: each cluster counts the workers
		// busy on its own nodes, all against the same pool size.
		shared := len(sys.clusters) > 0 && sys.clusters[0].Shared()
		busy, workers := 0, 0
		for i, c := range sys.clusters {
			m := c.ClusterMetrics()
			busy += m.WorkersBusy
			if !shared || i == 0 {
				workers += m.Workers
			}
			ps.wheelLagMaxNs = max(ps.wheelLagMaxNs, m.WheelLagNanos)
			ps.runqDepthMax = max(ps.runqDepthMax, m.RunqDepth)
		}
		ps.samples++
		ps.busySum += ratio(float64(busy), float64(workers))
		ps.peakGoroutines = max(ps.peakGoroutines, runtime.NumGoroutine())
	}
	go func() {
		defer close(finished)
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return func() planeSamples {
		close(quit)
		<-finished
		return ps
	}
}

// tcpStats is the slice of tcptransport.Stats the benchmark reports.
type tcpStats struct {
	framesOut, flushes, bytesOut, dials                 int
	backlogDropped, redelivered, corruptFrames, redials int
}

func tcpStatsOf(t *tcptransport.Transport) tcpStats {
	s := t.Stats()
	return tcpStats{framesOut: s.FramesOut, flushes: s.Flushes, bytesOut: s.BytesOut, dials: s.Dials,
		backlogDropped: s.BacklogDropped, redelivered: s.Redelivered, corruptFrames: s.CorruptFrames, redials: s.Redials}
}

func (s *tcpStats) add(o tcpStats) {
	s.framesOut += o.framesOut
	s.flushes += o.flushes
	s.bytesOut += o.bytesOut
	s.dials += o.dials
	s.backlogDropped += o.backlogDropped
	s.redelivered += o.redelivered
	s.corruptFrames += o.corruptFrames
	s.redials += o.redials
}
