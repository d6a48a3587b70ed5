package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"hierdet/internal/obsv"
)

// small returns a workload shrunk to test size: same shape and mix, a few
// rounds, a few tenants, the kill in the middle.
func small(t *testing.T, name string, rounds int) spec {
	t.Helper()
	s, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	s.rounds = rounds
	if s.kills() {
		s.killRound = rounds / 2
	}
	if s.shape == shapeTenants {
		s.tenants = 4
		s.tokens = 8
	}
	return s
}

// TestSmoke runs every workload end to end at toy scale — set-up, reference,
// two checked passes — so that deleting or renaming an API the benchmark
// drives breaks this package's build or this test, not the benchmark
// silently.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			s := small(t, w.name, 20)
			pr, _, err := setUp(s, 3)
			if err != nil {
				t.Fatal(err)
			}
			var tl tally
			for pass := 0; pass < 2; pass++ {
				measured(pr, passSeed(3, pass), nil, &tl)
			}
			if tl.err != nil {
				t.Fatal(tl.err)
			}
			if tl.passes+tl.discarded != 2 {
				t.Fatalf("passes = %d + %d discarded, want 2", tl.passes, tl.discarded)
			}
			// A kill pass at toy scale ends before recovery does, and on a
			// slow box (the race detector) the crash overtakes rounds the
			// schedule assumed done; its outputs are only checked at full
			// scale. Here it must merely run.
			if tl.failed != 0 && !s.kills() {
				t.Errorf("%d of %d expected outputs missing or surplus against the reference", tl.failed, tl.attempted)
			}
			if tl.passes > 0 && tl.attempted == 0 {
				t.Error("no outputs were checked")
			}
			if !s.kills() && len(tl.latMs) != tl.passes*len(pr.in.rootRounds)*s.tenantCount() {
				t.Errorf("latency samples = %d, want one per expected root detection (%d)", len(tl.latMs), tl.passes*len(pr.in.rootRounds)*s.tenantCount())
			}
		})
	}
}

// TestTracedPassReconciles runs a traced pass and checks what the span
// builder promises: per round the level gaps telescope to the end-to-end
// latency the sink measured, and every kind of span was found.
func TestTracedPassReconciles(t *testing.T) {
	s := small(t, "deep_saturate", 12)
	s.degree, s.height = 2, 3
	pr, _, err := setUp(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer(pr.in)
	res := runPass(pr.in, pr.ref, 7, build, tr)
	if res.err != nil || res.failed != 0 {
		t.Fatalf("traced pass: err=%v failed=%d", res.err, res.failed)
	}
	if d := tr.dropped.Load(); d != 0 {
		t.Fatalf("tracer dropped %d events: the pre-sized slice is too small", d)
	}
	var sp spanSamples
	buildSpans(pr.in, tr, res.due, s.rounds, &sp)
	if len(sp.e2e) != s.rounds {
		t.Fatalf("reconstructed %d rounds, want %d", len(sp.e2e), s.rounds)
	}
	if len(sp.leafAdmit) != pr.in.intervals {
		t.Errorf("leaf_admit spans = %d, want one per interval (%d)", len(sp.leafAdmit), pr.in.intervals)
	}
	if len(sp.linkTransit) == 0 || len(sp.nodeWait) == 0 {
		t.Errorf("link_transit spans = %d, node_wait spans = %d, want some of each", len(sp.linkTransit), len(sp.nodeWait))
	}
	for i := range sp.e2e {
		sum := sp.feedGap[i]
		for _, gaps := range sp.levelGap {
			sum += gaps[i]
		}
		if !near(sum, sp.e2e[i]) {
			t.Errorf("round %d: gaps sum to %v ms, end to end is %v ms", i, sum, sp.e2e[i])
		}
	}
	// The builder's end-to-end figure and the sink's latency sample are the
	// same two stamps taken twice a few instructions apart.
	for i, e := range sp.e2e {
		if d := res.latMs[i] - e; d < 0 || d > 1 {
			t.Errorf("round %d: sink latency %v ms vs span end-to-end %v ms", i, res.latMs[i], e)
		}
	}
}

// TestBuildSpansByHand checks attribution on a hand-built event list: a
// three-node tree, two global rounds, every stamp chosen.
func TestBuildSpansByHand(t *testing.T) {
	s := spec{name: "hand", degree: 2, height: 1, pGlobal: 1, rounds: 2, tokens: 1, killRound: -1}
	in := generate(s, 1)
	tr := newTracer(in)
	us := func(x int64) int64 { return x * 1000 }
	ev := func(at int64, kind obsv.EventKind, node, peer, seq, count int) {
		tr.stamp(0, us(at), obsv.Event{Kind: kind, Node: node, Peer: peer, Seq: seq, Count: count})
	}
	for r := 0; r < 2; r++ {
		base := int64(1000 * r)
		for p := 0; p < 3; p++ {
			tr.observed(0, p, r, us(base+int64(10*p)), us(base+int64(10*p)+1))
		}
		ev(base+5, obsv.IntervalObserved, 0, obsv.NoPeer, 0, 1)  // called at +0
		ev(base+18, obsv.IntervalObserved, 1, obsv.NoPeer, 0, 1) // called at +10
		ev(base+19, obsv.SolutionFound, 1, obsv.NoPeer, r, 1)
		ev(base+20, obsv.ReportSent, 1, 0, r, 1)
		ev(base+29, obsv.IntervalObserved, 2, obsv.NoPeer, 0, 1) // called at +20
		ev(base+30, obsv.SolutionFound, 2, obsv.NoPeer, r, 1)
		ev(base+31, obsv.ReportSent, 2, 0, r, 1)
		ev(base+120, obsv.ReportRecv, 0, 1, r, 1) // 100 µs in transit
		ev(base+231, obsv.ReportRecv, 0, 2, r, 1) // 200 µs in transit
		ev(base+240, obsv.SolutionFound, 0, obsv.NoPeer, r, 1)
	}
	ps := newPass(in, nil)
	ps.due[0][0].Store(us(20))
	ps.due[0][1].Store(us(1020))
	var sp spanSamples
	buildSpans(in, tr, ps.due, s.rounds, &sp)

	want := func(name string, got []float64, exp ...float64) {
		t.Helper()
		if len(got) != len(exp) {
			t.Fatalf("%s: %d samples %v, want %v", name, len(got), got, exp)
		}
		for i := range exp {
			if !near(got[i], exp[i]) {
				t.Errorf("%s[%d] = %v ms, want %v", name, i, got[i], exp[i])
			}
		}
	}
	want("leaf_admit", sp.leafAdmit, .005, .005, .008, .008, .009, .009)
	want("link_transit", sp.linkTransit, .1, .2, .1, .2)
	want("node_wait", sp.nodeWait, .12, .12) // first child report at +120, solution at +240
	want("level_gap.feed", sp.feedGap, .01, .01)
	want("level_gap.L0", sp.levelGap[0], .21, .21)
	want("e2e", sp.e2e, .22, .22)
	if len(sp.spans) == 0 {
		t.Error("no spans kept for the trace file")
	}
}

// TestTokensWithMixedRounds feeds a mix in which most rounds expect no root
// detection through the closed loop against the system that is not there:
// rounds that expect none must ride free, the others must each take and get
// back exactly one token, and the pass must end — no deadlock — with one
// latency sample per expected root detection.
func TestTokensWithMixedRounds(t *testing.T) {
	s := spec{name: "mixed", degree: 3, height: 2, pGlobal: .3, pGroup: .3, pSubset: .2, rounds: 60, tokens: 2, killRound: -1}
	in := generate(s, 11)
	if n := len(in.rootRounds); n == 0 || n == s.rounds {
		t.Fatalf("want a mix of rounds with and without a root detection, got %d of %d", n, s.rounds)
	}
	ref := runReference(in)
	if err := ref.checkAgainstTruth(in); err != nil {
		t.Fatal(err)
	}
	done := make(chan passResult, 1)
	go func() { done <- runPass(in, ref, 1, buildNoop, nil) }()
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if len(res.latMs) != len(in.rootRounds) {
			t.Errorf("latency samples = %d, want %d", len(res.latMs), len(in.rootRounds))
		}
		if res.onTime != res.dueRounds {
			t.Errorf("on time %d of %d rounds against an instant system", res.onTime, res.dueRounds)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("closed-loop pass did not end: token accounting deadlocked")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the declarations in this package
// from drifting apart: same workloads, same metrics, units, directions and
// bounds, in the same order.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside bench/: %v", err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDecl                 `json:"end_to_end"`
		PerLayer  []metricDecl                 `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the benchmark %q / %q", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDecl) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark declares %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark declares %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
