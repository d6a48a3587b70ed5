package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"hierdet/internal/interval"
	"hierdet/internal/procsim"
	"hierdet/internal/tree"
	"hierdet/internal/vclock"
	"hierdet/internal/workload"
)

// The parallel engine decides happens-before on spans (interval.SpanLess),
// which is exact for clocks that keep the interval.Interval contract. These
// tests check it against the full scan on Fidge–Mattern executions, show
// that Strict catches clocks that break the contract, and that a node fed
// base intervals decides every comparison on spans.

// TestQuickSpanVerdictsOnChaoticSchedules runs the parity schedules over 2–8
// sources, with and without the Eq. 9 peek: Strict recomputes every verdict
// with the full scan, and the oracle's detections must repeat.
func TestQuickSpanVerdictsOnChaoticSchedules(t *testing.T) {
	f := func(seed int64, nSel uint8, exact bool) bool {
		return equivalent(t, seed, 2+int(nSel%7), exact)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSpanVerdictsOnTrees runs whole trees — balanced, random and star —
// over workload executions of global, group and subset rounds, fed in
// backlogged runs, with the aggregates of real detections cascading upward.
// Every node runs Strict, so every verdict it decides on a span is checked
// against the full scan, and each node's detections must be the oracle's.
// Then SpanLess itself is checked against the full scan on sampled pairs of
// the execution's intervals and the aggregates the tree published.
func TestQuickSpanVerdictsOnTrees(t *testing.T) {
	f := func(seed int64, shape, sizeSel uint8, exact bool) bool {
		n := 24 + int(sizeSel%41)
		var topo *tree.Topology
		switch shape % 3 {
		case 0:
			topo = tree.BalancedN(n, 2+int(sizeSel%3))
		case 1:
			topo = tree.Random(n, 2+int(shape%4), seed)
		default:
			topo = tree.Star(n)
		}
		exec := workload.Generate(workload.Config{Topology: topo, Rounds: 40, Seed: seed,
			PGlobal: 0.4, PGroup: 0.2, PSubset: 0.2})
		cfg := Config{N: n, Strict: true, ExactPrune: exact}
		par := cfg
		par.Parallel = true
		oracle, got := runTree(topo, exec, cfg, seed), runTree(topo, exec, par, seed)
		for v := range oracle.dets {
			if !bytes.Equal(oracle.dets[v], got.dets[v]) {
				t.Logf("seed %d n %d: node %d detects differently from the oracle", seed, n, v)
				return false
			}
		}
		ivs := slices.Concat(append(exec.Streams, got.aggs)...)
		rng := rand.New(rand.NewSource(seed))
		for range 20000 {
			x, y := &ivs[rng.Intn(len(ivs))], &ivs[rng.Intn(len(ivs))]
			if less, ok := interval.SpanLess(x.Lo, y.Hi, x.Span); ok && less != x.Lo.Less(y.Hi) {
				t.Logf("seed %d: min(%v) < max(%v) is %v on the span", seed, x, y, less)
				return false
			}
			if len(x.Span) != 1 {
				continue
			}
			if less, ok := interval.SpanLess(x.Hi, y.Hi, x.Span); ok && less != x.Hi.Less(y.Hi) {
				t.Logf("seed %d: max(%v) < max(%v) is %v on the span", seed, x, y, less)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// treeRun is what runTree returns: each node's detections, encoded, and
// every aggregate the tree published.
type treeRun struct {
	dets [][]byte
	aggs []interval.Interval
}

// runTree feeds exec to a tree of nodes configured by cfg, each process's
// stream in runs of one to four intervals, every detection's aggregate
// delivered to the parent at once.
func runTree(topo *tree.Topology, exec *workload.Execution, cfg Config, seed int64) treeRun {
	n := topo.N()
	nodes := make([]*Node, n)
	for v := range n {
		nodes[v] = NewNode(v, cfg, true)
		for _, c := range topo.Children(v) {
			nodes[v].AddChild(c)
		}
	}
	run := treeRun{dets: make([][]byte, n)}
	var deliver func(v int, dets []Detection)
	deliver = func(v int, dets []Detection) {
		for _, d := range dets {
			run.dets[v] = append(run.dets[v], encodeDetections([]Detection{d})...)
			run.aggs = append(run.aggs, d.Agg)
			if parent := topo.Parent(v); parent >= 0 {
				deliver(parent, nodes[parent].OnInterval(v, d.Agg))
			}
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5a4))
	idx := make([]int, n)
	for fed := true; fed; {
		fed = false
		for p := range n {
			left := len(exec.Streams[p]) - idx[p]
			if left == 0 {
				continue
			}
			k := 1 + rng.Intn(min(left, 4))
			deliver(p, nodes[p].OnIntervals(p, exec.Streams[p][idx[p]:idx[p]+k]))
			idx[p] += k
			fed = true
		}
	}
	return run
}

// TestStrictCatchesBrokenClockContract hands a node a pair whose clocks break
// the contract: process 1 received process 2's message without ticking, so
// the start of its interval carries component 2 while reading as process 1's
// previous event. The aggregate x covering processes 1 and 3 then looks
// causally before y's end on its span — equal on component 1, smaller on 3 —
// while component 2 refutes it. Strict must panic naming the contract, in
// the round of y against x and an honest z.
func TestStrictCatchesBrokenClockContract(t *testing.T) {
	x := interval.Interval{Lo: vclock.Of(0, 1, 5, 1), Hi: vclock.Of(3, 3, 6, 3), Origin: 1, Agg: true, Span: []int{1, 3}, Bases: 2}
	y := interval.New(0, 0, vclock.Of(1, 0, 0, 0), vclock.Of(3, 1, 2, 2))
	z := interval.New(2, 0, vclock.Of(0, 0, 1, 0), vclock.Of(9, 9, 9, 9))
	nd := NewNode(0, Config{N: 4, Strict: true, Parallel: true}, true)
	nd.AddChild(1)
	nd.AddChild(2)
	nd.OnInterval(1, x)
	nd.OnInterval(2, z)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "clock contract violated") {
			t.Errorf("Strict did not panic on the broken contract (recovered %q)", msg)
		}
	}()
	nd.OnInterval(0, y)
}

// TestPruneReadsAnAggregateWhole builds, with procsim, a Fidge–Mattern
// execution where the prune's span shortcut would be wrong for an aggregate:
// x1 at process 1 and x2 at 2 both end after an event of process 3 that y,
// at process 0, never sees. max(⊓{x1, x2}) is their meet, [1 1 1 5], and
// max(y) is [4 1 2 0]: equal on component 1 and smaller on 2 — the span
// — yet refuted on 3. So ⊓X cannot revive y, and the root's prune, after
// the one detection of the tree 2 → 1 → 0, must remove both heads.
func TestPruneReadsAnAggregateWhole(t *testing.T) {
	const n = 4
	var ivs [n][]interval.Interval
	p := make([]*procsim.Process, n)
	for i := range p {
		p[i] = procsim.New(i, n, func(iv interval.Interval) { ivs[i] = append(ivs[i], iv) })
	}
	for _, q := range p[:3] {
		q.SetPredicate(true)
	}
	sy, s1, s2 := p[0].PrepareSend(), p[1].PrepareSend(), p[2].PrepareSend()
	m2 := p[2].PrepareSend()
	for range 4 {
		p[3].Internal()
	}
	m3 := p[3].PrepareSend()
	for _, m := range []vclock.VC{sy, s2, m3} {
		p[1].Receive(m)
	}
	for _, m := range []vclock.VC{sy, s1, m3} {
		p[2].Receive(m)
	}
	for _, m := range []vclock.VC{s1, m2, s2} {
		p[0].Receive(m)
	}
	for _, q := range p[:3] {
		q.SetPredicate(false)
		q.Internal()
	}
	nodes := make([]*Node, 3)
	for v := range nodes {
		nodes[v] = NewNode(v, Config{N: n, Strict: true, Parallel: true}, true)
		if v > 0 {
			nodes[v-1].AddChild(v)
		}
	}
	agg := func(v int, dets []Detection) interval.Interval {
		if len(dets) != 1 {
			t.Fatalf("node %d: %d detections, want 1", v, len(dets))
		}
		return dets[0].Agg
	}
	nodes[1].OnInterval(2, agg(2, nodes[2].OnInterval(2, ivs[2][0])))
	nodes[0].OnInterval(1, agg(1, nodes[1].OnInterval(1, ivs[1][0])))
	agg(0, nodes[0].OnInterval(0, ivs[0][0]))
	if cur, _ := nodes[0].QueueSizes(); cur != 0 {
		t.Fatalf("root keeps %d heads after its prune, want 0", cur)
	}
}

// starSources is the fan-in-16 star root's queue count (its own and 16
// leaves'); starN leaves room past them for the poisoned components.
const (
	starSources = 17
	starN       = 2 * starSources
)

// starInterval is process i's interval of round r. Its own component
// follows a fixed pattern — it starts at 4r+1 and ends at 4r+3, and its end
// has seen 4r+4 of every lower process and 4r+2 of every higher one — so no
// span comparison ever meets an equal component. Poisoned, every other
// component of Lo is MaxUint32, and so is component starSources+i of Hi:
// any comparison that reads past the span is refuted. The honest version
// zeroes them, which makes the full scan agree with the span.
func starInterval(i, r, seq int, poison bool) interval.Interval {
	lo, hi := make(vclock.VC, starN), make(vclock.VC, starN)
	base := uint32(4 * r)
	for j := range starSources {
		switch {
		case j == i:
			hi[j] = base + 3
		case j < i:
			hi[j] = base + 4
		default:
			hi[j] = base + 2
		}
	}
	lo[i] = base + 1
	if poison {
		for j := range lo {
			if j != i {
				lo[j] = math.MaxUint32
			}
		}
		hi[starSources+i] = math.MaxUint32
	}
	return interval.New(i, seq, lo, hi)
}

// TestStarDecidesEveryComparisonOnSpans feeds a 17-source star root leaf
// intervals whose components outside the spans are poisoned, in backlogged
// runs with rounds some processes skip, and requires the oracle's
// detections and Stats on the honest clocks: a single comparison that
// streamed all n components would have been refuted where its span said
// true, and eliminated or pruned a head the oracle keeps.
func TestStarDecidesEveryComparisonOnSpans(t *testing.T) {
	const rounds = 300
	rng := rand.New(rand.NewSource(28))
	streams := make([][2][]interval.Interval, starSources) // honest, poisoned
	for i := range streams {
		seq := 0
		for r := range rounds {
			if rng.Intn(8) == 0 {
				continue // i sits this round out
			}
			streams[i][0] = append(streams[i][0], starInterval(i, r, seq, false))
			streams[i][1] = append(streams[i][1], starInterval(i, r, seq, true))
			seq++
		}
	}
	members := func(dets []Detection) (out [][2]int) {
		for _, d := range dets {
			for _, m := range d.Set {
				out = append(out, [2]int{m.Origin, m.Seq})
			}
		}
		return out
	}
	oracle := NewNode(0, Config{N: starN, ExactPrune: true}, true)
	nd := NewNode(0, Config{N: starN, Parallel: true, ExactPrune: true}, true)
	for c := 1; c < starSources; c++ {
		oracle.AddChild(c)
		nd.AddChild(c)
	}
	var want, got [][2]int
	feed := rand.New(rand.NewSource(29))
	idx := make([]int, starSources)
	for fed := true; fed; {
		fed = false
		for p := range starSources {
			left := len(streams[p][0]) - idx[p]
			if left == 0 {
				continue
			}
			k := 1 + feed.Intn(min(left, 6))
			want = append(want, members(oracle.OnIntervals(p, streams[p][0][idx[p]:idx[p]+k]))...)
			got = append(got, members(nd.OnIntervals(p, streams[p][1][idx[p]:idx[p]+k]))...)
			idx[p] += k
			fed = true
		}
	}
	st := oracle.Stats()
	if st.Detections == 0 || st.Eliminated == 0 {
		t.Fatalf("the schedule detected or eliminated nothing: %+v", st)
	}
	if ps := nd.Stats(); ps != st || !slices.Equal(got, want) {
		t.Fatalf("a comparison read past its span:\n  oracle %+v\n  engine %+v", st, ps)
	}
	if st.FilteredComparisons != 0 || st.MemoHits != 0 {
		t.Fatalf("pruning-layer counters are not 0: %+v", st)
	}
}
