package core

import (
	"testing"

	"hierdet/internal/interval"
	"hierdet/internal/vclock"
)

// testTree drives a set of Nodes wired into a tree, synchronously propagating
// every aggregate to the parent — the deterministic, transport-free analogue
// of the monitor runtime.
type testTree struct {
	t      *testing.T
	nodes  map[int]*Node
	parent map[int]int // -1 for root
	all    []Detection // every detection at every level, in order
	root   []Detection // detections at the tree root only
}

func newTestTree(t *testing.T, cfg Config) *testTree {
	return &testTree{
		t:      t,
		nodes:  make(map[int]*Node),
		parent: make(map[int]int),
	}
}

func (tt *testTree) add(id, parent int, cfg Config, local bool) *Node {
	nd := NewNode(id, cfg, local)
	tt.nodes[id] = nd
	tt.parent[id] = parent
	if parent >= 0 {
		tt.nodes[parent].AddChild(id)
	}
	return nd
}

// local delivers a local-predicate interval to node id and propagates.
func (tt *testTree) local(id int, iv interval.Interval) {
	tt.deliver(id, id, iv)
}

func (tt *testTree) deliver(node, src int, iv interval.Interval) {
	dets := tt.nodes[node].OnInterval(src, iv)
	tt.propagate(node, dets)
}

func (tt *testTree) propagate(node int, dets []Detection) {
	for _, det := range dets {
		tt.all = append(tt.all, det)
		p := tt.parent[node]
		if p < 0 {
			tt.root = append(tt.root, det)
			continue
		}
		tt.deliver(p, node, det.Agg)
	}
}

func (tt *testTree) removeChild(node, child int) {
	tt.propagate(node, tt.nodes[node].RemoveChild(child))
}

func iv(origin, seq int, lo, hi vclock.VC) interval.Interval {
	return interval.New(origin, seq, lo, hi)
}

func TestLeafForwardsEveryInterval(t *testing.T) {
	cfg := Config{N: 2, Strict: true}
	tt := newTestTree(t, cfg)
	root := tt.add(1, -1, cfg, true)
	tt.add(0, 1, cfg, true)

	// Three intervals at leaf P0; P1's own predicate holds once, overlapping
	// the second.
	tt.local(0, iv(0, 0, vclock.Of(1, 0), vclock.Of(2, 0)))
	tt.local(0, iv(0, 1, vclock.Of(4, 2), vclock.Of(5, 2)))
	tt.local(1, iv(1, 0, vclock.Of(3, 1), vclock.Of(5, 5)))
	tt.local(0, iv(0, 2, vclock.Of(7, 6), vclock.Of(8, 6)))

	// Leaf detects (trivially) once per interval.
	leafDets := 0
	for _, d := range tt.all {
		if d.Node == 0 {
			leafDets++
		}
	}
	if leafDets != 3 {
		t.Fatalf("leaf detections = %d, want 3", leafDets)
	}
	// Root: x0#0 is eliminated (ends before P1's interval starts:
	// min(x1) = [3 1] ≮ max(x0#0) = [2 0]); x0#1 pairs with x1#0.
	if len(tt.root) != 1 {
		t.Fatalf("root detections = %d, want 1", len(tt.root))
	}
	if got := tt.root[0].Agg.Span; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("root detection span = %v, want [0 1]", got)
	}
	// Two eliminations at the root: x0#0 (ends before x1 begins) and, after
	// the solution {x0#1, x1} is found and x0#1 pruned, x1 itself — x0#2
	// proves it useless (min(x0#2) ≮ max(x1) fails the other way: x1 ends
	// before x0#2 begins).
	if root.Stats().Eliminated != 2 {
		t.Fatalf("root eliminated = %d, want 2", root.Stats().Eliminated)
	}
	if root.Stats().Pruned != 1 {
		t.Fatalf("root pruned = %d, want 1 (x0#1)", root.Stats().Pruned)
	}
}

// TestFigure2Scenario encodes the paper's Figure 2(a)/(b): tree P1→P2→P3←P4
// (P2 and P4 are P3's children, P1 is P2's child; 0-based ids: P1=0, P2=1,
// P3=2, P4=3). The first solution at P2 is {x1,x2}; its aggregate fails at
// P3 against {x4,x5}; repeated detection at P2 then produces {x1,x3}, whose
// aggregate completes the global solution {x1,x3,x4,x5}.
func TestFigure2Scenario(t *testing.T) {
	cfg := Config{N: 4, Strict: true, KeepMembers: true}
	tt := newTestTree(t, cfg)
	tt.add(2, -1, cfg, true) // P3, root
	tt.add(1, 2, cfg, true)  // P2, child of P3
	tt.add(3, 2, cfg, true)  // P4, child of P3
	tt.add(0, 1, cfg, true)  // P1, child of P2

	x1 := iv(0, 0, vclock.Of(1, 0, 0, 0), vclock.Of(6, 5, 2, 2))
	x2 := iv(1, 0, vclock.Of(0, 1, 0, 0), vclock.Of(1, 3, 0, 0))
	x3 := iv(1, 1, vclock.Of(2, 4, 0, 0), vclock.Of(5, 7, 1, 1))
	x4 := iv(2, 0, vclock.Of(0, 0, 1, 0), vclock.Of(3, 4, 4, 1))
	x5 := iv(3, 0, vclock.Of(0, 0, 0, 1), vclock.Of(3, 4, 1, 4))

	tt.local(0, x1) // P1's interval reaches P2
	tt.local(1, x2) // first solution {x1,x2} at P2 → aggregate to P3
	tt.local(2, x4)
	tt.local(3, x5) // P3 attempts {⊓(x1,x2), x4, x5}: fails, aggregate eliminated
	if len(tt.root) != 0 {
		t.Fatalf("premature root detection: %v", tt.root)
	}
	p3 := tt.nodes[2]
	if p3.Stats().Eliminated != 1 {
		t.Fatalf("P3 eliminated = %d, want 1 (the {x1,x2} aggregate)", p3.Stats().Eliminated)
	}

	tt.local(1, x3) // second solution {x1,x3} at P2 → global solution at P3
	if len(tt.root) != 1 {
		t.Fatalf("root detections = %d, want 1", len(tt.root))
	}
	span := tt.root[0].Agg.Span
	if len(span) != 4 {
		t.Fatalf("global detection span = %v, want all 4 processes", span)
	}
	// Ground truth: expand to base intervals and verify Eq. 2 pairwise.
	bases := nil2empty(t, tt.root[0])
	if len(bases) != 4 {
		t.Fatalf("base intervals = %d, want 4", len(bases))
	}
	if !interval.OverlapAll(bases) {
		t.Fatal("reported solution does not satisfy Definitely(Φ) on base intervals")
	}
	// The solution must be {x1, x3, x4, x5} — x3, not x2.
	for _, b := range bases {
		if b.Origin == 1 && b.Seq != 1 {
			t.Fatalf("solution used x2 (seq %d), want x3", b.Seq)
		}
	}

	// Repeated-detection bookkeeping at P2: after the first solution, x2 was
	// pruned and x1 kept (max(x2) < max(x1)).
	p2 := tt.nodes[1]
	if p2.Stats().Detections != 2 {
		t.Fatalf("P2 detections = %d, want 2", p2.Stats().Detections)
	}
}

// TestFigure2Failover encodes Figure 2(c): P3 fails after x4; the tree
// reconnects with P2 under P4, and the partial predicate over {P1, P2, P4}
// is still detected via the {x1, x3} aggregate and x5.
func TestFigure2Failover(t *testing.T) {
	cfg := Config{N: 4, Strict: true, KeepMembers: true}
	tt := newTestTree(t, cfg)
	tt.add(3, -1, cfg, true) // P4 becomes the new root
	tt.add(1, 3, cfg, true)  // P2 adopted by P4
	tt.add(0, 1, cfg, true)  // P1 still under P2

	x1 := iv(0, 0, vclock.Of(1, 0, 0, 0), vclock.Of(6, 5, 2, 2))
	x3 := iv(1, 1, vclock.Of(2, 4, 0, 0), vclock.Of(5, 7, 1, 1))
	x5 := iv(3, 0, vclock.Of(0, 0, 0, 1), vclock.Of(3, 4, 1, 4))

	tt.local(3, x5)
	tt.local(0, x1)
	tt.local(1, x3)

	if len(tt.root) != 1 {
		t.Fatalf("root detections = %d, want 1", len(tt.root))
	}
	span := tt.root[0].Agg.Span
	want := []int{0, 1, 3}
	if len(span) != 3 || span[0] != want[0] || span[1] != want[1] || span[2] != want[2] {
		t.Fatalf("partial predicate span = %v, want %v (survivors)", span, want)
	}
}

// TestFigure1NonNestedSolution: the approach of Garg–Waldecker [7] assumes a
// solution set can be ordered x1..xk with min(x_i) ≺ min(x_j) and
// max(x_j) ≺ max(x_i) for i<j (nested intervals, paper Fig. 1). This test
// builds a solution set whose members have pairwise-concurrent bounds — no
// nesting order exists — and checks our detector still finds it.
func TestFigure1NonNestedSolution(t *testing.T) {
	cfg := Config{N: 3, Strict: true, KeepMembers: true}
	tt := newTestTree(t, cfg)
	tt.add(2, -1, cfg, true)
	tt.add(0, 2, cfg, true)
	tt.add(1, 2, cfg, true)

	// All three intervals straddle a common frontier; their maxes are
	// pairwise concurrent, so no nested ordering exists.
	a := iv(0, 0, vclock.Of(1, 0, 0), vclock.Of(4, 3, 3))
	b := iv(1, 0, vclock.Of(0, 1, 0), vclock.Of(3, 4, 3))
	c := iv(2, 0, vclock.Of(0, 0, 1), vclock.Of(3, 3, 4))
	if a.Hi.Compare(b.Hi) != vclock.Concurrent || b.Hi.Compare(c.Hi) != vclock.Concurrent {
		t.Fatal("test construction broken: maxes should be concurrent")
	}

	tt.local(0, a)
	tt.local(1, b)
	tt.local(2, c)
	if len(tt.root) != 1 {
		t.Fatalf("root detections = %d, want 1", len(tt.root))
	}
	if !interval.OverlapAll(nil2empty(t, tt.root[0])) {
		t.Fatal("solution fails Eq. 2")
	}
	// With concurrent maxes, Eq. 10 prunes all three (each is minimal).
	if got := tt.nodes[2].Stats().Pruned; got != 3 {
		t.Fatalf("pruned = %d, want 3", got)
	}
}

// TestRepeatedDetectionPulses drives k synchronized pulses through a 7-node
// binary tree and expects exactly k detections at the root — the repeated
// detection property the one-shot algorithms lack.
func TestRepeatedDetectionPulses(t *testing.T) {
	const n, k = 7, 25
	cfg := Config{N: n, Strict: true, KeepMembers: true}
	tt := newTestTree(t, cfg)
	// Balanced binary tree: 0 root; 1,2 inner; 3..6 leaves.
	tt.add(0, -1, cfg, true)
	tt.add(1, 0, cfg, true)
	tt.add(2, 0, cfg, true)
	tt.add(3, 1, cfg, true)
	tt.add(4, 1, cfg, true)
	tt.add(5, 2, cfg, true)
	tt.add(6, 2, cfg, true)

	for pulse := 0; pulse < k; pulse++ {
		for _, ivl := range pulseIntervals(n, pulse) {
			tt.local(ivl.Origin, ivl)
		}
	}
	if len(tt.root) != k {
		t.Fatalf("root detections = %d, want %d", len(tt.root), k)
	}
	for i, d := range tt.root {
		bases := nil2empty(t, d)
		if len(bases) != n {
			t.Fatalf("pulse %d: base intervals = %d, want %d", i, len(bases), n)
		}
		if !interval.OverlapAll(bases) {
			t.Fatalf("pulse %d: solution violates Eq. 2", i)
		}
	}
}

// pulseIntervals builds one globally synchronized pulse: every process's
// interval straddles the pulse's causal frontier, so all n intervals mutually
// overlap, and pulse p+1 begins strictly after pulse p ends.
func pulseIntervals(n, pulse int) []interval.Interval {
	base := uint32(pulse * 10)
	out := make([]interval.Interval, n)
	for p := 0; p < n; p++ {
		lo := make(vclock.VC, n)
		hi := make(vclock.VC, n)
		for c := 0; c < n; c++ {
			lo[c] = base + 1
			hi[c] = base + 5
		}
		// The origin's own component distinguishes the bounds and keeps them
		// genuine event timestamps: start event, then end event.
		lo[p] = base + 2
		hi[p] = base + 6
		out[p] = interval.New(p, pulse, lo, hi)
	}
	return out
}

func TestRemoveChildUnblocksDetection(t *testing.T) {
	cfg := Config{N: 3, Strict: true}
	tt := newTestTree(t, cfg)
	tt.add(0, -1, cfg, true)
	tt.add(1, 0, cfg, true)
	tt.add(2, 0, cfg, true)

	// P0 and P1 contribute overlapping intervals; P2 stays silent.
	tt.local(0, iv(0, 0, vclock.Of(2, 1, 0), vclock.Of(5, 4, 0)))
	tt.local(1, iv(1, 0, vclock.Of(1, 2, 0), vclock.Of(4, 5, 0)))
	if len(tt.root) != 0 {
		t.Fatal("detection fired while a queue was empty")
	}
	// P2 dies; its queue disappears; the partial predicate over {P0, P1}
	// must now be detected.
	tt.removeChild(0, 2)
	if len(tt.root) != 1 {
		t.Fatalf("root detections after failure = %d, want 1", len(tt.root))
	}
	if span := tt.root[0].Agg.Span; len(span) != 2 {
		t.Fatalf("span = %v, want the two survivors", span)
	}
}

func TestRemoveUnknownChildIsNoop(t *testing.T) {
	nd := NewNode(0, Config{N: 2}, true)
	if dets := nd.RemoveChild(99); dets != nil {
		t.Fatalf("RemoveChild(unknown) = %v, want nil", dets)
	}
}

func TestStaleSourceDropped(t *testing.T) {
	nd := NewNode(0, Config{N: 2}, true)
	nd.AddChild(1)
	dets := nd.RemoveChild(1)
	_ = dets
	if got := nd.OnInterval(1, iv(1, 0, vclock.Of(0, 1), vclock.Of(0, 2))); got != nil {
		t.Fatalf("stale interval triggered detections: %v", got)
	}
	if nd.Stats().Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", nd.Stats().Dropped)
	}
}

func TestStrictSuccessionPanics(t *testing.T) {
	nd := NewNode(0, Config{N: 2, Strict: true}, true)
	nd.OnInterval(0, iv(0, 0, vclock.Of(1, 0), vclock.Of(3, 0)))
	defer func() {
		if recover() == nil {
			t.Error("out-of-order interval did not panic in Strict mode")
		}
	}()
	// Next interval starts causally before the previous ended.
	nd.OnInterval(0, iv(0, 1, vclock.Of(2, 0), vclock.Of(5, 0)))
}

func TestAddChildValidation(t *testing.T) {
	nd := NewNode(3, Config{N: 4}, true)
	for name, f := range map[string]func(){
		"self-child": func() { nd.AddChild(3) },
		"dup-child":  func() { nd.AddChild(1); nd.AddChild(1) },
		"bad-config": func() { NewNode(0, Config{}, true) },
		// A source id indexes clocks through its intervals' spans.
		"child-past-N":    func() { nd.AddChild(4) },
		"negative-child":  func() { nd.AddChild(-1) },
		"local-id-past-N": func() { NewNode(4, Config{N: 4}, true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSourcesAndQueueSizes(t *testing.T) {
	nd := NewNode(5, Config{N: 8}, true)
	nd.AddChild(2)
	nd.AddChild(7)
	srcs := nd.Sources()
	if len(srcs) != 3 || srcs[0] != 5 || srcs[1] != 2 || srcs[2] != 7 {
		t.Fatalf("Sources = %v", srcs)
	}
	if !nd.HasSource(2) || nd.HasSource(4) {
		t.Fatal("HasSource broken")
	}
	cur, hw := nd.QueueSizes()
	if cur != 0 || hw != 0 {
		t.Fatalf("fresh QueueSizes = %d,%d", cur, hw)
	}
}

func TestResetSource(t *testing.T) {
	nd := NewNode(0, Config{N: 2, Strict: true}, true)
	nd.AddChild(1)
	// Two intervals queue up from child 1 (no local interval, so no
	// detection consumes them).
	nd.OnInterval(1, iv(1, 0, vclock.Of(0, 1), vclock.Of(0, 2)))
	nd.OnInterval(1, iv(1, 1, vclock.Of(0, 3), vclock.Of(0, 4)))
	if cur, _ := nd.QueueSizes(); cur != 2 {
		t.Fatalf("resident = %d, want 2", cur)
	}
	nd.ResetSource(1)
	if cur, _ := nd.QueueSizes(); cur != 0 {
		t.Fatalf("resident after reset = %d, want 0", cur)
	}
	if nd.Stats().EpochDiscards != 2 {
		t.Fatalf("EpochDiscards = %d, want 2", nd.Stats().EpochDiscards)
	}
	// After the reset, Strict mode accepts a stream that regresses relative
	// to the discarded one — the whole point of the epoch restart.
	nd.OnInterval(1, iv(1, 0, vclock.Of(0, 1), vclock.Of(0, 2)))
	// Unknown source: no-op.
	nd.ResetSource(99)
}

// nil2empty expands a detection to base intervals, failing the test if the
// solution chain was not retained.
func nil2empty(t *testing.T, d Detection) []interval.Interval {
	t.Helper()
	bases := interval.BaseIntervals(d.Agg)
	for _, b := range bases {
		if b.Agg {
			t.Fatal("detection contains opaque aggregate; run with KeepMembers")
		}
	}
	return bases
}
