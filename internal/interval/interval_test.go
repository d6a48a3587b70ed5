package interval

import (
	"math/rand"
	"testing"

	"hierdet/internal/vclock"
)

func TestNewBaseInterval(t *testing.T) {
	x := New(2, 0, vclock.Of(0, 0, 1, 0), vclock.Of(0, 0, 3, 0))
	if x.Agg {
		t.Error("base interval marked aggregated")
	}
	if x.Bases != 1 {
		t.Errorf("Bases = %d, want 1", x.Bases)
	}
	if len(x.Span) != 1 || x.Span[0] != 2 {
		t.Errorf("Span = %v, want [2]", x.Span)
	}
	if !x.WellFormed() {
		t.Error("interval with Lo ≤ Hi reported ill-formed")
	}
}

func TestWellFormedRejectsInverted(t *testing.T) {
	x := New(0, 0, vclock.Of(5, 0), vclock.Of(1, 0))
	if x.WellFormed() {
		t.Error("Lo > Hi reported well-formed")
	}
}

func TestOverlapPairwise(t *testing.T) {
	// Two intervals on 2 processes: x at P0 spans events 1..4, y at P1 spans
	// cuts that causally interleave with x.
	x := New(0, 0, vclock.Of(1, 0), vclock.Of(4, 2))
	y := New(1, 0, vclock.Of(0, 1), vclock.Of(2, 3))
	if !Overlap(x, y) || !Overlap(y, x) {
		t.Error("interleaved intervals should overlap (symmetrically)")
	}
	// z strictly after x: min(z) not before max(x) is fine, but max(x) < min(z)
	// kills overlap.
	z := New(1, 1, vclock.Of(5, 4), vclock.Of(6, 6))
	if Overlap(x, z) {
		t.Error("sequential intervals should not overlap")
	}
}

func TestOverlapAllEdgeCases(t *testing.T) {
	if OverlapAll(nil) {
		t.Error("empty set should not overlap")
	}
	x := New(0, 0, vclock.Of(1, 0), vclock.Of(3, 1))
	if !OverlapAll([]Interval{x}) {
		t.Error("singleton set should trivially overlap")
	}
}

func TestAggregateBounds(t *testing.T) {
	// Paper Eq. 5/6: lower bound is component-wise max of the Los, upper
	// bound is component-wise min of the His.
	x1 := New(0, 0, vclock.Of(1, 0, 0, 0), vclock.Of(5, 3, 2, 1))
	x2 := New(2, 0, vclock.Of(0, 1, 2, 0), vclock.Of(4, 4, 6, 2))
	agg := Aggregate([]Interval{x1, x2}, 7, 3, false)
	if !agg.Lo.Equal(vclock.Of(1, 1, 2, 0)) {
		t.Errorf("agg.Lo = %v, want [1 1 2 0]", agg.Lo)
	}
	if !agg.Hi.Equal(vclock.Of(4, 3, 2, 1)) {
		t.Errorf("agg.Hi = %v, want [4 3 2 1]", agg.Hi)
	}
	if !agg.Agg || agg.Origin != 7 || agg.Seq != 3 {
		t.Errorf("aggregate identity wrong: %v", agg)
	}
	if agg.Bases != 2 {
		t.Errorf("Bases = %d, want 2", agg.Bases)
	}
	if len(agg.Span) != 2 || agg.Span[0] != 0 || agg.Span[1] != 2 {
		t.Errorf("Span = %v, want [0 2]", agg.Span)
	}
	if agg.Members() != nil {
		t.Error("Members retained without keepMembers")
	}
}

func TestAggregateKeepsMembers(t *testing.T) {
	x1 := New(0, 0, vclock.Of(1, 0), vclock.Of(3, 2))
	x2 := New(1, 0, vclock.Of(0, 1), vclock.Of(2, 3))
	agg := Aggregate([]Interval{x1, x2}, 5, 0, true)
	if len(agg.Members()) != 2 {
		t.Fatalf("Members = %d, want 2", len(agg.Members()))
	}
	bases := BaseIntervals(agg)
	if len(bases) != 2 {
		t.Fatalf("BaseIntervals = %d, want 2", len(bases))
	}
	// Nested aggregation expands fully.
	y := New(2, 0, vclock.Of(0, 0), vclock.Of(9, 9))
	top := Aggregate([]Interval{agg, y}, 6, 0, true)
	if got := BaseIntervals(top); len(got) != 3 {
		t.Fatalf("nested BaseIntervals = %d, want 3", len(got))
	}
}

func TestBaseIntervalsWithoutMembers(t *testing.T) {
	x1 := New(0, 0, vclock.Of(1, 0), vclock.Of(3, 2))
	x2 := New(1, 0, vclock.Of(0, 1), vclock.Of(2, 3))
	agg := Aggregate([]Interval{x1, x2}, 5, 0, false)
	got := BaseIntervals(agg)
	if len(got) != 1 || !got[0].Agg {
		t.Fatalf("opaque aggregate should expand to itself, got %v", got)
	}
}

func TestAggregatePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Aggregate(nil) did not panic")
		}
	}()
	Aggregate(nil, 0, 0, false)
}

func TestAggregateSpanDeduplicates(t *testing.T) {
	// Two aggregates sharing span members must union, not double-count.
	x1 := New(3, 0, vclock.Of(1, 1), vclock.Of(4, 4))
	a1 := Aggregate([]Interval{x1}, 9, 0, false)
	a2 := Aggregate([]Interval{x1, a1}, 9, 1, false)
	if len(a2.Span) != 1 || a2.Span[0] != 3 {
		t.Errorf("Span = %v, want [3]", a2.Span)
	}
}

func TestIntervalString(t *testing.T) {
	x := New(2, 1, vclock.Of(1, 0, 2), vclock.Of(3, 1, 4))
	s := x.String()
	if s != "ivl{P2#1 [1 0 2]..[3 1 4] span[2]}" {
		t.Fatalf("String = %q", s)
	}
	agg := Aggregate([]Interval{x}, 5, 0, false)
	if got := agg.String(); got[:3] != "agg" {
		t.Fatalf("aggregate String = %q", got)
	}
}

// TestFigure3Aggregation reconstructs the scenario of the paper's Figure 3:
// four processes; X = {x1 at P1, x2 at P3}, Y = {y1 at P2, y2 at P4};
// overlap(X) and overlap(Y) hold; the aggregates' overlap certifies
// overlap(X ∪ Y) (Theorem 1). Process ids here are 0-based.
func TestFigure3Aggregation(t *testing.T) {
	// Crafted timestamps: all four intervals mutually interleave — each
	// interval's start causally precedes every interval's end, via cross
	// messages among the four processes.
	x1 := New(0, 0, vclock.Of(2, 0, 1, 0), vclock.Of(6, 4, 5, 4))
	x2 := New(2, 0, vclock.Of(1, 0, 2, 0), vclock.Of(5, 4, 6, 4))
	y1 := New(1, 0, vclock.Of(0, 2, 1, 1), vclock.Of(5, 6, 5, 4))
	y2 := New(3, 0, vclock.Of(0, 1, 1, 2), vclock.Of(5, 4, 5, 6))

	X := []Interval{x1, x2}
	Y := []Interval{y1, y2}
	Z := []Interval{x1, x2, y1, y2}

	if !OverlapAll(X) {
		t.Fatal("overlap(X) should hold")
	}
	if !OverlapAll(Y) {
		t.Fatal("overlap(Y) should hold")
	}
	if !OverlapAll(Z) {
		t.Fatal("overlap(X ∪ Y) should hold")
	}

	aggX := Aggregate(X, 1, 0, false)
	aggY := Aggregate(Y, 3, 0, false)
	if !Overlap(aggX, aggY) {
		t.Fatal("aggregates should overlap when the union does (Theorem 1 ⇒)")
	}

	// Eq. 5/6 on X: component-wise max of mins / min of maxes.
	if !aggX.Lo.Equal(vclock.Of(2, 0, 2, 0)) {
		t.Errorf("min(⊓X) = %v, want [2 0 2 0]", aggX.Lo)
	}
	if !aggX.Hi.Equal(vclock.Of(5, 4, 5, 4)) {
		t.Errorf("max(⊓X) = %v, want [5 4 5 4]", aggX.Hi)
	}
}

// TestTheorem1Soundness checks the direction the detector relies on: if
// overlap(X), overlap(Y) and overlap(⊓X, ⊓Y) all hold, then overlap(X ∪ Y)
// holds — on randomized overlapping pulse constructions.
func TestTheorem1Soundness(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + r.Intn(5)
		X := randPulse(r, n, 1+r.Intn(3))
		Y := randPulse(r, n, 1+r.Intn(3))
		if !OverlapAll(X) || !OverlapAll(Y) {
			continue // pulse construction almost always overlaps; skip rest
		}
		aggX := Aggregate(X, 100, trial, false)
		aggY := Aggregate(Y, 101, trial, false)
		if Overlap(aggX, aggY) {
			Z := append(append([]Interval(nil), X...), Y...)
			if !OverlapAll(Z) {
				t.Fatalf("Theorem 1 soundness violated:\nX=%v\nY=%v", X, Y)
			}
		}
	}
}

// TestEq7AggregationAssociativity checks paper Eq. 7:
// ⊓(⊓X, ⊓Y) == ⊓(X ∪ Y) — aggregating aggregates equals aggregating the
// union, so multi-level aggregation loses nothing.
func TestEq7AggregationAssociativity(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + r.Intn(5)
		X := randPulse(r, n, 1+r.Intn(3))
		Y := randPulse(r, n, 1+r.Intn(3))
		aggX := Aggregate(X, 0, 0, false)
		aggY := Aggregate(Y, 1, 0, false)
		nested := Aggregate([]Interval{aggX, aggY}, 2, 0, false)
		Z := append(append([]Interval(nil), X...), Y...)
		flat := Aggregate(Z, 2, 0, false)
		if !nested.Lo.Equal(flat.Lo) || !nested.Hi.Equal(flat.Hi) {
			t.Fatalf("Eq. 7 violated: nested %v..%v vs flat %v..%v",
				nested.Lo, nested.Hi, flat.Lo, flat.Hi)
		}
	}
}

// randPulse builds k intervals over an n-process system whose bounds straddle
// a common causal frontier, so they mutually overlap with high probability:
// every Lo is below the frontier, every Hi above it.
func randPulse(r *rand.Rand, n, k int) []Interval {
	frontier := make(vclock.VC, n)
	for i := range frontier {
		frontier[i] = uint32(3 + r.Intn(4))
	}
	out := make([]Interval, k)
	for i := range out {
		lo := make(vclock.VC, n)
		hi := make(vclock.VC, n)
		for c := range lo {
			lo[c] = frontier[c] - uint32(1+r.Intn(3))
			hi[c] = frontier[c] + uint32(1+r.Intn(3))
		}
		out[i] = New(i%n, i/n, lo, hi)
	}
	return out
}
