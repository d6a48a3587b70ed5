package interval

import (
	"reflect"
	"testing"
	"unsafe"

	"hierdet/internal/vclock"
)

// TestIntervalSize pins the record's size: every queue slot, solution set,
// detection record, report and event carries an Interval by value, so a
// field added here is paid for on every one of them. Term and Members live
// behind ext for that reason.
func TestIntervalSize(t *testing.T) {
	if got := unsafe.Sizeof(Interval{}); got > 112 {
		t.Fatalf("Interval is %d bytes, want at most 112", got)
	}
}

func TestTermAndMembersAccessors(t *testing.T) {
	x := New(0, 0, vclock.Of(1, 0), vclock.Of(2, 0))
	if x.Term() != nil || x.Members() != nil {
		t.Fatalf("fresh interval has Term %v, Members %v", x.Term(), x.Members())
	}
	x.SetTerm(nil)
	if x.ext != nil {
		t.Fatal("SetTerm(nil) on an interval without a term allocated a holder")
	}
	before := x
	term := vclock.Of(3, 0)
	x.SetTerm(term)
	if !x.Term().Equal(term) {
		t.Fatalf("Term = %v, want %v", x.Term(), term)
	}
	if before.Term() != nil {
		t.Fatal("SetTerm reached a copy taken before it")
	}
	shared := x
	x.SetTerm(vclock.Of(4, 0))
	if !shared.Term().Equal(term) {
		t.Fatalf("a second SetTerm changed a copy's Term to %v", shared.Term())
	}

	agg := Aggregate([]Interval{x, New(1, 0, vclock.Of(0, 1), vclock.Of(2, 3))}, 5, 0, true)
	if agg.Term() != nil || len(agg.Members()) != 2 {
		t.Fatalf("aggregate has Term %v and %d members, want none and 2", agg.Term(), len(agg.Members()))
	}
	if got := agg.Members()[0].Term(); !got.Equal(vclock.Of(4, 0)) {
		t.Fatalf("a retained member lost its Term: %v", got)
	}
	agg.SetTerm(term)
	if len(agg.Members()) != 2 {
		t.Fatal("SetTerm dropped the members")
	}
	agg.DropExtra()
	if agg.Term() != nil || agg.Members() != nil {
		t.Fatal("DropExtra left something behind")
	}
}

// TestBaseIntervalsThreeLevels expands a root aggregate built the way the
// detector builds it under KeepMembers — leaves aggregate singletons, inner
// nodes their own interval plus their children's aggregates — back into the
// seven base intervals of a three-level binary tree, in tree order.
func TestBaseIntervalsThreeLevels(t *testing.T) {
	st := vclock.NewStore(7)
	base := func(p int) Interval {
		lo, hi := vclock.New(7), vclock.New(7)
		for k := range hi {
			hi[k] = 9
		}
		lo[p] = 1
		return New(p, 0, lo, hi)
	}
	leaf := func(p int) Interval { return AggregateFlat(st, []Interval{base(p)}, p, 0, true) }
	mid1 := AggregateFlat(st, []Interval{base(1), leaf(3), leaf(4)}, 1, 0, true)
	mid2 := AggregateFlat(st, []Interval{base(2), leaf(5), leaf(6)}, 2, 0, true)
	root := AggregateFlat(st, []Interval{base(0), mid1, mid2}, 0, 0, true)

	if want := []int{0, 1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(root.Span, want) || root.Bases != 7 {
		t.Fatalf("root Span %v Bases %d, want %v and 7", root.Span, root.Bases, want)
	}
	var origins []int
	for _, b := range BaseIntervals(root) {
		if b.Agg {
			t.Fatalf("BaseIntervals returned an aggregate: %v", b)
		}
		origins = append(origins, b.Origin)
	}
	if want := []int{0, 1, 3, 4, 2, 5, 6}; !reflect.DeepEqual(origins, want) {
		t.Fatalf("base intervals of origins %v, want %v", origins, want)
	}
	if got := BaseIntervals(AggregateFlat(st, []Interval{base(0), mid1}, 0, 1, false)); len(got) != 1 || !got[0].Agg {
		t.Fatalf("an aggregate built without keepMembers must expand to itself, got %v", got)
	}
}

// TestAggregateFlatSpanReuse: successive aggregates from one store share one
// span slice exactly while the merged span stays the same set, and never
// otherwise — not for a subset, a prefix, a superset or a permutation of
// members — and a shared or replaced span is never written to.
func TestAggregateFlatSpanReuse(t *testing.T) {
	st := vclock.NewStore(4)
	iv := func(p, seq int) Interval { return New(p, seq, vclock.Of(0, 0, 0, 0), vclock.Of(9, 9, 9, 9)) }
	set := func(seq int, ps ...int) []Interval {
		var xs []Interval
		for _, p := range ps {
			xs = append(xs, iv(p, seq))
		}
		return xs
	}
	same := func(a, b []int) bool { return &a[0] == &b[0] } // one backing array

	first := AggregateFlat(st, set(0, 0, 1, 2), 0, 0, false)
	again := AggregateFlat(st, set(1, 2, 0, 1), 0, 1, false) // member order is not span order
	if !same(first.Span, again.Span) || len(again.Span) != 3 {
		t.Fatal("an equal span was rebuilt instead of shared")
	}
	for _, tc := range []struct {
		name string
		ps   []int
		want []int
	}{
		{"a subset (a child removed)", []int{0, 2}, []int{0, 2}},
		{"back to the full set", []int{0, 1, 2}, []int{0, 1, 2}},
		{"a proper prefix", []int{0, 1}, []int{0, 1}},
		{"a superset of the previous", []int{0, 1, 3}, []int{0, 1, 3}},
		{"one longer than the previous", []int{0, 1, 3, 2}, []int{0, 1, 2, 3}},
	} {
		prev := st.LastSpan
		got := AggregateFlat(st, set(2, tc.ps...), 0, 2, false)
		if !reflect.DeepEqual(got.Span, tc.want) {
			t.Fatalf("%s: Span = %v, want %v", tc.name, got.Span, tc.want)
		}
		if same(got.Span, prev) {
			t.Fatalf("%s: a differing span aliases the previous one", tc.name)
		}
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(first.Span, want) || !reflect.DeepEqual(again.Span, want) {
		t.Fatalf("published spans were written to: %v, %v", first.Span, again.Span)
	}
	// A singleton aliases its member's span and leaves the remembered one be.
	prev := st.LastSpan
	one := iv(3, 0)
	if got := AggregateFlat(st, []Interval{one}, 0, 3, false); !same(got.Span, one.Span) || !same(st.LastSpan, prev) {
		t.Fatal("singleton aggregation must alias the member's span and not touch LastSpan")
	}
}
