package interval

import (
	"math/rand"
	"reflect"
	"testing"

	"hierdet/internal/vclock"
)

// TestAggregateIntoMatchesAggregate checks the in-place form against the
// allocating form over randomized overlapping sets, including span dedup and
// base counting.
func TestAggregateIntoMatchesAggregate(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var scratch Interval
	for trial := 0; trial < 500; trial++ {
		n := 2 + r.Intn(6)
		k := 1 + r.Intn(5)
		xs := make([]Interval, k)
		for i := range xs {
			lo := make(vclock.VC, n)
			hi := make(vclock.VC, n)
			for c := 0; c < n; c++ {
				lo[c] = uint32(r.Intn(10))
				hi[c] = lo[c] + uint32(r.Intn(10))
			}
			xs[i] = New(r.Intn(n), i, lo, hi)
			if r.Intn(2) == 0 { // overlapping spans exercise the dedup
				xs[i].Span = append(xs[i].Span, r.Intn(n))
			}
			xs[i].Bases = 1 + r.Intn(3)
		}
		want := Aggregate(xs, 9, trial, false)
		AggregateInto(&scratch, Refs(xs), 9, trial, false)
		if !scratch.Lo.Equal(want.Lo) || !scratch.Hi.Equal(want.Hi) {
			t.Fatalf("bounds differ: %v..%v vs %v..%v", scratch.Lo, scratch.Hi, want.Lo, want.Hi)
		}
		if !reflect.DeepEqual(scratch.Span, want.Span) {
			t.Fatalf("span differs: %v vs %v", scratch.Span, want.Span)
		}
		if scratch.Bases != want.Bases || scratch.Origin != want.Origin ||
			scratch.Seq != want.Seq || !scratch.Agg {
			t.Fatalf("metadata differs: %+v vs %+v", scratch, want)
		}
	}
}

// TestAggregateIntoReusesStorage proves the scratch interval's backing arrays
// survive across calls — the property the detector's zero-alloc hot path
// rests on.
func TestAggregateIntoReusesStorage(t *testing.T) {
	xs := []Interval{
		New(0, 0, vclock.Of(1, 2, 3), vclock.Of(4, 5, 6)),
		New(1, 0, vclock.Of(2, 1, 3), vclock.Of(5, 4, 6)),
	}
	var scratch Interval
	AggregateInto(&scratch, Refs(xs), 7, 0, false)
	pLo, pHi := &scratch.Lo[0], &scratch.Hi[0]
	pSpan := &scratch.Span[0]
	AggregateInto(&scratch, Refs(xs), 7, 1, false)
	if &scratch.Lo[0] != pLo || &scratch.Hi[0] != pHi || &scratch.Span[0] != pSpan {
		t.Fatal("AggregateInto reallocated storage on the second call")
	}
}

func TestInsertUnique(t *testing.T) {
	var s []int
	for _, p := range []int{5, 1, 3, 5, 1, 2, 9, 3} {
		s = insertUnique(s, p)
	}
	want := []int{1, 2, 3, 5, 9}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("insertUnique built %v, want %v", s, want)
	}
}

// TestQueueCapacityStaysPowerOfTwo guards the mask-indexing invariant under
// interleaved enqueue/delete churn with wraparound.
func TestQueueCapacityStaysPowerOfTwo(t *testing.T) {
	q := NewQueue()
	next := 0
	pop := 0
	r := rand.New(rand.NewSource(3))
	for step := 0; step < 10000; step++ {
		if r.Intn(3) > 0 || q.Empty() {
			q.Enqueue(Interval{Seq: next})
			next++
		} else {
			if got := q.DeleteHead().Seq; got != pop {
				t.Fatalf("step %d: popped Seq %d, want %d", step, got, pop)
			}
			pop++
		}
		if c := len(q.buf); c != 0 && (c&(c-1)) != 0 {
			t.Fatalf("capacity %d is not a power of two", c)
		}
		if q.mask != len(q.buf)-1 && len(q.buf) != 0 {
			t.Fatalf("mask %d does not match capacity %d", q.mask, len(q.buf))
		}
	}
	for !q.Empty() {
		if got := q.DeleteHead().Seq; got != pop {
			t.Fatalf("drain: popped Seq %d, want %d", got, pop)
		}
		pop++
	}
	if pop != next {
		t.Fatalf("drained %d of %d enqueued", pop, next)
	}
}
