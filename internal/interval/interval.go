// Package interval models the intervals at the heart of interval-based
// predicate detection: maximal durations during which a process's local
// predicate holds, bounded by the vector timestamps of their first and last
// events (Garg–Waldecker 1996; Kshemkalyani 1996, 2011).
//
// The package also implements the paper's aggregation function ⊓ (Eq. 5/6):
// a set X of intervals satisfying overlap(X) collapses into a single interval
// whose lower bound is the component-wise maximum of the members' lower
// bounds and whose upper bound is the component-wise minimum of the members'
// upper bounds. By Theorem 1 the aggregate stands in for the whole set when
// detecting Definitely(Φ) in a strictly larger set, which is what lets the
// hierarchical algorithm pass one interval per subtree up the spanning tree.
package interval

import (
	"fmt"

	"hierdet/internal/vclock"
)

// Interval is a duration during which a local predicate held at one process
// (a base interval), or the ⊓-aggregation of a solution set detected in some
// subtree (an aggregated interval). Both kinds are identified by a pair of
// cuts of the execution:
//
//	Lo = min(x), the timestamp of the interval's first event (or the
//	     component-wise max of the members' Lo for an aggregate), and
//	Hi = max(x), the timestamp of its last event (or the component-wise min
//	     of the members' Hi).
//
// For a base interval Lo ≤ Hi component-wise; Theorem 2 shows the same holds
// for aggregates of overlapping sets.
//
// The clock contract: a base interval's Lo and Hi are Fidge–Mattern
// timestamps of events at Origin, in an execution where every event — a
// receive included — ticks its own process's component. The detector's
// comparisons rely on it (SpanLess); Config.Strict in internal/core checks it.
type Interval struct {
	// Lo and Hi are the bounding cuts (min(x) and max(x)).
	Lo, Hi vclock.VC

	// Origin is the id of the process at which the interval occurred, or —
	// for an aggregated interval — the id of the subtree root that detected
	// the solution set and aggregated it.
	Origin int

	// Seq numbers the intervals produced at Origin, starting at 0. For two
	// intervals from the same origin, the one with the larger Seq is the
	// successor in the paper's succ relation: max(x) < min(succ(x)).
	Seq int

	// Agg marks aggregated intervals.
	Agg bool

	// Span lists the process ids whose local predicates the interval covers:
	// {Origin} for a base interval, the union of members' spans for an
	// aggregate. A root-level detection therefore reports exactly which
	// processes participated — the paper's "partial predicate" visibility.
	Span []int

	// Bases counts the base intervals aggregated inside (1 for a base
	// interval). Used by the complexity experiments.
	Bases int

	// ext holds what only non-production paths set — the falsifying event
	// of Possibly-detection and the solution set KeepMembers retains — behind
	// one pointer, nil everywhere else: the two slice headers were 48 of an
	// Interval's 152 bytes, paid by every copy. Read through Term and
	// Members; never modified once set (SetTerm installs a fresh one), so
	// copies of an Interval share it safely.
	ext *extra
}

type extra struct {
	term    vclock.VC
	members []Interval
}

// Term is the timestamp of the falsifying event — the first event at which
// the predicate was false again after the interval — or nil when the
// execution ended with the predicate still true (and on every aggregate).
// The local state "predicate holds" persists from min(x) until just before
// Term, so Possibly(Φ) detection must compare against Term, not Hi: two
// intervals can coexist in a consistent global state even when
// max(x) ≺ min(y), as long as ¬(Term(x) ≺ min(y)). Definitely(Φ) detection
// uses Hi per Eq. 2 and ignores Term.
func (x Interval) Term() vclock.VC {
	if x.ext == nil {
		return nil
	}
	return x.ext.term
}

// SetTerm records the falsifying event. A nil term on an interval that has
// none allocates nothing.
func (x *Interval) SetTerm(term vclock.VC) {
	if term == nil && x.ext == nil {
		return
	}
	x.ext = &extra{term: term, members: x.Members()}
}

// Members is the solution set an aggregate was built from, when the
// aggregation was asked to keep it (ground-truth verification in tests;
// production configurations never ask), else nil.
func (x Interval) Members() []Interval {
	if x.ext == nil {
		return nil
	}
	return x.ext.members
}

// DropExtra clears Term and Members, for callers that refill an Interval in
// place from a source carrying neither (the wire decoder).
func (x *Interval) DropExtra() { x.ext = nil }

// New returns a base interval for process origin with bounds lo and hi.
func New(origin, seq int, lo, hi vclock.VC) Interval {
	return Interval{
		Lo:     lo,
		Hi:     hi,
		Origin: origin,
		Seq:    seq,
		Span:   []int{origin},
		Bases:  1,
	}
}

// WellFormed reports Lo ≤ Hi component-wise, which every base interval and
// every aggregate of an overlapping set satisfies (Theorem 2).
func (x Interval) WellFormed() bool { return x.Lo.LessEq(x.Hi) }

// CompactClone returns a deep copy of x whose Lo and Hi share one backing
// array — one allocation instead of two for the pair of clocks that every
// published aggregate must own. Term and Members are shared (both are
// immutable once set); Span is copied.
func (x Interval) CompactClone() Interval {
	out := x
	n := x.Lo.Len()
	backing := make(vclock.VC, n+x.Hi.Len())
	copy(backing[:n], x.Lo)
	copy(backing[n:], x.Hi)
	out.Lo, out.Hi = backing[:n:n], backing[n:]
	out.Span = append([]int(nil), x.Span...)
	return out
}

// String renders the interval for logs and test failures.
func (x Interval) String() string {
	kind := "ivl"
	if x.Agg {
		kind = "agg"
	}
	return fmt.Sprintf("%s{P%d#%d %v..%v span%v}", kind, x.Origin, x.Seq, x.Lo, x.Hi, x.Span)
}

// Overlap reports the pairwise Definitely condition between x and y:
//
//	min(x) < max(y)  ∧  min(y) < max(x)
//
// For a set this must hold between every ordered pair (paper Eq. 2). The two
// comparisons run as one fused component pass (vclock.CompareLess).
func Overlap(x, y Interval) bool {
	a, b := vclock.CompareLess(x.Lo, y.Hi, y.Lo, x.Hi)
	return a && b
}

// SpanLess decides a < b on the components in span when they settle it, and
// reports whether they did; when they do not, the caller runs the full scan
// (vclock.VC.Less or CompareLess). a is the join of the timestamps of events
// at the processes in span — min(x) with span x.Span for any interval x, or
// max(x) with span x.Span for a base one — and b a meet of event timestamps,
// max(y) for any interval y.
//
// Under the clock contract (Interval) this is exact. Take x's base member at
// process k, starting (or, for max(x), ending) at event e, and any base
// member of y ending at f: V(e)[k] ≤ a[k] ≤ b[k] ≤ V(f)[k], so f has seen e
// and V(e) ≤ V(f). Joining over e and meeting over f gives a ≤ b, strict
// where some span component is. A refutation — some a[k] > b[k] — is exact
// for any clocks; only the true verdict leans on the contract. Every span
// component equal or an empty span is left undecided, and so is a span
// naming a component the clocks do not have: spans arrive off the wire, and a
// peer's bad id must cost a full scan, not an index out of range.
func SpanLess(a, b vclock.VC, span []int) (less, decided bool) {
	if len(span) == 0 || len(a) != len(b) {
		return false, false
	}
	for _, k := range span {
		if uint(k) >= uint(len(a)) {
			return false, false
		}
		if a[k] > b[k] {
			return false, true
		}
		less = less || a[k] < b[k]
	}
	return less, less
}

// OverlapAll reports overlap(X): min(xᵢ) < max(xⱼ) for every ordered pair
// i ≠ j. A singleton set trivially overlaps; the empty set does not.
func OverlapAll(xs []Interval) bool { return OverlapRefs(Refs(xs)) }

// OverlapRefs is OverlapAll over a set of references — the form a
// detection's solution set has.
func OverlapRefs(xs []*Interval) bool {
	if len(xs) == 0 {
		return false
	}
	for i := range xs {
		for j := range xs {
			if i != j && !xs[i].Lo.Less(xs[j].Hi) {
				return false
			}
		}
	}
	return true
}

// Refs returns a reference to each element of xs, in order.
func Refs(xs []Interval) []*Interval {
	out := make([]*Interval, len(xs))
	for i := range xs {
		out[i] = &xs[i]
	}
	return out
}

// values copies the referenced intervals out, for KeepMembers.
func values(xs []*Interval) []Interval {
	out := make([]Interval, len(xs))
	for i, x := range xs {
		out[i] = *x
	}
	return out
}

// Aggregate applies ⊓ to a non-empty solution set (paper Eq. 5/6):
//
//	min(⊓X)[k] = max over x∈X of min(x)[k]
//	max(⊓X)[k] = min over x∈X of max(x)[k]
//
// origin and seq identify the producing subtree root and its position in that
// root's succession of aggregates. The resulting span is the union of member
// spans and Bases the sum of member base counts. If keepMembers is true the
// solution set is retained on the aggregate for later ground-truth expansion.
//
// Aggregate panics on an empty set; callers only aggregate detected solution
// sets, which are never empty.
func Aggregate(xs []Interval, origin, seq int, keepMembers bool) Interval {
	var agg Interval
	AggregateInto(&agg, Refs(xs), origin, seq, keepMembers)
	return agg
}

// AggregateInto computes ⊓xs into *dst, reusing dst's Lo, Hi and Span
// backing arrays when they have capacity. It is the allocation-free form of
// Aggregate for callers that keep a scratch interval across detections (the
// detector runs one aggregation per detection, and at production sizes the
// two clock clones plus the span set dominated its cost). dst must not alias
// any member of xs. Term and Members are reset; Members is populated (fresh
// storage) only when keepMembers is set.
func AggregateInto(dst *Interval, xs []*Interval, origin, seq int, keepMembers bool) {
	if len(xs) == 0 {
		panic("interval: Aggregate of empty set")
	}
	n := xs[0].Lo.Len()
	dst.Lo = sizedVC(dst.Lo, n)
	dst.Hi = sizedVC(dst.Hi, n)
	dst.Lo.CopyFrom(xs[0].Lo)
	dst.Hi.CopyFrom(xs[0].Hi)
	dst.Span = dst.Span[:0]
	bases := 0
	for i, x := range xs {
		if i > 0 {
			dst.Lo.MergeMax(x.Lo)
			dst.Hi.MergeMin(x.Hi)
		}
		bases += x.Bases
		for _, p := range x.Span {
			dst.Span = insertUnique(dst.Span, p)
		}
	}
	dst.Origin = origin
	dst.Seq = seq
	dst.Agg = true
	dst.Bases = bases
	dst.ext = nil
	if keepMembers {
		dst.ext = &extra{members: values(xs)}
	}
}

// AggregateFlat computes ⊓xs as a freshly published aggregate whose bounds
// live in a flat vclock.Store: AggregateRefs over references to xs's
// elements.
func AggregateFlat(st *vclock.Store, xs []Interval, origin, seq int, keepMembers bool) Interval {
	var buf [16]*Interval
	refs := buf[:0]
	for i := range xs {
		refs = append(refs, &xs[i])
	}
	return AggregateRefs(st, refs, origin, seq, keepMembers)
}

// AggregateRefs computes ⊓xs as a freshly published aggregate whose bounds
// live in a flat vclock.Store — the parallel engine's replacement for the
// AggregateInto-then-CompactClone pair. Two layout decisions make it cheap
// while producing component-for-component the same values as Aggregate:
//
//   - A singleton solution set aggregates to itself (⊓{x} = x), so instead of
//     cloning 2n clock components the result aliases x's bounds and span
//     directly. Bounds and spans are immutable once published, which makes the
//     sharing safe; leaf nodes — half the tree — detect only singletons, so
//     their entire aggregation cost disappears.
//
//   - A multi-member set merges directly into a Lo/Hi pair carved from the
//     store's slab via the fused bounds kernels (vclock.BoundsInit/BoundsFold,
//     vectorized on amd64): the first two members seed the pair in one pass
//     with no intermediate copy, each further member folds in with one more
//     pass, and the aggregate is born compact — no scratch interval, no
//     second copy, one heap allocation per slab instead of one per
//     detection.
//
// The caller owns st and must be the only goroutine allocating from it.
func AggregateRefs(st *vclock.Store, xs []*Interval, origin, seq int, keepMembers bool) Interval {
	if len(xs) == 0 {
		panic("interval: Aggregate of empty set")
	}
	out := Interval{Origin: origin, Seq: seq, Agg: true}
	if keepMembers {
		out.ext = &extra{members: values(xs)}
	}
	if len(xs) == 1 {
		x := xs[0]
		out.Lo, out.Hi = x.Lo, x.Hi
		out.Span = x.Span
		out.Bases = x.Bases
		return out
	}
	lo, hi := st.AllocPair()
	vclock.BoundsInit(lo, hi, xs[0].Lo, xs[0].Hi, xs[1].Lo, xs[1].Hi)
	for _, x := range xs[2:] {
		vclock.BoundsFold(lo, hi, x.Lo, x.Hi)
	}
	out.Lo, out.Hi = lo, hi
	spanCap, bases := 0, 0
	for _, x := range xs {
		spanCap += len(x.Span)
		bases += x.Bases
	}
	out.Span = mergeSpans(xs, spanCap, st.LastSpan)
	st.LastSpan = out.Span
	out.Bases = bases
	return out
}

// sizedVC resizes v to n components, reusing its backing array if possible.
func sizedVC(v vclock.VC, n int) vclock.VC {
	if cap(v) >= n {
		return v[:n]
	}
	return make(vclock.VC, n)
}

// mergeSpans unions the members' spans. Each Span is sorted and duplicate-
// free, so a k-way merge builds the union in one linear pass — at a tree
// root the union covers every process, and inserting BFS-interleaved subtree
// ids one at a time (insertUnique) degenerated to a quadratic memmove there.
//
// prev is the span this node's previous aggregate published (nil at first).
// In a stable tree every round's union is that same set, and at a root it is
// as large as the two clocks: the merge runs against prev and allocates only
// from the first element that differs, so a union equal to prev is returned
// as prev itself — spans are immutable once published, which makes the
// sharing safe — and anything else is a fresh slice.
func mergeSpans(xs []*Interval, spanCap int, prev []int) []int {
	var idxArr [8]int
	var idx []int
	if len(xs) <= len(idxArr) {
		idx = idxArr[:len(xs)]
	} else {
		idx = make([]int, len(xs))
	}
	var span []int // nil while the union is still a prefix of prev
	n, last := 0, 0
	for {
		best, bestV := -1, 0
		for i := range xs {
			if idx[i] < len(xs[i].Span) {
				if v := xs[i].Span[idx[i]]; best == -1 || v < bestV {
					best, bestV = i, v
				}
			}
		}
		if best == -1 {
			break
		}
		idx[best]++
		if n > 0 && last == bestV {
			continue
		}
		if span == nil && (n >= len(prev) || prev[n] != bestV) {
			span = append(make([]int, 0, spanCap), prev[:n]...)
		}
		if span != nil {
			span = append(span, bestV)
		}
		n, last = n+1, bestV
	}
	if span != nil {
		return span
	}
	if n == len(prev) {
		return prev
	}
	return append(make([]int, 0, n), prev[:n]...) // a proper prefix of prev
}

// insertUnique adds p to a sorted id list, keeping it sorted and duplicate
// free. Spans are bounded by subtree size and usually tiny, so the linear
// shift beats a set structure.
func insertUnique(s []int, p int) []int {
	i := len(s)
	for i > 0 && s[i-1] > p {
		i--
	}
	if i > 0 && s[i-1] == p {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = p
	return s
}

// BaseIntervals recursively expands an interval into the base intervals it
// aggregates. It requires the interval chain to have been built with
// keepMembers — otherwise an aggregate is returned as-is. Tests use this to
// verify a reported detection against raw execution data (paper Eq. 2).
func BaseIntervals(x Interval) []Interval {
	if !x.Agg || x.Members() == nil {
		return []Interval{x}
	}
	var out []Interval
	for _, m := range x.Members() {
		out = append(out, BaseIntervals(m)...)
	}
	return out
}
