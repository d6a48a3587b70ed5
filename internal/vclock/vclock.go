// Package vclock implements vector clocks (Mattern 1988, Fidge 1991) for an
// asynchronous message-passing system of n processes, together with the
// component-wise lattice operations the hierarchical predicate-detection
// algorithm builds on.
//
// A vector clock VC is a vector of n non-negative integers. Entry VC[i] counts
// the events executed by process i that causally precede (or equal) the point
// the clock describes. The causal-precedence ("happens before") relation
// between two events maps onto the strict partial order Less between their
// timestamps:
//
//	e ≺ f  ⇔  VC(e) < VC(f)
//
// where V < U means V[k] ≤ U[k] for all k, with strict inequality somewhere.
//
// Besides event timestamps, the detection algorithm manipulates *cuts* of an
// execution: the bounds of an aggregated interval (paper Eq. 5/6) are
// component-wise maxima/minima of event timestamps and do not correspond to
// any single event. Cuts use the same representation and the same comparison
// operators, so VC serves both roles.
package vclock

import (
	"fmt"
	"strconv"
)

// VC is a vector clock over a fixed number of processes. The zero-length VC is
// valid and compares as concurrent with everything non-empty of its own size
// only; operations on VCs of differing lengths panic, as mixing clock domains
// is always a programming error.
//
// Components are uint32: entry k counts events executed by process k, and
// 2³²−1 events per process outlasts any detection run by orders of magnitude
// (a process ticking 10⁶ events/second overflows after ~71 minutes only at
// 10⁹ events/second — real predicate-bearing event rates are far lower, and
// detector deployments are bounded-duration). Width is the dominant cost of
// the algorithm at scale — every hot-path structure and comparison streams
// whole clocks of n components — so halving the component narrows the
// memory footprint and bandwidth of the entire detection pipeline. The v1
// wire format keeps its fixed 8-byte component field for compatibility;
// codecs reject inbound components that no longer fit.
type VC []uint32

// New returns a zeroed vector clock for an n-process system.
func New(n int) VC {
	if n <= 0 {
		panic(fmt.Sprintf("vclock: invalid system size %d", n))
	}
	return make(VC, n)
}

// Of builds a VC from literal components; convenient in tests and examples.
func Of(components ...uint32) VC {
	v := make(VC, len(components))
	copy(v, components)
	return v
}

// Len returns the number of processes the clock covers.
func (v VC) Len() int { return len(v) }

// Clone returns an independent copy of v.
func (v VC) Clone() VC {
	c := make(VC, len(v))
	copy(c, v)
	return c
}

// CopyFrom overwrites v with u. The lengths must match.
func (v VC) CopyFrom(u VC) {
	v.check(u)
	copy(v, u)
}

// Tick increments the local component i, announcing one new event at process
// i. It implements vector-clock update rules 1 and 2 (internal/send events).
func (v VC) Tick(i int) {
	v[i]++
}

// Ticked returns a copy of v with component i incremented, leaving v intact.
func (v VC) Ticked(i int) VC {
	c := v.Clone()
	c.Tick(i)
	return c
}

// MergeMax sets v to the component-wise maximum of v and u — the receive-side
// half of vector-clock update rule 3. The caller is responsible for the
// subsequent Tick of the local component.
func (v VC) MergeMax(u VC) {
	v.check(u)
	for k := range v {
		if u[k] > v[k] {
			v[k] = u[k]
		}
	}
}

// MergeMin sets v to the component-wise minimum of v and u. This is the
// operation the aggregation function ⊓ applies to interval upper bounds
// (paper Eq. 6).
func (v VC) MergeMin(u VC) {
	v.check(u)
	for k := range v {
		if u[k] < v[k] {
			v[k] = u[k]
		}
	}
}

// Max returns a fresh VC holding the component-wise maximum of the operands.
// With no operands it returns nil.
func Max(vs ...VC) VC {
	if len(vs) == 0 {
		return nil
	}
	out := vs[0].Clone()
	for _, u := range vs[1:] {
		out.MergeMax(u)
	}
	return out
}

// Min returns a fresh VC holding the component-wise minimum of the operands.
// With no operands it returns nil.
func Min(vs ...VC) VC {
	if len(vs) == 0 {
		return nil
	}
	out := vs[0].Clone()
	for _, u := range vs[1:] {
		out.MergeMin(u)
	}
	return out
}

// Ordering is the result of comparing two vector clocks.
type Ordering int

const (
	// Before means the receiver causally precedes the argument (v < u).
	Before Ordering = iota
	// Equal means the clocks are identical.
	Equal
	// After means the argument causally precedes the receiver (u < v).
	After
	// Concurrent means neither clock precedes the other.
	Concurrent
)

// String implements fmt.Stringer for Ordering.
func (o Ordering) String() string {
	switch o {
	case Before:
		return "before"
	case Equal:
		return "equal"
	case After:
		return "after"
	case Concurrent:
		return "concurrent"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// Compare classifies the causal relation between v and u in a single pass.
func (v VC) Compare(u VC) Ordering {
	v.check(u)
	less, greater := false, false
	for k := range v {
		switch {
		case v[k] < u[k]:
			less = true
		case v[k] > u[k]:
			greater = true
		}
		if less && greater {
			return Concurrent
		}
	}
	switch {
	case less:
		return Before
	case greater:
		return After
	default:
		return Equal
	}
}

// Less reports v < u: every component of v is ≤ the corresponding component
// of u and at least one is strictly smaller. This is the timestamp image of
// Lamport's happens-before relation, and the comparison written "min(x) <
// max(y)" throughout the paper.
//
// It returns at the first component that refutes it. On amd64 with AVX2, from
// lessVecMin components, a kernel (compare_amd64.s) scans eight components a
// step and stops at the first step holding a refutation; elsewhere, and below
// that width, lessScalar runs. Both compute the identical pure function.
func (v VC) Less(u VC) bool {
	v.check(u)
	if len(v) >= lessVecMin {
		return lessVec(v, u)
	}
	return lessScalar(v, u)
}

// lessScalar is Less's portable loop: the path off amd64 and below the
// vector width, and the differential-test oracle for the kernel.
func lessScalar(v, u VC) bool {
	strict := false
	for k := range v {
		if v[k] > u[k] {
			return false
		}
		if v[k] < u[k] {
			strict = true
		}
	}
	return strict
}

// CompareLess evaluates the two Less comparisons of the pairwise Definitely
// condition — aLob = (aLo < bHi) and bLoa = (bLo < aHi) — in one fused pass
// over the component index, for the elimination rounds that need both
// directions of a head-to-head check. Their common verdict at a detecting
// node is "both true" (Eq. 2 overlap), which only a scan of every component
// can establish, so on amd64 with AVX2 the pass runs a kernel
// (compare_amd64.s) that streams all components eight per step with no early
// exit. A round that needs one direction only calls Less, which keeps its
// early exit. Elsewhere, and below the vector break-even width, CompareLess
// runs the fused scalar loop: each comparison settles to false the moment a
// component exceeds its counterpart, and the loop stops once both are
// settled. Both paths compute the identical pure function of the operands.
func CompareLess(aLo, bHi, bLo, aHi VC) (aLob, bLoa bool) {
	aLo.check(bHi)
	bLo.check(aHi)
	aLo.check(bLo)
	return compareLessImpl(aLo, bHi, bLo, aHi)
}

// compareLessScalar is the portable fused comparison loop: the non-amd64
// implementation, the short-clock fast path, and the differential-test oracle
// for the vector kernel.
func compareLessScalar(aLo, bHi, bLo, aHi VC) (aLob, bLoa bool) {
	// Main loop: both comparisons still alive. The moment one resolves to
	// false, fall back to a plain single-comparison tail for the other.
	var strictA, strictB bool
	for k := range aLo {
		a, b, c, d := aLo[k], bHi[k], bLo[k], aHi[k]
		if a > b {
			return false, lessFrom(bLo, aHi, k, strictB)
		}
		if c > d {
			return lessFrom(aLo, bHi, k, strictA), false
		}
		strictA = strictA || a != b
		strictB = strictB || c != d
	}
	return strictA, strictB
}

// lessFrom finishes one Less comparison from component k, with the
// strictness evidence accumulated so far.
func lessFrom(v, u VC, k int, strict bool) bool {
	for ; k < len(v); k++ {
		if v[k] > u[k] {
			return false
		}
		if v[k] < u[k] {
			strict = true
		}
	}
	return strict
}

// LessEq reports v ≤ u component-wise (v < u or v == u).
func (v VC) LessEq(u VC) bool {
	v.check(u)
	for k := range v {
		if v[k] > u[k] {
			return false
		}
	}
	return true
}

// Equal reports component-wise equality.
func (v VC) Equal(u VC) bool {
	v.check(u)
	for k := range v {
		if v[k] != u[k] {
			return false
		}
	}
	return true
}

// Concurrent reports that neither clock happens-before the other and they are
// not equal: the events (or cuts) are causally unrelated.
func (v VC) Concurrent(u VC) bool {
	return v.Compare(u) == Concurrent
}

// String renders the clock as "[c0 c1 ... cn-1]". It formats components with
// strconv into a stack-seeded buffer rather than per-component fmt calls:
// Strict-mode panic messages and debug logs render clocks at full system
// size, where the fmt path's per-component interface boxing dominates.
func (v VC) String() string {
	var stack [64]byte
	buf := append(stack[:0], '[')
	for k, c := range v {
		if k > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendUint(buf, uint64(c), 10)
	}
	buf = append(buf, ']')
	return string(buf)
}

func (v VC) check(u VC) {
	if len(v) != len(u) {
		panic(fmt.Sprintf("vclock: size mismatch %d vs %d", len(v), len(u)))
	}
}
