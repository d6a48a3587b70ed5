// Package oneshot implements the classical one-time conjunctive predicate
// detectors the paper surveys: Garg & Waldecker's centralized detection of
// Definitely(Φ) ("strong unstable predicates", 1996, reference [7]) and of
// Possibly(Φ) ("weak unstable predicates", 1994, reference [8]).
//
// Both maintain one interval queue per process at a checker process and
// eliminate queue heads that can never participate in a satisfying set. They
// stop at the first detection. As the paper's §I (and [12]) observe, these
// algorithms "can detect predicates only once and will hang after the
// initial detection" — rerunning them is not equivalent to repeated
// detection, because the queues' contents after the first solution are not a
// valid starting state for finding the next one. The repository includes
// them as baselines to demonstrate exactly that limitation (see the
// TestOneShotMissesLaterOccurrences tests and EXPERIMENTS.md).
package oneshot

import (
	"fmt"

	"hierdet/internal/interval"
)

// DefinitelyDetector is the one-shot Definitely(Φ) checker of [7].
type DefinitelyDetector struct {
	queues map[int]*interval.Queue
	order  []int
	done   bool
	sol    []interval.Interval
}

// NewDefinitely returns a detector over the given participant processes.
func NewDefinitely(participants []int) *DefinitelyDetector {
	if len(participants) == 0 {
		panic("oneshot: no participants")
	}
	d := &DefinitelyDetector{queues: make(map[int]*interval.Queue)}
	for _, p := range participants {
		if _, dup := d.queues[p]; dup {
			panic(fmt.Sprintf("oneshot: duplicate participant %d", p))
		}
		d.queues[p] = interval.NewQueue()
		d.order = append(d.order, p)
	}
	return d
}

// Done reports whether the predicate has been detected; after that the
// detector ignores further input (it "hangs", faithfully).
func (d *DefinitelyDetector) Done() bool { return d.done }

// Solution returns the detected solution set, or nil.
func (d *DefinitelyDetector) Solution() []interval.Interval {
	return append([]interval.Interval(nil), d.sol...)
}

// OnInterval feeds the next interval from process p. It returns true exactly
// once — on the call that completes the first solution set.
func (d *DefinitelyDetector) OnInterval(p int, iv interval.Interval) bool {
	if d.done {
		return false
	}
	q, ok := d.queues[p]
	if !ok {
		panic(fmt.Sprintf("oneshot: interval from unknown process %d", p))
	}
	q.Enqueue(iv)
	if q.Len() != 1 {
		return false
	}
	d.eliminateDefinitely([]int{p})
	if sol, ok := d.heads(); ok {
		d.sol = sol
		d.done = true
		return true
	}
	return false
}

// eliminateDefinitely is the same fixed-point head elimination as Algorithm 1
// lines 4–17 (which [12] and this paper inherit from [7]).
func (d *DefinitelyDetector) eliminateDefinitely(updated []int) {
	for len(updated) > 0 {
		var next []int
		add := func(s int) {
			for _, t := range next {
				if t == s {
					return
				}
			}
			next = append(next, s)
		}
		for _, a := range updated {
			qa := d.queues[a]
			if qa.Empty() {
				continue
			}
			x := qa.Head()
			for _, b := range d.order {
				if b == a || d.queues[b].Empty() {
					continue
				}
				y := d.queues[b].Head()
				if !x.Lo.Less(y.Hi) {
					add(b)
				}
				if !y.Lo.Less(x.Hi) {
					add(a)
				}
			}
		}
		for _, c := range next {
			if q := d.queues[c]; !q.Empty() {
				q.DeleteHead()
			}
		}
		updated = next
	}
}

func (d *DefinitelyDetector) heads() ([]interval.Interval, bool) {
	sol := make([]interval.Interval, 0, len(d.order))
	for _, p := range d.order {
		q := d.queues[p]
		if q.Empty() {
			return nil, false
		}
		sol = append(sol, q.Head())
	}
	return sol, true
}

// PossiblyDetector is the one-shot Possibly(Φ) checker of [8]. Possibly(Φ)
// holds for a set X of intervals iff no interval wholly precedes another
// (paper Eq. 1, "∀ x_i, x_j ∈ X: max(x_i) ⊀ min(x_j)"). The precedence test
// here uses each interval's falsifying event (Interval.Term) rather than its
// last true event as the end boundary, because the local state "predicate
// holds" persists between those two events; see wholeBefore. The
// global-state-lattice detector (internal/lattice) cross-validates this
// boundary choice on random executions.
type PossiblyDetector struct {
	queues map[int]*interval.Queue
	order  []int
	done   bool
	sol    []interval.Interval
}

// NewPossibly returns a Possibly(Φ) detector over the given processes.
func NewPossibly(participants []int) *PossiblyDetector {
	if len(participants) == 0 {
		panic("oneshot: no participants")
	}
	d := &PossiblyDetector{queues: make(map[int]*interval.Queue)}
	for _, p := range participants {
		if _, dup := d.queues[p]; dup {
			panic(fmt.Sprintf("oneshot: duplicate participant %d", p))
		}
		d.queues[p] = interval.NewQueue()
		d.order = append(d.order, p)
	}
	return d
}

// Done reports whether Possibly(Φ) has been detected.
func (d *PossiblyDetector) Done() bool { return d.done }

// Solution returns the detected witness set, or nil.
func (d *PossiblyDetector) Solution() []interval.Interval {
	return append([]interval.Interval(nil), d.sol...)
}

// OnInterval feeds the next interval from process p; true on first detection.
func (d *PossiblyDetector) OnInterval(p int, iv interval.Interval) bool {
	if d.done {
		return false
	}
	q, ok := d.queues[p]
	if !ok {
		panic(fmt.Sprintf("oneshot: interval from unknown process %d", p))
	}
	q.Enqueue(iv)
	if q.Len() != 1 {
		return false
	}
	d.eliminatePossibly([]int{p})
	if sol, ok := d.heads2(); ok {
		d.sol = sol
		d.done = true
		return true
	}
	return false
}

// wholeBefore reports that interval x's truth provably ended before y's
// began in every observation: the event that falsified x's predicate
// causally precedes y's first true event. The falsifying event (Term), not
// the last true event (Hi), is the right boundary — the local state
// "predicate holds" persists after max(x) until Term(x), so x and y can
// coexist whenever Term(x) ⊀ min(y) even if max(x) ≺ min(y) (e.g. a message
// sent at x's last true event and received at y's first). Intervals with no
// falsifying event (end of trace) persist forever and precede nothing.
func wholeBefore(x, y interval.Interval) bool {
	term := x.Term()
	if term == nil {
		return false
	}
	return term.Less(y.Lo)
}

// eliminatePossibly deletes head x whenever some head y satisfies
// wholeBefore(x, y): x can never be simultaneous with y or any of y's
// successors — x is useless for Possibly.
func (d *PossiblyDetector) eliminatePossibly(updated []int) {
	for len(updated) > 0 {
		var next []int
		add := func(s int) {
			for _, t := range next {
				if t == s {
					return
				}
			}
			next = append(next, s)
		}
		for _, a := range updated {
			qa := d.queues[a]
			if qa.Empty() {
				continue
			}
			x := qa.Head()
			for _, b := range d.order {
				if b == a || d.queues[b].Empty() {
					continue
				}
				y := d.queues[b].Head()
				if wholeBefore(x, y) {
					add(a)
				}
				if wholeBefore(y, x) {
					add(b)
				}
			}
		}
		for _, c := range next {
			if q := d.queues[c]; !q.Empty() {
				q.DeleteHead()
			}
		}
		updated = next
	}
}

func (d *PossiblyDetector) heads2() ([]interval.Interval, bool) {
	sol := make([]interval.Interval, 0, len(d.order))
	for _, p := range d.order {
		q := d.queues[p]
		if q.Empty() {
			return nil, false
		}
		sol = append(sol, q.Head())
	}
	// All queues non-empty and the elimination fixed point guarantees no
	// head wholly precedes another: Eq. 1 holds.
	return sol, true
}
