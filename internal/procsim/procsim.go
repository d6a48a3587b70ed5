// Package procsim simulates the application processes whose execution the
// detectors observe. Each Process executes internal, send and receive events,
// maintains its vector clock by the three update rules of the system model
// (§II-A), and tracks its local predicate: every maximal run of events during
// which the predicate holds becomes one interval, bounded by the vector
// timestamps of the run's first and last events (min(x) and max(x), §II-B).
//
// Process is transport-agnostic: PrepareSend returns the timestamp to
// piggyback on an outgoing message, Receive consumes the timestamp of an
// incoming one. Drivers (internal/workload) sequence events either directly
// (scripted, deterministic executions for tests and benchmarks) or over
// internal/simnet.
package procsim

import (
	"fmt"

	"hierdet/internal/interval"
	"hierdet/internal/vclock"
)

// Process is one simulated application process. Not safe for concurrent use;
// a process's events are serialized by definition.
type Process struct {
	id int
	vc vclock.VC

	pred       bool      // current truth of the local predicate variable
	inInterval bool      // an interval is open
	lo         vclock.VC // timestamp of the open interval's first event
	lastTrue   vclock.VC // timestamp of the last event at which pred held
	seq        int       // intervals emitted so far

	emit   func(interval.Interval)
	events int

	value float64
	hook  func(vc vclock.VC, pred bool, value float64)
}

// New returns a process with identifier id in an n-process system. emit is
// called synchronously each time a local-predicate interval completes; nil
// discards intervals (useful when only the clocks matter).
func New(id, n int, emit func(interval.Interval)) *Process {
	if id < 0 || id >= n {
		panic(fmt.Sprintf("procsim: id %d out of range [0,%d)", id, n))
	}
	return &Process{id: id, vc: vclock.New(n), emit: emit}
}

// ID returns the process identifier.
func (p *Process) ID() int { return p.id }

// Clock returns a copy of the current vector clock.
func (p *Process) Clock() vclock.VC { return p.vc.Clone() }

// Events returns the number of events executed.
func (p *Process) Events() int { return p.events }

// Intervals returns the number of completed intervals.
func (p *Process) Intervals() int { return p.seq }

// SetPredicate updates the local predicate variable. The change is observed
// at the next event — predicate truth is a property of events, so an
// interval's bounds are always event timestamps.
func (p *Process) SetPredicate(v bool) { p.pred = v }

// SetValue updates the process's application variable (used by relational
// predicates); like the predicate, it is observed at the next event.
func (p *Process) SetValue(v float64) { p.value = v }

// Value returns the current application variable.
func (p *Process) Value() float64 { return p.value }

// SetEventHook registers f to run after every event with the event's
// timestamp and the local state at that event. internal/lattice's Recorder
// uses it to capture full executions for global-state-lattice detection.
func (p *Process) SetEventHook(f func(vc vclock.VC, pred bool, value float64)) {
	p.hook = f
}

// Predicate returns the current value of the local predicate variable.
func (p *Process) Predicate() bool { return p.pred }

// Internal executes an internal event (update rule 1).
func (p *Process) Internal() {
	p.vc.Tick(p.id)
	p.events++
	p.observe()
}

// PrepareSend executes a send event (update rule 2) and returns the
// timestamp to piggyback on the message.
func (p *Process) PrepareSend() vclock.VC {
	p.vc.Tick(p.id)
	p.events++
	p.observe()
	return p.vc.Clone()
}

// Receive executes a receive event for a message carrying timestamp stamp
// (update rule 3): component-wise max, then tick the local component.
func (p *Process) Receive(stamp vclock.VC) {
	p.vc.MergeMax(stamp)
	p.vc.Tick(p.id)
	p.events++
	p.observe()
}

// Finish closes an interval left open at the end of the execution, emitting
// it with the last true event as its upper bound and no falsifying event
// (Interval.Term stays nil). Idempotent.
func (p *Process) Finish() {
	if !p.inInterval {
		return
	}
	p.inInterval = false
	p.complete(nil)
}

// observe evaluates the predicate at the event just executed and maintains
// the open interval.
func (p *Process) observe() {
	if p.hook != nil {
		p.hook(p.vc.Clone(), p.pred, p.value)
	}
	switch {
	case p.pred && !p.inInterval:
		p.inInterval = true
		p.lo = p.vc.Clone()
		p.lastTrue = p.vc.Clone()
	case p.pred && p.inInterval:
		p.lastTrue = p.vc.Clone()
	case !p.pred && p.inInterval:
		p.inInterval = false
		p.complete(p.vc.Clone()) // the current event falsified the predicate
	}
}

func (p *Process) complete(term vclock.VC) {
	iv := interval.New(p.id, p.seq, p.lo, p.lastTrue)
	iv.SetTerm(term)
	p.seq++
	p.lo, p.lastTrue = nil, nil
	if p.emit != nil {
		p.emit(iv)
	}
}
