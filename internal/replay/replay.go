// Package replay turns live detector executions into artifacts: a Recorder
// drives a cluster (or a multi-participant TCP deployment) through a
// declared schedule of observation phases and crash-stops, capturing the
// workload inputs, the causally-ordered obsv event stream and the canonical
// detection outcome into a compact versioned binary Trace; a Replayer feeds
// a Trace back through either delivery plane (sharded / parallel) at
// adjustable speed and checks the outcome byte-for-byte against the
// recording.
//
// # Determinism model
//
// A trace does not capture message interleavings — it captures the inputs
// (topology, workload spec, schedule) and relies on the detector's
// confluence: given the same per-process interval streams, the final
// detection multiset is independent of delivery order, delivery plane and
// deployment shape (the repo's isolation and parity suites pin this). The
// schedule quantizes failures to quiescent barriers: every step ends with a
// settle (ledger drained, cascades complete), each Kill waits for the
// repairs it caused to conclude before the next phase feeds. Under that
// protocol the outcome is reproducible bit-for-bit as long as the repair
// itself cannot race: kills of leaf processes (no orphans — the parent's
// queue drop is the only event) and kills in tree-links-only topologies
// (every orphan deterministically exhausts its candidates and becomes a
// partition root) qualify; kills that orphan subtrees in a complete graph
// do not, because which candidate adopts — and whether the parent's queue
// drop lands before or after the adoption — is a heartbeat-timing race that
// legitimately changes the recorded detections. Trace.Deterministic records
// which class a schedule fell in; replay always re-runs and checks
// soundness invariants, but byte-parity is asserted only for the
// deterministic class. See DESIGN.md §14.
//
// The wall-clock stamps on schedule steps and events are observational:
// they drive the Replayer's pacing (Speed) and latency analysis, never the
// outcome.
package replay

import (
	"fmt"
	"time"
)

// WorkloadSpec is the recorded generator input: together with the topology
// it regenerates the exact per-process interval streams (workload.Generate
// is deterministic in these fields).
type WorkloadSpec struct {
	// Rounds is the number of workload rounds (the paper's p).
	Rounds int
	// Seed fixes the round-kind sequence.
	Seed int64
	// PGlobal, PGroup and PSubset are the round-mix probabilities; the
	// remainder is isolated rounds. All in [0,1] with sum ≤ 1.
	PGlobal, PGroup, PSubset float64
}

// StepKind discriminates schedule steps.
type StepKind uint8

const (
	// StepObserve feeds rounds [Lo, Hi) of every alive process's stream,
	// then settles to a quiescent barrier.
	StepObserve StepKind = iota + 1
	// StepKill crash-stops process Node at a quiescent barrier, waits for
	// every repair the crash caused to conclude, then settles again.
	StepKill
)

// Step is one schedule entry. At is the step's start offset in nanoseconds
// since the session began — recorded for pacing, irrelevant to the outcome.
type Step struct {
	Kind   StepKind
	Lo, Hi int // StepObserve: round range [Lo, Hi)
	Node   int // StepKill: the victim
	At     int64
}

// EventRec is one recorded obsv event: the scalar fields of obsv.Event (the
// aggregate payloads live in the outcome, not the stream) plus the offset
// nanoseconds since the session began. Events of one node appear in that
// node's causal order; events of different nodes interleave in arrival
// order at the recorder.
type EventRec struct {
	Kind   uint8
	Node   int
	Peer   int
	Seq    int
	Count  int
	AtRoot bool
	At     int64
}

// Trace is one recorded execution, the unit the codec serializes.
type Trace struct {
	// Parents is the initial spanning tree: Parents[i] is node i's parent,
	// tree.None for the root. TreeLinksOnly records whether the
	// communication graph was restricted to tree edges (otherwise it was
	// complete).
	Parents       []int
	TreeLinksOnly bool
	// Deterministic reports whether the schedule stayed inside the
	// byte-reproducible class (see the package comment); replay asserts
	// outcome parity only when it is set.
	Deterministic bool
	// Plane names the delivery plane the recording ran on.
	Plane string
	// Workload regenerates the interval streams.
	Workload WorkloadSpec
	// Delivery/failure knobs the recording ran with, needed to re-run the
	// schedule faithfully (MaxDelay shapes message races, the heartbeat
	// knobs gate the repair protocol; none of them shape the outcome).
	MaxDelay     time.Duration
	HbEvery      time.Duration
	SeekTimeout  time.Duration
	DeliverySeed int64
	// Schedule is the recorded step sequence.
	Schedule []Step
	// Events is the recorded lifecycle stream.
	Events []EventRec
	// Outcome is the canonical encoding of the final merged detection list
	// (see AppendOutcome); Detections is its entry count.
	Outcome    []byte
	Detections int
}

// Planes lists the delivery planes a trace can be recorded on or replayed
// through, in the order the scale benchmarks use.
func Planes() []string { return []string{PlaneSharded, PlaneParallel} }

// ConfigError is the typed misuse error of the replay API: Field names the
// offending RecorderConfig or ReplayerConfig field, Reason says what about
// it.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("replay: invalid %s: %s", e.Field, e.Reason)
}
