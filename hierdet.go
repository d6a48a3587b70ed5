// Package hierdet is a fault-tolerant, hierarchical, repeated detector for
// strong conjunctive predicates — Definitely(Φ) where Φ is a conjunction of
// per-process local predicates — in asynchronous message-passing systems,
// reproducing Shen & Kshemkalyani, "A Fault-Tolerant Strong Conjunctive
// Predicate Detection Algorithm for Large-Scale Networks" (IPDPSW 2013).
//
// # Concepts
//
// Processes carry vector clocks. An interval is a maximal stretch of a
// process's events during which its local predicate holds, identified by the
// vector timestamps of its first and last events. Definitely(Φ) holds for a
// set of intervals (one per process) iff every pair satisfies
// min(x) < max(y) — in every consistent observation of the execution there
// is a global state where all local predicates hold simultaneously.
//
// The detector runs on a pre-constructed spanning tree: every node maintains
// one interval queue for itself and one per child, detects the predicate in
// its own subtree, aggregates each solution set into a single interval with
// the ⊓ operator, and reports it one hop up. Detection is repeated — every
// occurrence is found, at every level — and survives node failures: a dead
// node costs only its own intervals, the tree repairs itself, and detection
// of the partial predicate over the survivors continues.
//
// # Embedding
//
// Instrument application processes with Process (vector clocks plus interval
// extraction), run one Node per process over your own transport (intervals
// from each sender must be delivered in generation order — resequence if
// your channels are not FIFO), and feed every completed local interval and
// every child report into Node.OnInterval. Each returned Detection covers
// the node's subtree; forward Detection.Agg to the node's parent.
//
// # Simulation
//
// Simulate runs the full system — workload, spanning tree, asynchronous
// lossy-ordering network, heartbeats, failures — inside a deterministic
// discrete-event simulator, and is what the repository's experiments and
// examples use.
package hierdet

import (
	"hierdet/internal/analytic"
	"hierdet/internal/centralized"
	"hierdet/internal/core"
	"hierdet/internal/interval"
	"hierdet/internal/oneshot"
	"hierdet/internal/procsim"
	"hierdet/internal/tree"
	"hierdet/internal/vclock"
)

// VC is a vector clock (a vector of n event counters). See VC.Less for the
// happens-before comparison.
type VC = vclock.VC

// NewVC returns a zeroed vector clock for an n-process system.
func NewVC(n int) VC { return vclock.New(n) }

// Interval is a duration during which a local predicate held at one process,
// or the ⊓-aggregation of a detected solution set; both are identified by a
// pair of vector-timestamp cuts.
//
// A base interval's Lo and Hi must be Fidge–Mattern timestamps of events at
// its Origin, where every event — a receive included — ticks the owner's
// component (Process keeps this). The detector decides most comparisons on
// the components of an interval's Span and is exact only under that
// contract; NodeConfig.Strict checks it.
type Interval = interval.Interval

// NewInterval builds a base interval for process origin with sequence number
// seq and bounds lo, hi.
func NewInterval(origin, seq int, lo, hi VC) Interval {
	return interval.New(origin, seq, lo, hi)
}

// Overlap reports the pairwise Definitely condition between two intervals:
// min(x) < max(y) ∧ min(y) < max(x).
func Overlap(x, y Interval) bool { return interval.Overlap(x, y) }

// OverlapAll reports whether a whole set of intervals satisfies
// Definitely(Φ) pairwise.
func OverlapAll(xs []Interval) bool { return interval.OverlapAll(xs) }

// Aggregate applies the ⊓ operator to a solution set (component-wise max of
// lower bounds, component-wise min of upper bounds).
func Aggregate(xs []Interval, origin, seq int) Interval {
	return interval.Aggregate(xs, origin, seq, false)
}

// BaseIntervalsOf expands an aggregate built with solution-set retention
// (SimConfig.Verify / NodeConfig.KeepMembers) back to the raw per-process
// intervals it covers; an opaque aggregate expands to itself.
func BaseIntervalsOf(x Interval) []Interval {
	return interval.BaseIntervals(x)
}

// Process instruments one application process: it maintains the vector clock
// across internal/send/receive events and extracts local-predicate
// intervals. See NewProcess.
type Process = procsim.Process

// NewProcess returns an instrumented process handle. emit is invoked
// synchronously with each completed local-predicate interval; feed it to the
// process's detector Node (or ship it to the node that hosts the detector).
func NewProcess(id, n int, emit func(Interval)) *Process {
	return procsim.New(id, n, emit)
}

// Node is the per-process hierarchical detector (Algorithm 1): interval
// queues, head elimination, solution aggregation and the Eq. 10 pruning rule
// for repeated detection. See NewNode.
type Node = core.Node

// Detection is one satisfaction of the predicate in the subtree of the
// reporting node. Agg is the ⊓-aggregate to forward to the node's parent;
// its Span lists the covered processes.
type Detection = core.Detection

// NodeConfig configures detector nodes.
type NodeConfig struct {
	// N is the total number of processes (vector-clock dimension).
	N int
	// KeepMembers retains solution sets on aggregates so detections can be
	// expanded to base intervals (debugging/verification; costs memory).
	KeepMembers bool
	// Strict makes nodes panic when a source's intervals arrive out of
	// generation order — a transport bug detector — or when clocks break the
	// Interval contract (every comparison decided on a span is recomputed on
	// all components).
	Strict bool
}

// NewNode returns the detector for process id. local declares whether the
// process hosts a local predicate (participates in the conjunction) rather
// than merely relaying. Wire children with Node.AddChild; feed intervals
// with Node.OnInterval; handle failures with Node.RemoveChild.
func NewNode(id int, cfg NodeConfig, local bool) *Node {
	return core.NewNode(id, core.Config{N: cfg.N, KeepMembers: cfg.KeepMembers, Strict: cfg.Strict}, local)
}

// Sink is the centralized repeated-detection baseline [12]: one process
// queues every interval from every process. Included for comparison; it is
// the algorithm the paper improves on.
type Sink = centralized.Sink

// NewSink returns a centralized detector at process sinkID over the given
// participants.
func NewSink(sinkID int, cfg NodeConfig, participants []int) *Sink {
	return centralized.NewSink(sinkID, core.Config{N: cfg.N, KeepMembers: cfg.KeepMembers, Strict: cfg.Strict}, participants)
}

// OneShotDefinitely is the classical one-time Definitely(Φ) detector
// (Garg–Waldecker); it finds the first occurrence and then stops. Included
// to demonstrate why repeated detection needs more than re-running it.
type OneShotDefinitely = oneshot.DefinitelyDetector

// NewOneShotDefinitely returns a one-shot Definitely(Φ) detector.
func NewOneShotDefinitely(participants []int) *OneShotDefinitely {
	return oneshot.NewDefinitely(participants)
}

// OneShotPossibly is the classical one-time Possibly(Φ) detector.
type OneShotPossibly = oneshot.PossiblyDetector

// NewOneShotPossibly returns a one-shot Possibly(Φ) detector.
func NewOneShotPossibly(participants []int) *OneShotPossibly {
	return oneshot.NewPossibly(participants)
}

// Topology is a spanning tree (or forest, after partitions) over the
// processes plus the underlying communication graph used for failure repair.
type Topology = tree.Topology

// NoParent marks a root in Topology parent queries.
const NoParent = tree.None

// BalancedTree builds a complete d-ary spanning tree of height h.
func BalancedTree(d, h int) *Topology { return tree.Balanced(d, h) }

// BalancedTreeN builds a d-ary heap-layout tree over exactly n nodes.
func BalancedTreeN(n, d int) *Topology { return tree.BalancedN(n, d) }

// ChainTree builds a path topology (degree 1).
func ChainTree(n int) *Topology { return tree.Chain(n) }

// StarTree builds a root with n−1 direct children — the centralized shape.
func StarTree(n int) *Topology { return tree.Star(n) }

// RandomTree builds a random tree with bounded degree, deterministic in seed.
func RandomTree(n, maxDegree int, seed int64) *Topology {
	return tree.Random(n, maxDegree, seed)
}

// HierarchicalMessages evaluates the paper's Eq. 11: total messages of the
// hierarchical algorithm for p intervals/process on a (d, h) tree with
// aggregation probability α.
func HierarchicalMessages(p, d, h int, alpha float64) float64 {
	return analytic.HierarchicalMessages(p, d, h, alpha)
}

// CentralizedMessages evaluates the paper's Eq. 12: total messages of the
// centralized baseline on the same tree (each interval pays its distance to
// the sink).
func CentralizedMessages(p, d, h int) float64 {
	return analytic.CentralizedMessages(p, d, h)
}
