// Package core implements the paper's primary contribution: the hierarchical,
// decentralized, repeated detector for Definitely(Φ) (Algorithm 1 of Shen &
// Kshemkalyani, IPDPSW 2013).
//
// Every process in a pre-constructed spanning tree runs one Node. A Node
// maintains one interval queue per source: Q_0 for intervals produced by its
// own local predicate, and one queue per child in the tree, carrying the
// aggregated intervals those children produce. On every new queue head the
// Node runs the elimination loop (Algorithm 1, lines 1–17): heads that can
// provably never participate in a solution are deleted. When all queues are
// non-empty and their heads mutually overlap, the heads form a solution set —
// Definitely(Φ) holds for the subtree rooted at this node (lines 18–22). The
// set is aggregated with ⊓ (Eq. 5/6) for the parent, and the pruning rule of
// Eq. 10 (lines 23–33) removes at least one head so that *future* occurrences
// of the predicate keep being detected (Theorems 3 and 4).
//
// A Node is a pure, single-threaded state machine: it consumes intervals and
// returns the detections they trigger. All I/O — message transport,
// resequencing of the non-FIFO network, heartbeats, tree reconfiguration —
// lives in internal/monitor, which keeps this package deterministic and
// directly testable.
package core

import (
	"fmt"
	"slices"
	"sort"

	"hierdet/internal/interval"
	"hierdet/internal/vclock"
)

// Detection records one satisfaction of the predicate in the subtree rooted
// at the detecting node.
type Detection struct {
	// Node is the id of the detecting process (the subtree root).
	Node int

	// Set is the solution set: one interval per queue (the node's own plus
	// one per child), every pair satisfying min(x) < max(y). Each member is
	// a reference to the interval's one home — a child's aggregate in the
	// child's detection record, a local interval where its node copied it
	// on arrival — never modified once published.
	Set []*interval.Interval

	// Agg is ⊓(Set), the single interval that represents this solution set
	// at the next level of the hierarchy. At the tree root it is not sent
	// anywhere but still identifies the global solution's span.
	Agg interval.Interval
}

// Stats counts the work a node has performed, for the complexity experiments
// (paper §IV and Table I).
type Stats struct {
	// IntervalsIn counts intervals accepted into queues (local + children).
	IntervalsIn int
	// Dropped counts intervals discarded because their source is not (or is
	// no longer) a queue at this node — e.g. in-flight messages from a child
	// that failed or was adopted away.
	Dropped int
	// VecComparisons counts vector-timestamp comparisons executed by the
	// elimination loop and the pruning rule. The paper prices each at O(n)
	// component operations, its O(d²pn²); the parallel engine decides most on
	// a span instead. The count is of *logical* comparisons — the pairs
	// Algorithm 1 enumerates — and is identical across engines.
	VecComparisons int
	// FilteredComparisons and MemoHits counted what the digest guard and the
	// verdict memo answered without a clock scan. Both layers are gone and
	// both fields are always 0; they stay until the next benchmark-only PR
	// because bench/ reads them.
	FilteredComparisons int
	MemoHits            int
	// Eliminated counts heads deleted by the elimination loop (lines 12–16).
	Eliminated int
	// Pruned counts heads deleted by the repeated-detection rule (Eq. 10).
	Pruned int
	// EpochDiscards counts intervals discarded by ResetSource when a
	// child's stream restarted after a tree reconfiguration.
	EpochDiscards int
	// Detections counts solution sets found at this node.
	Detections int
}

// Config carries the knobs shared by every node of one detector instance.
type Config struct {
	// N is the number of processes in the system (the vector-clock size).
	N int

	// KeepMembers retains each aggregate's solution set in memory so tests
	// can expand detections back to base intervals. Off in production.
	KeepMembers bool

	// Strict checks what the detector assumes: every interval accepted from
	// a source must start causally after the previously accepted interval
	// from that source ended (max(x) < min(succ(x)), Theorem 2), and every
	// verdict decided on a span must match the full scan (the clock contract
	// of interval.Interval). Violations panic; they indicate a
	// transport-layer ordering bug or clocks that break the contract, never
	// a data condition.
	Strict bool

	// ExactPrune additionally applies the exact removal condition Eq. 9
	// (min(succ(x_j)) ≮ max(x_i)) whenever a head's successor has already
	// arrived, pruning a superset of what the paper's approximation Eq. 10
	// permits. The paper adopts Eq. 10 because successors are generally not
	// yet known; this option quantifies what the approximation leaves on
	// the queues (see BenchmarkAblationPruneRule). Safety is unchanged —
	// Eq. 9 is the exact characterization — and liveness follows a fortiori.
	ExactPrune bool

	// Parallel switches the node to the engine the live runtime runs
	// (engine.go): the same Algorithm 1 loop as rounds over queue heads read
	// in place, decided on spans (interval.SpanLess), bounds and sets carved
	// from a Region (see Use), a one-source node passing intervals straight
	// through. Detections and Stats are those of the sequential oracle
	// (Parallel off; property-tested) for clocks that keep the
	// interval.Interval contract.
	Parallel bool
}

// queue is one source's FIFO: references to intervals, each stored once.
type queue = interval.Ring[*interval.Interval]

// source is one queue and the process id it is keyed by: the node's own id
// for Q_0 when it hosts a local predicate, a child's id for that child's
// queue.
type source struct {
	id int
	q  queue
}

// Node is the per-process detector state machine. It holds what the node
// must remember between calls — its queues, counters and aggregate store;
// what a call needs only while it runs (a round's pairs and verdicts, the
// result buffer) lives in the Region the node carves from, shared by every
// node handed the same region.
type Node struct {
	id  int
	cfg Config

	// srcs holds the queues in deterministic (insertion) order, by value;
	// ingestion and both engines address a source by its position.
	srcs []source

	stats Stats

	// resident / residentHigh are the node-level interval residency and its
	// true peak (see QueueSizes), maintained at every enqueue and deletion.
	resident, residentHigh int

	// store carves the parallel engine's aggregate bounds from reg, the
	// region that also keeps the value entries' copies, solution sets and a
	// call's scratch (see Use).
	store vclock.Store
	reg   *Region

	// off is what a node of the live runtime never builds: nil unless
	// Parallel is off or Strict is on.
	off *offPath
}

// offPath holds the sequential engine's own state (Parallel off) — the
// aggregate each solution's ⊓ is built in, so only the published Detection
// pays an allocation, and its round scratch — and, under Strict, each
// position's last accepted interval for the succession check.
type offPath struct {
	agg                   interval.Interval
	updated, elimA, elimB []int
	lastHi                []*interval.Interval
}

// NewNode returns a detector for process id in an n-process system. If local
// is true the node hosts a local predicate and owns a Q_0; nodes outside the
// conjunction (pure relays) pass false. children, if any, are added as
// AddChild would, in order, into queues allocated once for all of them.
func NewNode(id int, cfg Config, local bool, children ...int) *Node {
	if cfg.N <= 0 {
		panic(fmt.Sprintf("core: invalid system size %d", cfg.N))
	}
	nd := &Node{id: id, cfg: cfg, store: *vclock.NewStore(cfg.N)}
	if !cfg.Parallel || cfg.Strict {
		nd.off = new(offPath)
	}
	nd.srcs = make([]source, 0, len(children)+1)
	if local {
		nd.addSource(id)
	}
	for _, child := range children {
		nd.AddChild(child)
	}
	return nd
}

// ID returns the node's process id.
func (nd *Node) ID() int { return nd.id }

// Stats returns a copy of the node's counters.
func (nd *Node) Stats() Stats { return nd.stats }

// QueueSizes returns the node's current interval residency across all queues
// and its node-level high-water mark — the most intervals ever *concurrently*
// resident, which is less than the per-queue peaks (QueueHighWaters) summed
// whenever queues peak at different times.
func (nd *Node) QueueSizes() (current, highWater int) {
	return nd.resident, nd.residentHigh
}

// QueueHighWaters returns each source's own peak residency. The values can
// legitimately sum to more than the node-level high-water mark reported by
// QueueSizes: a queue's peak is local to its own timeline.
func (nd *Node) QueueHighWaters() map[int]int {
	out := make(map[int]int, len(nd.srcs))
	for i := range nd.srcs {
		out[nd.srcs[i].id] = nd.srcs[i].q.HighWater
	}
	return out
}

// noteEnqueue and noteRemovals maintain the node-level residency accounting
// next to every queue mutation.
func (nd *Node) noteEnqueue() {
	nd.resident++
	if nd.resident > nd.residentHigh {
		nd.residentHigh = nd.resident
	}
}

func (nd *Node) noteRemovals(k int) {
	nd.resident -= k
}

// Sources returns the queue keys in deterministic order (the node's own id
// first if it hosts a local predicate, then children in insertion order).
func (nd *Node) Sources() []int {
	out := make([]int, len(nd.srcs))
	for i := range nd.srcs {
		out[i] = nd.srcs[i].id
	}
	return out
}

// HasSource reports whether the node currently maintains a queue for src.
func (nd *Node) HasSource(src int) bool { return nd.at(src) >= 0 }

// addSource panics on an id outside [0, N): spans index clocks by it.
func (nd *Node) addSource(src int) {
	if src < 0 || src >= nd.cfg.N {
		panic(fmt.Sprintf("core: node %d: source process id %d outside [0, %d)", nd.id, src, nd.cfg.N))
	}
	if nd.at(src) >= 0 {
		panic(fmt.Sprintf("core: node %d already has source %d", nd.id, src))
	}
	nd.srcs = append(nd.srcs, source{id: src})
	if nd.cfg.Strict {
		nd.off.lastHi = append(nd.off.lastHi, nil)
	}
}

// AddChild creates a queue for a (possibly newly adopted) child subtree. The
// paper's §III-F: "nodes having new child processes will create a new local
// queue to receive aggregated intervals reported from each new child". Like
// NewNode for a local node's own id, it panics on an id outside [0, N).
func (nd *Node) AddChild(child int) {
	if child == nd.id {
		panic(fmt.Sprintf("core: node %d cannot be its own child", nd.id))
	}
	nd.addSource(child)
}

// RemoveChild drops the queue of a failed or re-parented child, discarding
// its pending intervals. Removing a queue can unblock detection — the dead
// child may have been the only empty queue — so the node re-runs detection
// over the remaining sources and returns any solutions found. This is
// exactly how the algorithm keeps detecting the partial predicate over the
// surviving processes (paper §III-F). The result's lifetime is OnInterval's:
// until the next call into any node of the same region.
func (nd *Node) RemoveChild(child int) []Detection {
	i := nd.at(child)
	if i < 0 {
		return nil
	}
	nd.noteRemovals(nd.srcs[i].q.Len())
	nd.srcs = slices.Delete(nd.srcs, i, i+1)
	if nd.cfg.Strict {
		nd.off.lastHi = slices.Delete(nd.off.lastHi, i, i+1)
	}
	if len(nd.srcs) == 0 {
		return nil
	}
	// Heads may never have been cross-compared while the removed queue
	// blocked solutions; recheck everything.
	return nd.detect(-1)
}

// ResetSource discards everything queued from src and forgets its
// succession baseline, keeping the queue itself. It implements the receiving
// side of a reconfiguration epoch: when a child's own subtree membership
// changes (tree repair), its subsequent aggregates no longer causally follow
// its earlier ones (Theorem 2 holds only for a fixed source set), so the
// parent must not mix the two streams in one FIFO order. Discarding the
// stale entries is safe — it can only postpone detections, never falsify
// one — and mirrors the other repair losses the paper accepts.
func (nd *Node) ResetSource(src int) {
	i := nd.at(src)
	if i < 0 {
		return
	}
	for q := &nd.srcs[i].q; !q.Empty(); {
		q.DeleteHead()
		nd.noteRemovals(1)
		nd.stats.EpochDiscards++
	}
	if nd.cfg.Strict {
		nd.off.lastHi[i] = nil
	}
}

// OnInterval delivers the next interval from src — the node's own id for a
// local-predicate interval, a child id for that child's aggregate — and
// returns the detections it triggers, in order. Intervals from unknown
// sources (stale in-flight messages after a failure) are counted and dropped.
// The node keeps a copy of iv, carved from its region (see OnRefs for the
// entry that copies nothing).
//
// The returned slice is valid until the next OnInterval, OnIntervals, OnRefs
// or RemoveChild on any node carving from the same region: the parallel
// engine builds it in the region's result buffer and reuses it. A node never
// handed a region (Use) has one of its own, so for it that is the next call
// on this node. Consume the slice or copy the Detection values out before
// calling into such a node again; the values themselves — solution sets,
// aggregates, clocks — stay valid forever.
func (nd *Node) OnInterval(src int, iv interval.Interval) []Detection {
	return nd.OnIntervals(src, []interval.Interval{iv})
}

// OnIntervals ingests a run of consecutive intervals of one source, in
// succession order, as a single batch: everything is enqueued first and the
// detection loop runs once — Algorithm 1 line 2 amortized over the run,
// which is what the batched runtimes feed it (a resequencer's released run,
// an ObserveBatch call). The emitted detections are exactly those of the
// equivalent one-at-a-time OnInterval sequence (property-tested to byte
// identity): an elimination proof against a head persists against every
// successor of that head, so which provably-useless intervals a fixed point
// discards never changes which solutions exist. The bookkeeping may differ —
// a batch exposes the run's later intervals inside the same fixed point
// where the sequential path starts a fresh one, so the two paths can
// classify a discarded interval differently (Eliminated vs Pruned vs still
// resident), and ExactPrune's Eq. 9 successor peek sees batch-delivered
// successors earlier. Like OnInterval it keeps copies; the result's lifetime
// is OnInterval's: until the next call into any node of the same region.
func (nd *Node) OnIntervals(src int, ivs []interval.Interval) []Detection {
	r := nd.region()
	homes := r.ivs.Carve(len(ivs))
	copy(homes, ivs)
	refs := r.refs[:0]
	for i := range homes {
		refs = append(refs, &homes[i])
	}
	dets := nd.OnRefs(src, refs)
	clear(refs)
	r.refs = refs[:0]
	return dets
}

// OnRefs is OnIntervals over references, copying nothing: the node queues
// the pointers and publishes them in solution sets, so each *ivs[k] must
// stay as it is for as long as any detection may be read — an interval's one
// home (a detection record's Agg, a slot of a region). The result's lifetime
// is OnInterval's: until the next call into any node of the same region.
func (nd *Node) OnRefs(src int, ivs []*interval.Interval) []Detection {
	if len(ivs) == 0 {
		return nil
	}
	i := nd.at(src)
	if i < 0 {
		nd.stats.Dropped += len(ivs)
		return nil
	}
	q := &nd.srcs[i].q
	if nd.cfg.Strict {
		for _, iv := range ivs {
			nd.checkSuccession(i, iv)
		}
	}
	if nd.alone(q) {
		return nd.passAlone(ivs)
	}
	wasEmpty := q.Empty()
	for _, iv := range ivs {
		q.Enqueue(iv)
		nd.noteEnqueue()
		nd.stats.IntervalsIn++
	}
	// Algorithm 1 line 2: only a new head can change the outcome, and the
	// batch exposed one exactly when the queue was empty before it.
	if !wasEmpty {
		return nil
	}
	return nd.detect(i)
}

// at returns src's position in srcs, or -1 when the node has no such queue.
// A linear scan: the list is a node's fan-in plus one, and a leaf — most
// nodes — finds itself at once.
func (nd *Node) at(src int) int {
	for i := range nd.srcs {
		if nd.srcs[i].id == src {
			return i
		}
	}
	return -1
}

// checkSuccession is Strict's test that iv starts causally after the last
// interval accepted from the source at position i ended.
func (nd *Node) checkSuccession(i int, iv *interval.Interval) {
	if prev := nd.off.lastHi[i]; prev != nil && !prev.Hi.Less(iv.Lo) {
		panic(fmt.Sprintf("core: node %d: succession violated on source %d: prev max %v, next min %v",
			nd.id, nd.srcs[i].id, prev.Hi, iv.Lo))
	}
	nd.off.lastHi[i] = iv
}

// alone reports that q is this node's only queue and empty, under the
// parallel engine: whatever arrives takes the one-source path (passAlone).
// Decided on every call, so adopting a child, losing the last one or a
// backlog left by either needs no special case — with a second source, or
// anything still queued, the queue path runs.
func (nd *Node) alone(q *queue) bool {
	return nd.cfg.Parallel && len(nd.srcs) == 1 && q.Empty()
}

// detect runs the elimination loop and, repeatedly, solution extraction and
// pruning, starting from the queue at position trigger — or from every queue
// when trigger is -1: a removed source may have blocked solutions among all
// the others. It returns every solution set found, in detection order. The
// parallel engine (engine.go) runs the same loop by position, on spans, with
// flat aggregate storage; the sequential body is kept as its property-test
// oracle, sources named by id and looked up by position (queue).
func (nd *Node) detect(trigger int) []Detection {
	if nd.cfg.Parallel {
		return nd.detectPar(trigger)
	}
	return nd.detectSeq(trigger)
}

// queue returns src's queue, or nil when the node has no such source.
func (nd *Node) queue(src int) *queue {
	if i := nd.at(src); i >= 0 {
		return &nd.srcs[i].q
	}
	return nil
}

func (nd *Node) detectSeq(trigger int) []Detection {
	var dets []Detection
	updated := nd.off.updated[:0]
	for i := range nd.srcs {
		if trigger < 0 || i == trigger {
			updated = append(updated, nd.srcs[i].id)
		}
	}
	for {
		nd.eliminate(updated)
		sol, ok := nd.solution()
		if !ok {
			nd.off.updated = updated[:0]
			return dets
		}
		interval.AggregateInto(&nd.off.agg, sol, nd.id, nd.stats.Detections, nd.cfg.KeepMembers)
		agg := nd.off.agg.CompactClone()
		nd.stats.Detections++
		dets = append(dets, Detection{Node: nd.id, Set: sol, Agg: agg})
		updated = nd.prune(updated[:0])
	}
}

// eliminate is Algorithm 1 lines 4–17: while some queue gained a new head,
// compare that head pairwise with every other head; a head x with
// min(x) ≮ max(y) proves y useless (y ends before x — and before every
// successor of x — begins to overlap), and vice versa. Deleted heads expose
// new heads, which feed the next round.
func (nd *Node) eliminate(trigger []int) {
	// Work on private buffers: cur/next swap roles each round, so they must
	// never alias the caller's slice.
	cur := append(nd.off.elimA[:0], trigger...)
	next := nd.off.elimB[:0]
	for len(cur) > 0 {
		next = next[:0]
		for _, a := range cur {
			qa := nd.queue(a)
			if qa == nil || qa.Empty() {
				continue
			}
			x := qa.Head()
			for i := range nd.srcs {
				b, qb := nd.srcs[i].id, &nd.srcs[i].q
				if b == a {
					continue
				}
				if qb.Empty() {
					continue
				}
				y := qb.Head()
				nd.stats.VecComparisons += 2
				// One fused pass evaluates both directions of Eq. 2's
				// pairwise check (see vclock.CompareLess).
				xBeforeY, yBeforeX := vclock.CompareLess(x.Lo, y.Hi, y.Lo, x.Hi)
				if !xBeforeY {
					next = addUnique(next, b)
				}
				if !yBeforeX {
					next = addUnique(next, a)
				}
			}
		}
		for _, c := range next {
			if q := nd.queue(c); !q.Empty() {
				q.DeleteHead()
				nd.noteRemovals(1)
				nd.stats.Eliminated++
			}
		}
		// Swap the scratch roles: the just-consumed buffer becomes the next
		// round's accumulator.
		cur, next = next, cur
	}
	nd.off.elimA, nd.off.elimB = cur[:0], next[:0]
}

// addUnique appends v unless present; the sets here are bounded by the
// node's queue count, so a linear scan beats any set structure.
func addUnique(s []int, v int) []int {
	for _, t := range s {
		if t == v {
			return s
		}
	}
	return append(s, v)
}

// solution returns the heads of all queues if every queue is non-empty
// (Algorithm 1 line 18). After eliminate has reached a fixed point, those
// heads are pairwise overlapping, so they form a solution set; Strict mode
// re-verifies that invariant on every solution.
func (nd *Node) solution() ([]*interval.Interval, bool) {
	if len(nd.srcs) == 0 {
		return nil, false
	}
	// Cheap emptiness pass first: most invocations find a blocked queue, and
	// the hot path must not allocate for them.
	for i := range nd.srcs {
		if nd.srcs[i].q.Empty() {
			return nil, false
		}
	}
	sol := make([]*interval.Interval, 0, len(nd.srcs))
	for i := range nd.srcs {
		sol = append(sol, nd.srcs[i].q.Head())
	}
	if nd.cfg.Strict && !interval.OverlapRefs(sol) {
		// The elimination fixed point guarantees pairwise overlap; a
		// violation means the elimination loop is broken, never bad input.
		panic(fmt.Sprintf("core: node %d: solution set fails pairwise overlap", nd.id))
	}
	return sol, true
}

// prune is Algorithm 1 lines 23–33 (Eq. 10): from the just-detected solution
// set, delete every head xₐ such that no other member's upper bound is
// strictly below xₐ's — i.e. the minimal elements of the max(x) order. Such a
// head can never belong to a future solution (Theorem 3, safety), and at
// least one always exists because a finite partial order always has a minimal
// element (Theorem 4, liveness). Returns the pruned sources so detection can
// re-run on the freshly exposed heads.
func (nd *Node) prune(removable []int) []int {
	for i := range nd.srcs {
		a, xa := nd.srcs[i].id, nd.srcs[i].q.Head()
		keep := false
		for j := range nd.srcs {
			b, qb := nd.srcs[j].id, &nd.srcs[j].q
			if b == a {
				continue
			}
			xb := qb.Head()
			nd.stats.VecComparisons++
			if !xb.Hi.Less(xa.Hi) {
				continue // Eq. 10 certifies x_b cannot revive x_a
			}
			if nd.cfg.ExactPrune && qb.Len() > 1 {
				// x_b's successor is already here: apply Eq. 9 exactly.
				nd.stats.VecComparisons++
				if !qb.At(1).Lo.Less(xa.Hi) {
					continue // succ(x_b) does not overlap x_a either
				}
			}
			keep = true
			break
		}
		if !keep {
			removable = append(removable, a)
		}
	}
	if len(removable) == 0 {
		// Impossible: the max(x) partial order over a finite non-empty set
		// always has minimal elements (Theorem 4).
		panic(fmt.Sprintf("core: node %d: pruning found no removable interval (Theorem 4 violated)", nd.id))
	}
	for _, a := range removable {
		nd.queue(a).DeleteHead()
		nd.noteRemovals(1)
		nd.stats.Pruned++
	}
	sort.Ints(removable)
	return removable
}
