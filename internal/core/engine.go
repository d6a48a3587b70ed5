package core

import (
	"fmt"
	"slices"

	"hierdet/internal/interval"
	"hierdet/internal/vclock"
)

// This file implements the parallel detection engine: the same Algorithm 1
// loop as detectSeq/eliminate/prune, with sources addressed by position
// (nd.srcs) instead of by id, heads read where
// they are stored (the queues hold references), aggregate bounds and solution
// sets carved from a Region, and comparisons decided on the components of a
// span where those settle them (interval.SpanLess, DESIGN §10). Its
// parallelism is across nodes — the live runtime drains many nodes at once —
// and every round runs on the goroutine that calls into the node.
//
// A round is the list of (position, position) head pairs Algorithm 1
// enumerates, swept in pair order, the verdicts applied after the sweep. No
// queue mutates inside a round (deletions happen after the pair sweep,
// exactly like the sequential loop), so the engine deletes exactly the heads
// the sequential engine deletes, in the same order: byte-identical detections
// and identical Stats, property-tested against the sequential path, which is
// kept verbatim as the oracle (Config{Parallel: false}), for clocks that keep
// the interval.Interval contract. Producers are never blocked by a cascade:
// in the live runtime they enqueue into mailboxes, and the detector drains
// them only between detect calls.

// pair is one head-to-head check of an elimination round, by source position.
type pair struct{ a, b int32 }

// cmpVerdict holds the two fused Less results for one pair: min(x_a) <
// max(x_b) and min(x_b) < max(x_a).
type cmpVerdict struct {
	xBeforeY, yBeforeX bool
}

// detectPar is detect for the parallel engine: the identical outer loop over
// source positions, the aggregate materialized flat (interval.AggregateFlat)
// instead of scratch aggregation plus a compact clone.
//
// The result is built in the region's buffer, which the next call into any
// node carving from that region reuses: a fresh slice per call was 214 B per
// interval of garbage at p=127. The last call's entries are cleared first, so
// the buffer never keeps a slab reachable beyond that.
func (nd *Node) detectPar(trigger int) []Detection {
	r := nd.region()
	dets := r.results()
	updated := r.updated[:0]
	for i := range nd.srcs {
		if trigger < 0 || i == trigger {
			updated = append(updated, i)
		}
	}
	for {
		nd.eliminatePar(updated)
		sol, ok := nd.solutionPar()
		if !ok {
			r.updated = updated[:0]
			r.dets = dets
			return dets
		}
		dets = nd.publish(dets, sol)
		updated = nd.prunePar(updated[:0])
	}
}

// publish aggregates a solution set and appends its Detection.
func (nd *Node) publish(dets []Detection, sol []*interval.Interval) []Detection {
	agg := interval.AggregateRefs(&nd.store, sol, nd.id, nd.stats.Detections, nd.cfg.KeepMembers)
	nd.stats.Detections++
	return append(dets, Detection{Node: nd.id, Set: sol, Agg: agg})
}

// passAlone is the one-source path: the node's only queue is empty, so an
// arriving interval has no other head to be compared with or wait for — it
// is its own solution set, aggregates to itself (AggregateFlat's singleton
// aliasing) and is pruned at once as the set's only, hence minimal, member.
// The queue path reaches exactly that through enqueue → eliminate over no
// pairs → solution → aggregate → prune over no pairs → delete; this books
// the same Stats, queue high-water marks and Detection without the round
// trip. Leaves — most of any tree — ingest nothing else.
func (nd *Node) passAlone(ivs []*interval.Interval) []Detection {
	k := len(ivs)
	nd.stats.IntervalsIn += k
	nd.stats.Pruned += k
	// A run is all resident before its first detection, as after Enqueue.
	if q := &nd.srcs[0].q; q.HighWater < k {
		q.HighWater = k
	}
	if nd.residentHigh < k {
		nd.residentHigh = k
	}
	r := nd.region()
	dets := r.results()
	for _, iv := range ivs {
		sol := r.sets.Carve(1)
		sol[0] = iv
		dets = nd.publish(dets, sol)
	}
	r.dets = dets
	return dets
}

// eliminatePar is eliminate as rounds over head pairs. A round lists the
// pairs (cur × sources) in the sequential order, sweeps them and replays the
// sequential addUnique/DeleteHead sequence from the verdicts. When both heads
// of a pair are in cur the sequential loop enumerates it from either side;
// the second visit would compute the first's two verdicts swapped and re-add
// what addUnique already holds, so it is counted — VecComparisons tallies
// what Algorithm 1 enumerates — and not evaluated: after a prune that exposed
// several heads at once that is close to half the round.
func (nd *Node) eliminatePar(trigger []int) {
	r := nd.reg
	cur := append(r.elimA[:0], trigger...)
	next := r.elimB[:0]
	srcs := nd.srcs
	if len(r.inRound) < len(srcs) {
		r.inRound = make([]int32, len(srcs))
	}
	inRound := r.inRound[:len(srcs)]
	for len(cur) > 0 {
		next = next[:0]
		for i, a := range cur {
			inRound[a] = int32(i) + 1
		}
		pairs := r.pairs[:0]
		enumerated := 0
		for i, a := range cur {
			if srcs[a].q.Empty() {
				continue
			}
			for b := range srcs {
				if b == a || srcs[b].q.Empty() {
					continue
				}
				enumerated++
				if j := int(inRound[b]); j != 0 && j <= i {
					continue // listed as (b, a) already
				}
				pairs = append(pairs, pair{int32(a), int32(b)})
			}
		}
		for _, a := range cur {
			inRound[a] = 0
		}
		nd.stats.VecComparisons += 2 * enumerated
		if cap(r.verdicts) < len(pairs) {
			r.verdicts = make([]cmpVerdict, len(pairs), 2*len(pairs))
		}
		verdicts := r.verdicts[:len(pairs)]
		calls := nd.sweep(pairs, verdicts, inRound)
		if sweepHook != nil {
			sweepHook(nd, pairs, verdicts, calls)
		}
		for i, p := range pairs {
			if !verdicts[i].xBeforeY {
				next = addUnique(next, int(p.b))
			}
			if !verdicts[i].yBeforeX {
				next = addUnique(next, int(p.a))
			}
		}
		r.pairs = pairs[:0]
		for _, c := range next {
			if q := &srcs[c].q; !q.Empty() {
				q.DeleteHead()
				nd.noteRemovals(1)
				nd.stats.Eliminated++
			}
		}
		cur, next = next, cur
	}
	r.elimA, r.elimB = cur[:0], next[:0]
}

// verdict is min(x) < max(y) and min(y) < max(x), each decided on its span
// where that settles it, the rest by the full scan: fused if both are.
// Strict's recheck is checkVerdict's.
func (nd *Node) verdict(x, y *interval.Interval) cmpVerdict {
	xy, okx := interval.SpanLess(x.Lo, y.Hi, x.Span)
	yx, oky := interval.SpanLess(y.Lo, x.Hi, y.Span)
	switch {
	case !okx && !oky:
		xy, yx = vclock.CompareLess(x.Lo, y.Hi, y.Lo, x.Hi)
	case !okx:
		xy = x.Lo.Less(y.Hi)
	case !oky:
		yx = y.Lo.Less(x.Hi)
	}
	return cmpVerdict{xy, yx}
}

// less is a < b for one direction, a a bound of the interval span covers:
// decided on span where interval.SpanLess settles it, else the full scan.
func (nd *Node) less(a, b vclock.VC, span []int) bool {
	less, ok := interval.SpanLess(a, b, span)
	if !ok {
		less = a.Less(b)
	}
	if nd.cfg.Strict {
		nd.checkClocks(a, b, span, less)
	}
	return less
}

// checkVerdict is Strict's recheck of both directions of a pair's verdict.
func (nd *Node) checkVerdict(x, y *interval.Interval, v cmpVerdict) {
	nd.checkClocks(x.Lo, y.Hi, x.Span, v.xBeforeY)
	nd.checkClocks(y.Lo, x.Hi, y.Span, v.yBeforeX)
}

// checkClocks is Strict's full-scan recomputation of a verdict.
func (nd *Node) checkClocks(a, b vclock.VC, span []int, less bool) {
	if a.Less(b) != less {
		panic(fmt.Sprintf("core: node %d: clock contract violated: %v < %v is %v on span %v, %v on every component "+
			"(a base interval's bounds must be Fidge–Mattern timestamps of events at its origin, every receive ticking)",
			nd.id, a, b, less, span, !less))
	}
}

// sweepHook, set by tests only, sees every round after its sweep.
var sweepHook func(nd *Node, pairs []pair, verdicts []cmpVerdict, calls int)

// sweep evaluates a round's pairs in pair order, skipping what cannot change
// the deletion list. It marks in dead each position an earlier pair of the
// round condemned (the round's inRound, zero at rest). A pair of two marked heads is not
// evaluated; with one marked head only the direction that can condemn the
// other is (less); otherwise both are (verdict). A skipped direction reads
// true — it condemns nothing — and its head is on the deletion list already,
// so the list comes out as the all-pairs evaluation builds it (DESIGN §10).
// Returns the comparison calls made.
func (nd *Node) sweep(pairs []pair, verdicts []cmpVerdict, dead []int32) (calls int) {
	for i, p := range pairs {
		v := cmpVerdict{true, true}
		da, db := dead[p.a] != 0, dead[p.b] != 0
		if da && db {
			verdicts[i] = v
			continue
		}
		x, y := nd.srcs[p.a].q.Head(), nd.srcs[p.b].q.Head()
		switch {
		case da:
			v.xBeforeY = nd.less(x.Lo, y.Hi, x.Span)
		case db:
			v.yBeforeX = nd.less(y.Lo, x.Hi, y.Span)
		default:
			v = nd.verdict(x, y)
			if nd.cfg.Strict {
				nd.checkVerdict(x, y, v)
			}
		}
		calls++
		if !v.xBeforeY {
			dead[p.b] = 1
		}
		if !v.yBeforeX {
			dead[p.a] = 1
		}
		verdicts[i] = v
	}
	clear(dead)
	return calls
}

// solutionPar is solution with the set carved from the region instead of a
// fresh allocation: solution sets escape into Detections, and at production
// rates one make per detection was measurable.
func (nd *Node) solutionPar() ([]*interval.Interval, bool) {
	srcs := nd.srcs
	if len(srcs) == 0 {
		return nil, false
	}
	for i := range srcs {
		if srcs[i].q.Empty() {
			return nil, false
		}
	}
	sol := nd.reg.sets.Carve(len(srcs))
	for i := range srcs {
		sol[i] = srcs[i].q.Head()
	}
	if nd.cfg.Strict && !interval.OverlapRefs(sol) {
		panic(fmt.Sprintf("core: node %d: solution set fails pairwise overlap", nd.id))
	}
	return sol, true
}

// Region keeps what detections publish, each kind in a vclock.Slab carved
// exactly: the parallel engine's aggregate bounds (2n clock words a pair),
// the one home of every interval a node took by value (OnInterval), solution
// sets (a reference per member) and the Detection records a host keeps
// (Keep). Beside them it holds what a call into a node needs only while it
// runs: a round's positions, pairs, verdicts and marks, the references
// OnIntervals stages and the buffer results are returned in. The live
// runtime gives each substrate worker one and hands it to every node it runs
// for the drain (Use), so all of them share one part-used slab per kind and
// one set of scratch, sized by the widest node the worker has run; a node
// never handed a region makes itself one when it first needs it. The zero
// Region is ready to use; it is not safe for concurrent use.
type Region struct {
	clocks vclock.Slab[uint32]
	ivs    vclock.Slab[interval.Interval]
	sets   vclock.Slab[*interval.Interval]
	recs   vclock.Slab[Detection]

	// A call's scratch. updated and the elim pair hold positions (detectPar,
	// eliminatePar's cur/next); inRound is zero at rest (see sweep).
	updated, elimA, elimB []int
	pairs                 []pair
	verdicts              []cmpVerdict
	inRound               []int32
	refs                  []*interval.Interval
	dets                  []Detection
}

// results returns the result buffer emptied, the last call's entries
// cleared so they keep nothing reachable.
func (r *Region) results() []Detection {
	clear(r.dets)
	return r.dets[:0]
}

// Keep copies *d into a record carved from the region.
func (r *Region) Keep(d *Detection) *Detection {
	rec := &r.recs.Carve(1)[0]
	*rec = *d
	return rec
}

// Use points the node's carving and its calls' scratch at r for the calls
// that follow; what is already published stays where it was carved. Any
// number of nodes may share r, one call at a time: the caller owns r for as
// long as it calls into them, and a call's result lives until the next call
// into any of them (see OnInterval).
func (nd *Node) Use(r *Region) {
	nd.reg = r
	nd.store.CarveFrom(&r.clocks)
}

// region returns the region the node carves from, making one if it was
// never handed any.
func (nd *Node) region() *Region {
	if nd.reg == nil {
		nd.Use(new(Region))
	}
	return nd.reg
}

// prunePar is prune by position: every head's keep decision (pruneKeep)
// taken before any head is deleted.
func (nd *Node) prunePar(removable []int) []int {
	srcs := nd.srcs
	for a := range srcs {
		if !nd.pruneKeep(a) {
			removable = append(removable, a)
		}
	}
	if len(removable) == 0 {
		panic(fmt.Sprintf("core: node %d: pruning found no removable interval (Theorem 4 violated)", nd.id))
	}
	for _, a := range removable {
		srcs[a].q.DeleteHead()
		nd.noteRemovals(1)
		nd.stats.Pruned++
	}
	// The sequential prune hands its sources on sorted by id; positions are
	// in insertion order, which adoption can leave unsorted.
	slices.SortFunc(removable, func(a, b int) int { return srcs[a].id - srcs[b].id })
	return removable
}

// pruneKeep evaluates Eq. 10 (and, under ExactPrune, Eq. 9) for the head at
// position a — the loop body of the sequential prune, counting its
// comparisons the same way. max(x_b) < max(x_a) is decided on x_b's one
// component when x_b is a base interval. An aggregate's max is a meet its
// span does not determine, so it takes Less. Two members of one solution set
// mostly have concurrent upper bounds, so nearly every Less here is false,
// and Less returns at the first eight-component block that refutes it
// (vclock's early-exit kernel) instead of streaming all n components.
func (nd *Node) pruneKeep(a int) bool {
	xa := nd.srcs[a].q.Head()
	for b := range nd.srcs {
		if b == a {
			continue
		}
		qb := &nd.srcs[b].q
		nd.stats.VecComparisons++
		xb, span := qb.Head(), []int(nil)
		if len(xb.Span) == 1 {
			span = xb.Span
		}
		if !nd.less(xb.Hi, xa.Hi, span) {
			continue // Eq. 10 certifies x_b cannot revive x_a
		}
		if nd.cfg.ExactPrune && qb.Len() > 1 {
			// x_b's successor is already here: apply Eq. 9 exactly.
			nd.stats.VecComparisons++
			if succ := qb.At(1); !nd.less(succ.Lo, xa.Hi, succ.Span) {
				continue // succ(x_b) does not overlap x_a either
			}
		}
		return true
	}
	return false
}
