package core

import (
	"fmt"
	"sort"
	"time"

	"hierdet/internal/interval"
	"hierdet/internal/vclock"
)

// This file implements the parallel detection engine: the same Algorithm 1
// loop as detect/eliminate/prune, restructured so the O(n)-per-comparison
// work — the only part that grows with system size — partitions across a
// bounded worker Pool, and so the aggregates it publishes live in a flat
// struct-of-arrays vclock.Store instead of per-detection clones.
//
// Equivalence with the sequential engine is structural, not approximate, and
// the sequential path is kept verbatim as the property-test oracle (Config
// {Parallel: false}):
//
//   - Each elimination round first snapshots the round's head-to-head pairs
//     in the sequential iteration order, then evaluates the pair verdicts —
//     inline, or fanned out when the round carries enough components — and
//     finally applies the verdicts serially in that same pair order. Within a
//     round no queue mutates (deletions happen after the pair sweep, exactly
//     like the sequential loop), so the verdicts are a pure function of the
//     heads and the parallel engine deletes exactly the heads the sequential
//     engine deletes, in the same order, producing byte-identical detections
//     and identical Stats.
//
//   - Queues stay single-writer: workers read only the pair snapshots (bounds
//     are immutable once published), and an epoch guard — Queue.Gen sampled
//     around every fanned-out round — turns any concurrent mutation into an
//     immediate panic rather than a race. Producers are never blocked by a
//     cascade: in the live runtime they enqueue into mailboxes, and the
//     detector drains them only between detect calls.

// Pair resolution states: evaluated by a comparison (the only state workers
// touch), answered from the cross-round memo at snapshot time, or resolved by
// swapping the verdict of its mirror pair within the round.
const (
	pairEval uint8 = iota
	pairMemo
	pairMirror
)

// cmpTask snapshots one head-to-head pair of an elimination round: the source
// ids and positions, the four bound clocks plus their digests (so workers
// never touch queues or maps), the head generations that key the memo store,
// and the pair's resolution state.
type cmpTask struct {
	a, b               int
	ia, ib             int // positions in nd.srcs (memo indices)
	xLo, xHi, yLo, yHi vclock.VC
	dxLo, dxHi         uint64 // digests of xLo/xHi
	dyLo, dyHi         uint64
	genX, genY         uint64 // head generations at snapshot
	xBeforeY, yBeforeX bool   // memo-resolved verdict (state == pairMemo)
	state              uint8
	filtered           uint8 // digest-refuted directions (state == pairEval)
	mirror             int32 // index of the pair this one mirrors
}

// cmpVerdict holds the two fused Less results for one pair.
type cmpVerdict struct {
	xBeforeY, yBeforeX bool
}

// defaultFanoutThreshold seeds the fanout decision: the minimum number of
// clock components a comparison round must carry before it is worth shipping
// to the pool; below it, fanout overhead (job publication, wakeups, the
// completion barrier) exceeds the comparison work itself. With the default
// adaptive policy (engine_policy.go) this is only the starting point — the
// measured inline-vs-fanned round costs walk the threshold from here. A
// positive Config.FanoutThreshold pins it statically.
const defaultFanoutThreshold = 32768

func (nd *Node) fanoutThreshold() int {
	if nd.cfg.FanoutThreshold > 0 {
		return nd.cfg.FanoutThreshold
	}
	return nd.policy.cut()
}

// detectPar is detect for the parallel engine: the identical outer loop, with
// eliminate/solution/prune swapped for their partitioned forms and the
// aggregate materialized flat (interval.AggregateFlat) instead of scratch
// aggregation plus a compact clone.
//
// The result is built in nd.detBuf, which the next call on this node reuses:
// a fresh slice per call was 214 B per interval of garbage at p=127. The last
// call's entries are cleared first, so the buffer never keeps a solution slab
// or clock chunk reachable beyond that.
func (nd *Node) detectPar(trigger []int) []Detection {
	clear(nd.detBuf)
	dets := nd.detBuf[:0]
	updated := append(nd.scratchA[:0], trigger...)
	for {
		nd.eliminatePar(updated)
		sol, ok := nd.solutionPar()
		if !ok {
			nd.scratchA = updated[:0]
			nd.detBuf = dets
			return dets
		}
		agg := interval.AggregateFlat(nd.store, sol, nd.id, nd.aggSeq, nd.cfg.KeepMembers)
		nd.aggSeq++
		nd.stats.Detections++
		dets = append(dets, Detection{Node: nd.id, Set: sol, Agg: agg})
		updated = nd.prunePar(updated[:0])
	}
}

// eliminatePar is eliminate with each round split into snapshot → verdicts →
// serial application. The snapshot walks (cur × srcs) in the sequential
// order, resolving pairs from the cross-round memo (both head generations
// unchanged) or from their mirror within the round; only the rest are
// evaluated — digest-guarded, inline or fanned out — and application replays
// the sequential addUnique/DeleteHead sequence from the verdicts, tallying
// the enumerated comparisons exactly as the oracle does.
func (nd *Node) eliminatePar(trigger []int) {
	cur := append(nd.scratchElimA[:0], trigger...)
	next := nd.scratchElimB[:0]
	s := len(nd.srcs)
	mirror := nd.mirrorScratch
	for len(cur) > 0 {
		next = next[:0]
		pairs := nd.pairScratch[:0]
		eval := 0
		for _, a := range cur {
			qa, ok := nd.queues[a]
			if !ok || qa.Empty() {
				continue
			}
			x := qa.HeadRef()
			gx := qa.HeadGen()
			ia := nd.srcPos[a]
			for ib, b := range nd.srcs {
				if b == a {
					continue
				}
				qb := nd.queues[b]
				if qb.Empty() {
					continue
				}
				y := qb.HeadRef()
				t := cmpTask{a: a, b: b, ia: ia, ib: ib,
					xLo: x.Lo, xHi: x.Hi, yLo: y.Lo, yHi: y.Hi,
					genX: gx, genY: qb.HeadGen()}
				if m := &nd.elimMemoT[ia*s+ib]; m.valid && m.genA == t.genX && m.genB == t.genY {
					t.state = pairMemo
					t.xBeforeY, t.yBeforeX = m.xBeforeY, m.yBeforeX
				} else if j := mirror[ib*s+ia]; j >= 0 {
					t.state = pairMirror
					t.mirror = j
				} else {
					// Digests are consulted only from a head's second
					// evaluation on: a head evaluated once costs two O(n)
					// sums to guard a single comparison, which is more than
					// the guard can save, while memo and mirror resolution
					// already make repeat evaluations of an unchanged *pair*
					// free. A side whose head is seen for the first time
					// carries the conservative sentinel sums (Lo 0, Hi max),
					// under which neither direction can refute, so the
					// comparison kernel and its verdicts are untouched.
					t.dxLo, t.dxHi = digestNone.Lo, digestNone.Hi
					t.dyLo, t.dyHi = digestNone.Lo, digestNone.Hi
					if nd.digestSeen[ia] == gx+1 {
						dx := qa.HeadDigests()
						t.dxLo, t.dxHi = dx.Lo, dx.Hi
					} else {
						nd.digestSeen[ia] = gx + 1
					}
					if gy := t.genY; nd.digestSeen[ib] == gy+1 {
						dy := qb.HeadDigests()
						t.dyLo, t.dyHi = dy.Lo, dy.Hi
					} else {
						nd.digestSeen[ib] = gy + 1
					}
					mirror[ia*s+ib] = int32(len(pairs))
					eval++
				}
				pairs = append(pairs, t)
			}
		}
		if cap(nd.verdictScratch) < len(pairs) {
			nd.verdictScratch = make([]cmpVerdict, len(pairs))
		}
		verdicts := nd.verdictScratch[:len(pairs)]
		for i := range pairs {
			if pairs[i].state == pairMemo {
				verdicts[i] = cmpVerdict{pairs[i].xBeforeY, pairs[i].yBeforeX}
			}
		}
		nd.compareAll(pairs, verdicts, eval)
		for i := range pairs {
			if pairs[i].state == pairMirror {
				v := verdicts[pairs[i].mirror]
				verdicts[i] = cmpVerdict{v.yBeforeX, v.xBeforeY}
			}
		}
		for i := range pairs {
			p := &pairs[i]
			nd.stats.VecComparisons += 2
			if p.state == pairEval {
				nd.stats.FilteredComparisons += int(p.filtered)
			} else {
				nd.stats.MemoHits += 2
			}
			v := verdicts[i]
			nd.elimMemoT[p.ia*s+p.ib] = elimMemo{genA: p.genX, genB: p.genY,
				xBeforeY: v.xBeforeY, yBeforeX: v.yBeforeX, valid: true}
			nd.elimMemoT[p.ib*s+p.ia] = elimMemo{genA: p.genY, genB: p.genX,
				xBeforeY: v.yBeforeX, yBeforeX: v.xBeforeY, valid: true}
			mirror[p.ia*s+p.ib] = -1 // restore the at-rest scratch state
			if !v.xBeforeY {
				next = addUnique(next, p.b)
			}
			if !v.yBeforeX {
				next = addUnique(next, p.a)
			}
		}
		nd.pairScratch = pairs[:0]
		for _, c := range next {
			if q := nd.queues[c]; !q.Empty() {
				q.DeleteHead()
				nd.noteRemovals(1)
				nd.stats.Eliminated++
			}
		}
		cur, next = next, cur
	}
	nd.scratchElimA, nd.scratchElimB = cur[:0], next[:0]
}

// compareAll fills verdicts[i] with the digest-guarded fused CompareLess of
// every still-unresolved pair (state == pairEval; eval counts them), fanning
// the round out to the pool when the lane decision says so and running it
// inline otherwise. With a static Config.FanoutThreshold the decision is the
// historical size cut; by default the adaptive policy decides and measured
// rounds feed their cost back. Fanned-out rounds are epoch-guarded: every
// queue's generation is sampled before and after, and a moved generation — a
// producer mutating a queue mid-round — panics.
func (nd *Node) compareAll(pairs []cmpTask, verdicts []cmpVerdict, eval int) {
	comps := eval * nd.cfg.N
	fan, measure := false, false
	switch {
	case nd.cfg.Pool == nil || eval < 2:
	case nd.cfg.FanoutThreshold > 0:
		fan = comps >= nd.cfg.FanoutThreshold
	default:
		fan, measure = nd.policy.decide(comps)
	}
	var t0 time.Time
	if measure {
		t0 = time.Now()
	}
	if !fan {
		if eval > 0 {
			nd.cfg.Pool.noteInline()
		}
		for i := range pairs {
			p := &pairs[i]
			if p.state != pairEval {
				continue
			}
			var f int
			verdicts[i].xBeforeY, verdicts[i].yBeforeX, f = vclock.CompareLessDigest(
				p.xLo, p.yHi, p.yLo, p.xHi, p.dxLo, p.dyHi, p.dyLo, p.dxHi)
			p.filtered = uint8(f)
		}
	} else {
		gens := nd.genScratch[:0]
		for _, s := range nd.srcs {
			gens = append(gens, nd.queues[s].Gen())
		}
		nd.cfg.Pool.Run(len(pairs), func(i int) {
			p := &pairs[i]
			if p.state != pairEval {
				return
			}
			var f int
			verdicts[i].xBeforeY, verdicts[i].yBeforeX, f = vclock.CompareLessDigest(
				p.xLo, p.yHi, p.yLo, p.xHi, p.dxLo, p.dyHi, p.dyLo, p.dxHi)
			p.filtered = uint8(f)
		})
		for i, s := range nd.srcs {
			if nd.queues[s].Gen() != gens[i] {
				panic(fmt.Sprintf("core: node %d: queue %d mutated during a parallel comparison round (single-writer contract violated)", nd.id, s))
			}
		}
		nd.genScratch = gens[:0]
	}
	if measure {
		nd.policy.observe(fan, comps, time.Since(t0))
	}
}

// solutionPar is solution with the set carved from a slab instead of a fresh
// allocation: solution sets escape into Detections, and at production rates
// one make per detection was measurable. A slab chunk is retained only as
// long as some detection carved from it.
func (nd *Node) solutionPar() ([]interval.Interval, bool) {
	if len(nd.srcs) == 0 {
		return nil, false
	}
	for _, s := range nd.srcs {
		if nd.queues[s].Empty() {
			return nil, false
		}
	}
	need := len(nd.srcs)
	if len(nd.solSlab)+need > cap(nd.solSlab) {
		// Slab chunks double from a few sets up to solSlabChunk: most nodes
		// publish few detections, so a fixed large chunk would strand memory
		// per node at scale.
		c := 2 * cap(nd.solSlab)
		if c < 2*need {
			c = 2 * need
		}
		if c > solSlabChunk && c > need {
			c = solSlabChunk
			if c < need {
				c = need
			}
		}
		nd.solSlab = make([]interval.Interval, 0, c)
	}
	base := len(nd.solSlab)
	nd.solSlab = nd.solSlab[:base+need]
	sol := nd.solSlab[base : base+need : base+need]
	for i, s := range nd.srcs {
		sol[i] = *nd.queues[s].HeadRef()
	}
	if nd.cfg.Strict && !interval.OverlapAll(sol) {
		panic(fmt.Sprintf("core: node %d: solution set fails pairwise overlap", nd.id))
	}
	return sol, true
}

// solSlabChunk sizes the solution-set slab (in intervals). Sets are d+1
// intervals, so one chunk serves tens of detections at typical fanouts.
const solSlabChunk = 256

// prunePar is prune with the per-head keep decisions evaluated concurrently.
// Each head's decision reads only queue heads (and Eq. 9 successor peeks) and
// writes its own verdict slot; comparisons — logical, digest-filtered and
// memo-served — are tallied per head and summed in source order, so Stats
// match the sequential engine exactly. Small source sets fall through to
// pruneParSeq, the memoized single-goroutine body — never to the sequential
// oracle's prune, which stays verbatim.
func (nd *Node) prunePar(removable []int) []int {
	srcs := nd.srcs
	if nd.cfg.Pool == nil || len(srcs) < 4 || len(srcs)*(len(srcs)-1)*nd.cfg.N < nd.fanoutThreshold() {
		return nd.pruneParSeq(removable)
	}
	if cap(nd.keepScratch) < len(srcs) {
		nd.keepScratch = make([]pruneVerdict, len(srcs))
	}
	keeps := nd.keepScratch[:len(srcs)]
	gens := nd.genScratch[:0]
	for _, s := range srcs {
		q := nd.queues[s]
		gens = append(gens, q.Gen())
		// Digest caches fill lazily on consult, which is a write; prefill
		// every digest the fanned-out workers can touch here on the owner
		// goroutine so the workers are pure readers.
		q.HeadDigests()
		if nd.cfg.ExactPrune && q.Len() > 1 {
			q.DigestsAt(1)
		}
	}
	nd.cfg.Pool.Run(len(srcs), func(i int) {
		keeps[i] = nd.pruneKeep(srcs[i])
	})
	for i, s := range srcs {
		if nd.queues[s].Gen() != gens[i] {
			panic(fmt.Sprintf("core: node %d: queue %d mutated during a parallel pruning round (single-writer contract violated)", nd.id, s))
		}
	}
	nd.genScratch = gens[:0]
	for i, a := range srcs {
		nd.stats.VecComparisons += keeps[i].comparisons
		nd.stats.FilteredComparisons += keeps[i].filtered
		nd.stats.MemoHits += keeps[i].memoHits
		if !keeps[i].keep {
			removable = append(removable, a)
		}
	}
	if len(removable) == 0 {
		panic(fmt.Sprintf("core: node %d: pruning found no removable interval (Theorem 4 violated)", nd.id))
	}
	for _, a := range removable {
		nd.queues[a].DeleteHead()
		nd.noteRemovals(1)
		nd.stats.Pruned++
	}
	sort.Ints(removable)
	return removable
}

// pruneVerdict is one head's pruning decision plus the comparison accounting
// it accrued, so the serial tally reproduces the sequential VecComparisons
// count and the comparison-pruning breakdown.
type pruneVerdict struct {
	keep        bool
	comparisons int
	filtered    int
	memoHits    int
}

// pruneKeep evaluates Eq. 10 (and, under ExactPrune, Eq. 9) for source a's
// head — the loop body of the sequential prune, reading queues but mutating
// nothing except its own memo column: entry (b, a) is touched only by the
// worker evaluating a, so concurrent evaluations stay independent.
func (nd *Node) pruneKeep(a int) pruneVerdict {
	var v pruneVerdict
	s := len(nd.srcs)
	qa := nd.queues[a]
	xa := qa.HeadRef()
	da := qa.HeadDigests()
	ga := qa.HeadGen()
	ia := nd.srcPos[a]
	for ib, b := range nd.srcs {
		if b == a {
			continue
		}
		qb := nd.queues[b]
		v.comparisons++
		var less bool
		gb := qb.HeadGen()
		if m := &nd.pruneMemoT[ib*s+ia]; m.valid && m.genB == gb && m.genA == ga {
			less = m.less
			v.memoHits++
		} else {
			db := qb.HeadDigests()
			var filtered bool
			less, filtered = qb.HeadRef().Hi.LessDigest(xa.Hi, db.Hi, da.Hi)
			if filtered {
				v.filtered++
			}
			*m = pruneMemo{genB: gb, genA: ga, less: less, valid: true}
		}
		if !less {
			continue
		}
		if nd.cfg.ExactPrune && qb.Len() > 1 {
			v.comparisons++
			sl, sf := qb.At(1).Lo.LessDigest(xa.Hi, qb.DigestsAt(1).Lo, da.Hi)
			if sf {
				v.filtered++
			}
			if !sl {
				continue
			}
		}
		v.keep = true
		return v
	}
	return v
}
