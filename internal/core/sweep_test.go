package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// The sweep (engine.go) skips the pairs and directions of a round that
// cannot change its deletion list. These tests pin that it deletes exactly
// what the all-pairs evaluation deletes, and that it does skip.

// watchSweeps installs fn as the sweep hook for the rest of the test.
func watchSweeps(t *testing.T, fn func(nd *Node, pairs []pair, verdicts []cmpVerdict, calls int)) {
	sweepHook = fn
	t.Cleanup(func() { sweepHook = nil })
}

// deletions is the deletion list eliminatePar builds from a round's verdicts.
func deletions(pairs []pair, verdicts []cmpVerdict) []int {
	var next []int
	for i, p := range pairs {
		if !verdicts[i].xBeforeY {
			next = addUnique(next, int(p.b))
		}
		if !verdicts[i].yBeforeX {
			next = addUnique(next, int(p.a))
		}
	}
	return next
}

// checkSweep fails the test unless the round's verdicts delete what every
// pair evaluated in both directions deletes, in content and order.
func checkSweep(t *testing.T, nd *Node, pairs []pair, verdicts []cmpVerdict) {
	all := make([]cmpVerdict, len(pairs))
	for i, p := range pairs {
		all[i] = nd.verdict(nd.srcs[p.a].q.Head(), nd.srcs[p.b].q.Head())
	}
	if got, want := deletions(pairs, verdicts), deletions(pairs, all); !slices.Equal(got, want) {
		t.Fatalf("node %d: a round of %d pairs deletes positions %v, the all-pairs evaluation %v", nd.id, len(pairs), got, want)
	}
}

// TestSweepDeletesWhatAllPairsDelete checks every round of the chaotic
// parity schedules — RemoveChild, ResetSource and adoption interleaved —
// against the all-pairs evaluation of the same heads.
func TestSweepDeletesWhatAllPairsDelete(t *testing.T) {
	rounds, pairs, calls := 0, 0, 0
	watchSweeps(t, func(nd *Node, ps []pair, verdicts []cmpVerdict, c int) {
		checkSweep(t, nd, ps, verdicts)
		rounds, pairs, calls = rounds+1, pairs+len(ps), calls+c
	})
	f := func(seed int64, nSel uint8) bool { return parallelEquivalent(t, seed, nSel) }
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if rounds == 0 || calls >= pairs {
		t.Fatalf("%d rounds, %d comparison calls for %d pairs: the schedules never exercised a skip", rounds, calls, pairs)
	}
}

// TestSweepSkipsOnBackloggedNode feeds the root of a 17-process star (fan-in
// 16 plus its own predicate) a wide_compare-like mix of global, group, subset
// and isolated rounds in runs of up to eight intervals a source, so queues
// back up and prunes expose many heads at once, and requires the sweeps to
// call the comparison kernels fewer times than their rounds list pairs — and
// to delete, round by round, what the all-pairs evaluation deletes.
func TestSweepSkipsOnBackloggedNode(t *testing.T) {
	const n = 17
	streams := workload.Generate(workload.Config{Topology: tree.Star(n), Rounds: 400, Seed: 27,
		PGlobal: 0.4, PGroup: 0.2, PSubset: 0.2}).Streams
	nd := NewNode(0, Config{N: n, Strict: true, Parallel: true}, true)
	for c := 1; c < n; c++ {
		nd.AddChild(c)
	}
	pairs, calls := 0, 0
	watchSweeps(t, func(nd *Node, ps []pair, verdicts []cmpVerdict, c int) {
		checkSweep(t, nd, ps, verdicts)
		pairs, calls = pairs+len(ps), calls+c
	})
	rng := rand.New(rand.NewSource(27))
	idx := make([]int, n)
	for fed := true; fed; {
		fed = false
		for p := range n {
			left := len(streams[p]) - idx[p]
			if left == 0 {
				continue
			}
			k := 1 + rng.Intn(min(left, 8))
			nd.OnIntervals(p, streams[p][idx[p]:idx[p]+k])
			idx[p] += k
			fed = true
		}
	}
	if st := nd.Stats(); st.Detections == 0 || st.Eliminated == 0 {
		t.Fatalf("the schedule detected or eliminated nothing: %+v", st)
	}
	t.Logf("%d comparison calls for %d pairs listed", calls, pairs)
	if calls >= pairs {
		t.Fatalf("%d comparison calls for %d pairs: the sweep skipped nothing", calls, pairs)
	}
}
