package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hierdet/internal/interval"
	"hierdet/internal/workload"
)

// The one-source path (passAlone) must be indistinguishable from the queue
// path it stands in for. twin drives the sequential oracle — which has no
// such path — and a parallel-engine node through identical calls and
// compares, after every one, everything a caller can see: the detections
// byte for byte, Stats, the node-level residency and its peak, and each
// queue's own high-water mark.
type twin struct {
	t                *testing.T
	seq, par         *Node
	seqDets, parDets []Detection
}

func newTwin(t *testing.T, id, n int) *twin {
	cfg := Config{N: n, Strict: true, KeepMembers: true}
	par := cfg
	par.Parallel = true
	return &twin{t: t, seq: NewNode(id, cfg, true), par: NewNode(id, par, true)}
}

func (tw *twin) feed(src int, ivs []interval.Interval) {
	if len(ivs) == 1 {
		tw.seqDets = append(tw.seqDets, tw.seq.OnInterval(src, ivs[0])...)
		tw.parDets = append(tw.parDets, tw.par.OnInterval(src, ivs[0])...)
	} else {
		tw.seqDets = append(tw.seqDets, tw.seq.OnIntervals(src, ivs)...)
		tw.parDets = append(tw.parDets, tw.par.OnIntervals(src, ivs)...)
	}
	tw.check("feed")
}

func (tw *twin) addChild(c int) {
	tw.seq.AddChild(c)
	tw.par.AddChild(c)
}

func (tw *twin) removeChild(c int) {
	tw.seqDets = append(tw.seqDets, tw.seq.RemoveChild(c)...)
	tw.parDets = append(tw.parDets, tw.par.RemoveChild(c)...)
	tw.check("RemoveChild")
}

func (tw *twin) check(after string) {
	tw.t.Helper()
	if ss, ps := tw.seq.Stats(), tw.par.Stats(); ss != ps {
		tw.t.Fatalf("after %s: stats diverge:\n  seq %+v\n  par %+v", after, ss, ps)
	}
	sc, sh := tw.seq.QueueSizes()
	pc, ph := tw.par.QueueSizes()
	if sc != pc || sh != ph {
		tw.t.Fatalf("after %s: queue accounting diverges: seq %d/%d par %d/%d", after, sc, sh, pc, ph)
	}
	if sw, pw := tw.seq.QueueHighWaters(), tw.par.QueueHighWaters(); !reflect.DeepEqual(sw, pw) {
		tw.t.Fatalf("after %s: per-queue high water diverges: seq %v par %v", after, sw, pw)
	}
	if !bytes.Equal(encodeDetections(tw.seqDets), encodeDetections(tw.parDets)) {
		tw.t.Fatalf("after %s: detection streams diverge (%d vs %d detections)", after, len(tw.seqDets), len(tw.parDets))
	}
}

// TestQuickOneSourcePathMatchesOracle feeds a node its own stream in random
// runs while two children come and go at random, so it keeps crossing
// between the one-source path and the queue path — with an empty queue, with
// a backlog a silent child left behind, and back.
func TestQuickOneSourcePathMatchesOracle(t *testing.T) {
	detections := 0
	f := func(seed int64) bool {
		const n = 3
		streams := workload.GenerateChaotic(workload.ChaoticConfig{N: n, Steps: 300 * n, Seed: seed}).Streams
		tw := newTwin(t, 0, n)
		rng := rand.New(rand.NewSource(seed ^ 0xa10e))
		var idx [n]int
		var attached [n]bool
		attached[0] = true
		for step := 0; step < 400; step++ {
			p := rng.Intn(n)
			switch {
			case p != 0 && rng.Intn(6) == 0:
				if attached[p] {
					tw.removeChild(p)
				} else {
					tw.addChild(p)
				}
				attached[p] = !attached[p]
			case attached[p] && idx[p] < len(streams[p]):
				k := 1 + rng.Intn(min(4, len(streams[p])-idx[p]))
				tw.feed(p, streams[p][idx[p]:idx[p]+k])
				idx[p] += k
			}
		}
		detections += tw.par.Stats().Detections
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
	if detections == 0 {
		t.Fatal("no schedule detected anything")
	}
}

// TestLeafAdoptsChildMidStream: a leaf passes its intervals straight
// through, adopts a child, queues behind the child's silence, detects pairs
// once the child reports, and — the child gone again — first drains the
// backlog the queue path left and then passes straight through once more.
func TestLeafAdoptsChildMidStream(t *testing.T) {
	tw := newTwin(t, 0, 3)
	own := func(r int) []interval.Interval { return []interval.Interval{sync3(0, r, 10*r+1, 10*r+3)} }
	for r := 0; r < 3; r++ {
		tw.feed(0, own(r))
	}
	if got := len(tw.parDets); got != 3 {
		t.Fatalf("alone: %d detections from 3 intervals", got)
	}
	if cur, high := tw.par.QueueSizes(); cur != 0 || high != 1 {
		t.Fatalf("alone: residency %d, peak %d, want 0 and 1", cur, high)
	}
	tw.addChild(1)
	for r := 3; r < 7; r++ {
		tw.feed(0, own(r)) // child silent: these queue up
	}
	if got := len(tw.parDets); got != 3 {
		t.Fatalf("behind a silent child: %d detections, want still 3", got)
	}
	tw.feed(1, []interval.Interval{sync3(1, 0, 31, 33), sync3(1, 1, 41, 43)})
	if got := len(tw.parDets); got != 5 {
		t.Fatalf("child caught up two rounds: %d detections, want 5", got)
	}
	tw.removeChild(1) // rounds 5 and 6 are still queued
	if got := len(tw.parDets); got != 7 {
		t.Fatalf("last child lost with a backlog of 2: %d detections, want 7", got)
	}
	tw.feed(0, []interval.Interval{sync3(0, 7, 71, 73), sync3(0, 8, 81, 83)})
	if got := len(tw.parDets); got != 9 {
		t.Fatalf("alone again: %d detections, want 9", got)
	}
	if last := tw.parDets[8]; len(last.Set) != 1 || !last.Agg.Agg || last.Agg.Seq != 8 || &last.Agg.Lo[0] != &last.Set[0].Lo[0] {
		t.Fatalf("a one-source detection must aggregate to its member's own bounds: %+v", last)
	}
}

// TestSpanSharedOnlyWhileEqual: a node's successive aggregates share one span
// slice while they cover the same processes; the partial detection after a
// child is removed covers fewer and must get its own, leaving every span
// already published as it was.
func TestSpanSharedOnlyWhileEqual(t *testing.T) {
	nd := NewNode(0, Config{N: 3, Strict: true, Parallel: true}, true)
	nd.AddChild(1)
	nd.AddChild(2)
	var aggs []interval.Interval
	feed := func(src, r int) {
		for _, d := range nd.OnInterval(src, sync3(src, r, 10*r+1, 10*r+3)) {
			aggs = append(aggs, d.Agg)
		}
	}
	for r := 0; r < 2; r++ {
		feed(0, r)
		feed(1, r)
		feed(2, r)
	}
	feed(0, 2)
	feed(1, 2) // round 2 waits for child 2, which is removed instead
	for _, d := range nd.RemoveChild(2) {
		aggs = append(aggs, d.Agg)
	}
	if len(aggs) != 3 {
		t.Fatalf("%d detections, want 3", len(aggs))
	}
	if &aggs[0].Span[0] != &aggs[1].Span[0] {
		t.Error("two aggregates over the same three processes built a span each")
	}
	if want := []int{0, 1}; !reflect.DeepEqual(aggs[2].Span, want) || &aggs[2].Span[0] == &aggs[1].Span[0] {
		t.Errorf("partial detection's span %v (want %v) must not alias the full one", aggs[2].Span, want)
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(aggs[1].Span, want) {
		t.Errorf("a published span changed to %v", aggs[1].Span)
	}
}
