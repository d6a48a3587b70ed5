package centralized

import (
	"testing"

	"hierdet/internal/core"
	"hierdet/internal/interval"
	"hierdet/internal/vclock"
)

// pulse builds one synchronized pulse of n mutually overlapping intervals;
// pulse p+1 begins strictly after pulse p ends.
func pulse(n, p int) []interval.Interval {
	base := uint32(p * 10)
	out := make([]interval.Interval, n)
	for i := 0; i < n; i++ {
		lo := make(vclock.VC, n)
		hi := make(vclock.VC, n)
		for c := 0; c < n; c++ {
			lo[c] = base + 1
			hi[c] = base + 5
		}
		lo[i] = base + 2
		hi[i] = base + 6
		out[i] = interval.New(i, p, lo, hi)
	}
	return out
}

func TestSinkRepeatedDetection(t *testing.T) {
	const n, k = 5, 20
	s := NewSink(0, core.Config{N: n, Strict: true, KeepMembers: true}, []int{0, 1, 2, 3, 4})
	total := 0
	for p := 0; p < k; p++ {
		for _, iv := range pulse(n, p) {
			total += len(s.OnInterval(iv.Origin, iv))
		}
	}
	if total != k {
		t.Fatalf("detections = %d, want %d", total, k)
	}
	if got := len(s.Detections()); got != k {
		t.Fatalf("history = %d, want %d", got, k)
	}
	for i, d := range s.Detections() {
		if len(d.Set) != n {
			t.Fatalf("detection %d has %d intervals, want %d", i, len(d.Set), n)
		}
		if !interval.OverlapRefs(d.Set) {
			t.Fatalf("detection %d violates Eq. 2", i)
		}
	}
}

func TestSinkNoFalseDetection(t *testing.T) {
	// Strictly sequential intervals: P0 then P1 then P2 — Definitely never
	// holds.
	const n = 3
	s := NewSink(0, core.Config{N: n, Strict: true}, []int{0, 1, 2})
	ivs := []interval.Interval{
		interval.New(0, 0, vclock.Of(1, 0, 0), vclock.Of(2, 0, 0)),
		interval.New(1, 0, vclock.Of(3, 1, 0), vclock.Of(3, 2, 0)),
		interval.New(2, 0, vclock.Of(3, 3, 1), vclock.Of(3, 3, 2)),
	}
	for _, iv := range ivs {
		if dets := s.OnInterval(iv.Origin, iv); len(dets) != 0 {
			t.Fatalf("false detection: %v", dets)
		}
	}
}

func TestSinkRemoveProcess(t *testing.T) {
	const n = 3
	s := NewSink(0, core.Config{N: n, Strict: true}, []int{0, 1, 2})
	s.OnInterval(0, interval.New(0, 0, vclock.Of(2, 1, 0), vclock.Of(5, 4, 0)))
	s.OnInterval(1, interval.New(1, 0, vclock.Of(1, 2, 0), vclock.Of(4, 5, 0)))
	dets := s.RemoveProcess(2)
	if len(dets) != 1 {
		t.Fatalf("detections after removal = %d, want 1", len(dets))
	}
}

// TestSinkFigure2Sequence replays the paper's Figure 2 interval relations at
// the centralized sink: the first candidate set {x1,x2,x4,x5} fails, and the
// repeated-detection machinery recovers the later solution {x1,x3,x4,x5} —
// the same behaviour the hierarchical algorithm shows level by level.
func TestSinkFigure2Sequence(t *testing.T) {
	s := NewSink(2, core.Config{N: 4, Strict: true, KeepMembers: true}, []int{0, 1, 2, 3})
	x1 := interval.New(0, 0, vclock.Of(1, 0, 0, 0), vclock.Of(6, 5, 2, 2))
	x2 := interval.New(1, 0, vclock.Of(0, 1, 0, 0), vclock.Of(1, 3, 0, 0))
	x3 := interval.New(1, 1, vclock.Of(2, 4, 0, 0), vclock.Of(5, 7, 1, 1))
	x4 := interval.New(2, 0, vclock.Of(0, 0, 1, 0), vclock.Of(3, 4, 4, 1))
	x5 := interval.New(3, 0, vclock.Of(0, 0, 0, 1), vclock.Of(3, 4, 1, 4))

	var dets []core.Detection
	for _, iv := range []interval.Interval{x1, x2, x4, x5} {
		dets = append(dets, s.OnInterval(iv.Origin, iv)...)
	}
	if len(dets) != 0 {
		t.Fatalf("premature detection from {x1,x2,x4,x5}: %v", dets)
	}
	dets = s.OnInterval(1, x3)
	if len(dets) != 1 {
		t.Fatalf("detections after x3 = %d, want 1", len(dets))
	}
	for _, iv := range dets[0].Set {
		if iv.Origin == 1 && iv.Seq != 1 {
			t.Fatalf("solution used x2, want x3: %v", iv)
		}
	}
	if !interval.OverlapRefs(dets[0].Set) {
		t.Fatal("solution violates Eq. 2")
	}
}

func TestSinkValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"empty":   func() { NewSink(0, core.Config{N: 1}, nil) },
		"unknown": func() { NewSink(0, core.Config{N: 2}, []int{0, 1}).OnInterval(9, interval.Interval{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSinkWithoutOwnPredicate(t *testing.T) {
	// The sink can be a pure observer outside the conjunction.
	s := NewSink(9, core.Config{N: 10, Strict: true}, []int{0, 1})
	s.OnInterval(0, interval.New(0, 0, tenOf(2, 1), tenOf(5, 4)))
	dets := s.OnInterval(1, interval.New(1, 0, tenOf(1, 2), tenOf(4, 5)))
	if len(dets) != 1 {
		t.Fatalf("detections = %d, want 1", len(dets))
	}
	if cur, _ := s.QueueSizes(); cur != 0 {
		t.Fatalf("residual queue size = %d, want 0", cur)
	}
	if s.Stats().Detections != 1 {
		t.Fatalf("stats.Detections = %d", s.Stats().Detections)
	}
}

func tenOf(a, b uint32) vclock.VC {
	v := vclock.New(10)
	v[0], v[1] = a, b
	return v
}
