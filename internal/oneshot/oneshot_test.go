package oneshot

import (
	"testing"

	"hierdet/internal/interval"
	"hierdet/internal/vclock"
)

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

func TestDefinitelyDetectsFirstOccurrence(t *testing.T) {
	d := NewDefinitely([]int{0, 1, 2})
	fired := 0
	for _, iv := range pulse(3, 0) {
		if d.OnInterval(iv.Origin, iv) {
			fired++
		}
	}
	if fired != 1 || !d.Done() {
		t.Fatalf("fired = %d, done = %v", fired, d.Done())
	}
	if sol := d.Solution(); len(sol) != 3 || !interval.OverlapAll(sol) {
		t.Fatalf("bad solution: %v", sol)
	}
}

// TestOneShotMissesLaterOccurrences demonstrates the limitation motivating
// the paper (§I): the one-shot detector reports the first satisfaction and
// then ignores the k−1 that follow.
func TestOneShotMissesLaterOccurrences(t *testing.T) {
	const k = 5
	d := NewDefinitely([]int{0, 1, 2})
	fired := 0
	for p := 0; p < k; p++ {
		for _, iv := range pulse(3, p) {
			if d.OnInterval(iv.Origin, iv) {
				fired++
			}
		}
	}
	if fired != 1 {
		t.Fatalf("one-shot fired %d times, want exactly 1 (k = %d occurrences)", fired, k)
	}
}

func TestDefinitelyElimination(t *testing.T) {
	d := NewDefinitely([]int{0, 1})
	// x0 wholly precedes x1: no Definitely.
	if d.OnInterval(0, interval.New(0, 0, vclock.Of(1, 0), vclock.Of(2, 0))) {
		t.Fatal("premature detection")
	}
	if d.OnInterval(1, interval.New(1, 0, vclock.Of(3, 1), vclock.Of(3, 2))) {
		t.Fatal("false detection of sequential intervals")
	}
	// A later interval at P0 that interleaves with a second at P1.
	if d.OnInterval(0, interval.New(0, 1, vclock.Of(4, 3), vclock.Of(6, 5))) {
		t.Fatal("premature detection")
	}
	if !d.OnInterval(1, interval.New(1, 1, vclock.Of(5, 4), vclock.Of(7, 6))) {
		t.Fatal("missed genuine Definitely")
	}
}

func TestPossiblyDetection(t *testing.T) {
	d := NewPossibly([]int{0, 1})
	// Concurrent intervals: Possibly holds (they can be observed together).
	if d.OnInterval(0, interval.New(0, 0, vclock.Of(1, 0), vclock.Of(2, 0))) {
		t.Fatal("premature")
	}
	if !d.OnInterval(1, interval.New(1, 0, vclock.Of(0, 1), vclock.Of(0, 2))) {
		t.Fatal("missed Possibly for concurrent intervals")
	}
	sol := d.Solution()
	if len(sol) != 2 {
		t.Fatalf("solution size = %d", len(sol))
	}
	// Eq. 1: no member wholly precedes another.
	for i := range sol {
		for j := range sol {
			if i != j && sol[i].Hi.Less(sol[j].Lo) {
				t.Fatal("witness violates Eq. 1")
			}
		}
	}
}

func TestPossiblyEliminatesPrecedingInterval(t *testing.T) {
	d := NewPossibly([]int{0, 1})
	// x0's predicate fell false at [3 0], and P1's interval begins at [3 1]
	// — causally after the falsification (P1 heard of 3 events of P0), so
	// they can never coexist: x0 must be eliminated, no detection yet.
	x0 := interval.New(0, 0, vclock.Of(1, 0), vclock.Of(2, 0))
	x0.SetTerm(vclock.Of(3, 0))
	d.OnInterval(0, x0)
	if d.OnInterval(1, interval.New(1, 0, vclock.Of(3, 1), vclock.Of(3, 2))) {
		t.Fatal("false Possibly for sequential intervals")
	}
	// A fresh x0 concurrent with x1's still-queued interval completes it.
	if !d.OnInterval(0, interval.New(0, 1, vclock.Of(4, 0), vclock.Of(5, 0))) {
		t.Fatal("missed Possibly")
	}
}

// TestPossiblyStatePersistsPastLastTrueEvent pins the boundary case that
// distinguishes Term from Hi: P0's last true event *sends* a message that
// P1 receives at its first true event. max(x0) ≺ min(x1), yet the two truths
// coexist (P0's state stays true until its next event), so Possibly holds.
func TestPossiblyStatePersistsPastLastTrueEvent(t *testing.T) {
	d := NewPossibly([]int{0, 1})
	x0 := interval.New(0, 0, vclock.Of(1, 0), vclock.Of(2, 0)) // event 2 = send
	x0.SetTerm(vclock.Of(3, 2))                                // falsified much later
	d.OnInterval(0, x0)
	// P1 true at the receive of that send: min = [2 1].
	x1 := interval.New(1, 0, vclock.Of(2, 1), vclock.Of(2, 2))
	x1.SetTerm(vclock.Of(2, 3))
	if !d.OnInterval(1, x1) {
		t.Fatal("missed Possibly: state persists past the last true event")
	}
}

// TestPossiblyOpenIntervalNeverPrecedes: an interval with no falsifying
// event (predicate true through end of trace) can coexist with everything
// later.
func TestPossiblyOpenIntervalNeverPrecedes(t *testing.T) {
	d := NewPossibly([]int{0, 1})
	open := interval.New(0, 0, vclock.Of(1, 0), vclock.Of(1, 0)) // Term nil
	d.OnInterval(0, open)
	late := interval.New(1, 0, vclock.Of(1, 5), vclock.Of(1, 6))
	if !d.OnInterval(1, late) {
		t.Fatal("open interval should coexist with any later interval")
	}
}

// TestPossiblyWeakerThanDefinitely: Definitely(Φ) ⇒ Possibly(Φ), and there
// are executions where Possibly holds but Definitely does not (concurrent
// but non-overlapping-in-the-Eq.2-sense intervals).
func TestPossiblyWeakerThanDefinitely(t *testing.T) {
	// Two concurrent intervals with incomparable bounds in both directions:
	// Possibly holds; Definitely needs min(x) < max(y) strictly both ways.
	x := interval.New(0, 0, vclock.Of(1, 0), vclock.Of(2, 0))
	y := interval.New(1, 0, vclock.Of(0, 1), vclock.Of(0, 2))

	dp := NewPossibly([]int{0, 1})
	dp.OnInterval(0, x)
	if !dp.OnInterval(1, y) {
		t.Fatal("Possibly should hold")
	}
	dd := NewDefinitely([]int{0, 1})
	dd.OnInterval(0, x)
	if dd.OnInterval(1, y) {
		t.Fatal("Definitely should not hold for fully concurrent intervals")
	}
}

func TestOneShotValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"def-empty":   func() { NewDefinitely(nil) },
		"def-dup":     func() { NewDefinitely([]int{1, 1}) },
		"def-unknown": func() { NewDefinitely([]int{0}).OnInterval(5, interval.Interval{}) },
		"pos-empty":   func() { NewPossibly(nil) },
		"pos-dup":     func() { NewPossibly([]int{2, 2}) },
		"pos-unknown": func() { NewPossibly([]int{0}).OnInterval(5, interval.Interval{}) },
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

func TestDoneDetectorsIgnoreInput(t *testing.T) {
	d := NewDefinitely([]int{0})
	if !d.OnInterval(0, interval.New(0, 0, vclock.Of(1), vclock.Of(2))) {
		t.Fatal("singleton conjunction should detect immediately")
	}
	if d.OnInterval(0, interval.New(0, 1, vclock.Of(3), vclock.Of(4))) {
		t.Fatal("done detector fired again")
	}
	p := NewPossibly([]int{0})
	if !p.OnInterval(0, interval.New(0, 0, vclock.Of(1), vclock.Of(2))) {
		t.Fatal("singleton Possibly should detect immediately")
	}
	if p.OnInterval(0, interval.New(0, 1, vclock.Of(3), vclock.Of(4))) {
		t.Fatal("done Possibly fired again")
	}
}
