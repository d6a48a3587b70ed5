package repair

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// beats feeds a link beats spaced by gaps, starting from a baseline beat at
// start, and returns the time of the last one.
func beats(l *Link, start int64, gaps ...int64) int64 {
	l.Beat(start)
	for _, g := range gaps {
		start += g
		l.Beat(start)
	}
	return start
}

func steady(n int, gap int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = gap
	}
	return out
}

// TestLinkHandComputed pins the estimator's arithmetic on a 1000 ns beat:
// every value below was worked by hand from mean += err/8 (not below the
// period), dev += (|err|-dev)/4 (integer division truncating toward zero) and
// timeout = 2·mean + 4·dev.
func TestLinkHandComputed(t *testing.T) {
	const every = 1000
	type want struct{ timeout, slack int64 }
	for _, tc := range []struct {
		name string
		gaps []int64
		want want
	}{
		{"fresh: eight beats", nil, want{8000, 7000}},
		{"one exact sample", []int64{1000}, want{6500, 5500}},        // dev 1500 → 1125
		{"two exact samples", []int64{1000, 1000}, want{5376, 4376}}, // dev → 844
		{"four exact samples", steady(4, 1000), want{3900, 2900}},    // dev → 633 → 475
		{"eight exact samples", steady(8, 1000), want{2604, 1604}},   // dev 151
		{"sixteen exact samples: two beats", steady(16, 1000), want{2064, 1064}},
		// A skipped beacon on a settled link: err 1000, mean 1125, dev 16 → 262.
		{"settled, then a two-beat sample", append(steady(16, 1000), 2000), want{3298, 2173}},
		// A sample longer than the fresh timeout: err 8000, mean 2000, dev 1500 → 3125.
		{"fresh, then a nine-beat sample", []int64{9000}, want{16500, 14500}},
		// An early beat cannot pull the mean below the promised period, and
		// raises the deviation: err −600, mean 925 → 1000, dev 16 → 162.
		{"settled, then a 0.4-beat sample", append(steady(16, 1000), 400), want{2648, 1648}},
		// A sender held up for nine beats catches up with eight at once: the
		// long sample makes mean 2000, dev 2012; eight 1 ns samples bring the
		// mean back to the period, no lower, and leave the deviation wide.
		{"settled, a nine-beat gap, a burst of eight", append(append(steady(16, 1000), 9000), steady(8, 1)...), want{7000, 6000}},
	} {
		l := NewLink(every, 1)
		last := beats(&l, 5000, tc.gaps...)
		if got := (want{l.Timeout(), l.Slack()}); got != tc.want {
			t.Errorf("%s: timeout, slack = %+v, want %+v", tc.name, got, tc.want)
		}
		if got := l.Deadline(); got != last+tc.want.timeout {
			t.Errorf("%s: deadline = %d, want last beat %d + timeout %d", tc.name, got, last, tc.want.timeout)
		}
	}
}

// TestLinkConverges: from the eight-beat start a steady cadence earns a
// timeout of about two beats within 16 samples, at any beat period.
func TestLinkConverges(t *testing.T) {
	for _, every := range []time.Duration{200 * time.Microsecond, 5 * time.Millisecond, time.Second} {
		l := NewLink(every, 1)
		if got := l.Timeout(); got != 8*int64(every) {
			t.Fatalf("every %v: fresh timeout %d, want eight beats", every, got)
		}
		beats(&l, 1, steady(16, int64(every))...)
		if got := float64(l.Timeout()) / float64(every); got < 2 || got > 2.1 {
			t.Errorf("every %v: timeout after 16 steady samples = %.3f beats, want within [2, 2.1]", every, got)
		}
	}
}

// TestLinkJitterWidensBeforeItFires: a settled link (timeout 2064) meets a
// burst of beats arriving 0.6 beats late and early by turns. No gap in the
// burst reaches the timeout in force when it ends — the first late beat has
// already widened it — and after the burst the link tolerates a 2.5-beat gap
// that would have fired before it.
func TestLinkJitterWidensBeforeItFires(t *testing.T) {
	l := NewLink(1000, 1)
	at := beats(&l, 5000, steady(16, 1000)...)
	settled := l.Timeout()
	wantTimeouts := []int64{2798, 3160, 3618, 3776, 5206} // hand-computed, as above
	for i, gap := range []int64{1600, 400, 1600, 400, 2500} {
		at += gap
		if at > l.Deadline() {
			t.Fatalf("gap %d (%d ns) outlasted the timeout %d in force", i, gap, l.Timeout())
		}
		l.Beat(at)
		if got := l.Timeout(); got != wantTimeouts[i] {
			t.Errorf("timeout after gap %d = %d, want %d", i, got, wantTimeouts[i])
		}
	}
	if 2500 <= settled {
		t.Fatalf("the 2.5-beat gap would not have fired on the settled link (timeout %d): the test shows nothing", settled)
	}
}

// TestLinkLivenessWithoutRhythm: Alive moves the deadline and nothing else;
// neither it nor a beacon read twice is a sample; time does not run backward.
func TestLinkLivenessWithoutRhythm(t *testing.T) {
	l := NewLink(1000, 1)
	at := beats(&l, 5000, steady(4, 1000)...)
	timeout := l.Timeout()
	l.Alive(at + 300)
	l.Alive(at + 100) // older than what is known: ignored
	l.Beat(at)        // the same beacon read again
	l.Beat(at - 1000) // an older one
	if l.Timeout() != timeout {
		t.Errorf("timeout moved from %d to %d without a new beat", timeout, l.Timeout())
	}
	if got, want := l.Deadline(), at+300+timeout; got != want {
		t.Errorf("deadline = %d, want %d (last heard + timeout)", got, want)
	}
	// The next beat is sampled against the previous beat, not against Alive.
	l.Beat(at + 1000)
	if l.Timeout() >= timeout {
		t.Errorf("an exact sample after Alive did not tighten the timeout (%d → %d)", timeout, l.Timeout())
	}
}

// TestLinkProperties drives random sample sequences — steady, jittery, with
// skipped beats and bursts — and checks after every sample that
//   - the timeout is never below two promised beats, however short the
//     samples (so never below twice the smallest sample seen either, unless
//     every sample was longer than the period: the mean starts at the
//     period and approaches long samples from below), and
//   - a sample that outlasted the timeout in force never shortens it.
func TestLinkProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for run := 0; run < 2000; run++ {
		every := int64(1 + rng.Intn(10_000_000))
		l := NewLink(time.Duration(every), 1)
		at := int64(1 + rng.Intn(1000))
		l.Beat(at)
		smallest := every
		for i := 0; i < 200; i++ {
			var gap int64
			switch rng.Intn(4) {
			case 0:
				gap = every
			case 1:
				gap = 1 + rng.Int63n(2*every)
			case 2:
				gap = every * int64(1+rng.Intn(12))
			default:
				gap = 1 + rng.Int63n(every/8+1)
			}
			smallest = min(smallest, gap)
			before := l.Timeout()
			at += gap
			l.Beat(at)
			if got := l.Timeout(); got < 2*every || got < 2*smallest {
				t.Fatalf("run %d sample %d: timeout %d below two beats of %d (smallest sample %d)", run, i, got, every, smallest)
			}
			if got := l.Timeout(); gap > before && got < before {
				t.Fatalf("run %d sample %d: a %d ns sample past the timeout %d shortened it to %d", run, i, gap, before, got)
			}
		}
	}
}

// TestLinksKeepOrderAndEstimates: the watch list stays ascending whatever the
// order links come and go in, an estimate survives its neighbours' coming and
// going, a re-added peer starts fresh, and without a beat period nobody is
// watched.
func TestLinksKeepOrderAndEstimates(t *testing.T) {
	var ls Links
	for _, p := range []int{5, 2, 9, 0} {
		ls.Add(p, 1000, 1)
	}
	beats(&ls.Of(5).Link, 5000, steady(16, 1000)...)
	settled := ls.Of(5).Timeout()
	ls.Drop(2)
	ls.Drop(7) // never watched
	ls.Add(3, 1000, 1)
	var got []int
	for _, w := range ls {
		got = append(got, w.Peer)
	}
	if want := []int{0, 3, 5, 9}; !slices.Equal(got, want) {
		t.Fatalf("watched %v, want %v", got, want)
	}
	if ls.Of(5).Timeout() != settled || settled != 2064 {
		t.Errorf("peer 5's estimate moved with its neighbours: timeout %d, was %d", ls.Of(5).Timeout(), settled)
	}
	if ls.Of(2) != nil {
		t.Error("a dropped peer is still watched")
	}
	ls.Add(5, 1000, 77)
	if got := ls.Of(5); got.Timeout() != 8000 || got.Deadline() != 8077 || len(ls) != 4 {
		t.Errorf("re-added peer: timeout %d deadline %d among %d links, want a fresh link's 8000, 8077 among 4", got.Timeout(), got.Deadline(), len(ls))
	}
	var off Links
	off.Add(1, 0, 1)
	if len(off) != 0 {
		t.Error("a peer is watched without a beat period")
	}
}
