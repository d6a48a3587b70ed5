package interval_test

import (
	"testing"

	"hierdet/internal/interval"
	"hierdet/internal/procsim"
	"hierdet/internal/vclock"
)

// TestSpanLessDecides pins what SpanLess leaves to the full scan: an empty
// span, clocks of different sizes, a span whose components are all equal and
// a span naming a component the clocks lack; and that a refutation is decided
// whatever the other components say.
func TestSpanLessDecides(t *testing.T) {
	// vc's arguments are component, value, component, value, …
	const n = 16
	vc := func(kv ...uint32) vclock.VC {
		v := make(vclock.VC, n)
		for i := 0; i < len(kv); i += 2 {
			v[kv[i]] = kv[i+1]
		}
		return v
	}
	for _, tc := range []struct {
		name          string
		a, b          vclock.VC
		span          []int
		less, decided bool
	}{
		{"strict on the span", vc(3, 1), vc(3, 2), []int{3}, true, true},
		{"refuted on the span", vc(3, 2, 9, 7), vc(3, 1, 9, 9), []int{3}, false, true},
		{"refuted past a strict component", vc(3, 1, 5, 4), vc(3, 2, 5, 3), []int{3, 5}, false, true},
		{"equal on the span", vc(3, 2), vc(3, 2, 4, 1), []int{3}, false, false},
		{"empty span", vc(3, 1), vc(3, 2), nil, false, false},
		{"wide span", vc(1, 1, 2, 1, 3, 1), vc(1, 1, 2, 2, 3, 1), []int{1, 2, 3}, true, true},
		{"span id past the clocks", vc(3, 1), vc(3, 2), []int{3, n + 5}, false, false},
		{"negative span id", vc(3, 1), vc(3, 2), []int{-1}, false, false},
		{"sizes differ", vc(3, 1), make(vclock.VC, n+1), []int{3}, false, false},
	} {
		less, decided := interval.SpanLess(tc.a, tc.b, tc.span)
		if less != tc.less || decided != tc.decided {
			t.Errorf("%s: SpanLess = (%v, %v), want (%v, %v)", tc.name, less, decided, tc.less, tc.decided)
		}
	}
}

// FuzzSpanVerdictMatchesFullScan runs a Fidge–Mattern execution the input
// schedules (procsim: internal events, sends, receives and predicate flips
// over 2–24 processes), aggregates random sets of its intervals, and requires
// every verdict SpanLess decides to equal the full scan's: min(x) < max(y)
// for every ordered pair, and max(x) < max(y) for every base x.
func FuzzSpanVerdictMatchesFullScan(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{8, 0x41, 0x82, 0xc3, 0x04, 0x45, 0x86, 0xc7, 0x08, 0x49, 0x8a, 0xcb, 0x0c, 0x4d, 0x8e, 0xcf, 0x10})
	f.Add([]byte{16, 255, 254, 253, 3, 3, 3, 3, 129, 129, 129, 64, 64, 64, 200, 100, 50, 25, 12, 6, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0])%23
		var ivs []interval.Interval
		procs := make([]*procsim.Process, n)
		for i := range procs {
			procs[i] = procsim.New(i, n, func(iv interval.Interval) { ivs = append(ivs, iv) })
		}
		var inflight []vclock.VC
		var to []int
		for _, b := range data[1:] {
			p := procs[int(b)%n]
			switch (int(b) / n) % 4 {
			case 0:
				p.SetPredicate(!p.Predicate())
				p.Internal()
			case 1:
				inflight = append(inflight, p.PrepareSend())
				to = append(to, (int(b)/4+1)%n)
			case 2:
				if k := len(inflight); k > 0 {
					i := int(b) % k
					procs[to[i]].Receive(inflight[i])
					inflight[i], to[i] = inflight[k-1], to[k-1]
					inflight, to = inflight[:k-1], to[:k-1]
				}
			default:
				p.Internal()
			}
		}
		for _, p := range procs {
			p.Finish()
		}
		if len(ivs) > 48 {
			ivs = ivs[:48]
		}
		// Aggregates of sets with distinct origins, chosen by the input.
		all := append([]interval.Interval(nil), ivs...)
		for i, b := range data[1:] {
			var set []interval.Interval
			seen := make(map[int]bool)
			for j := i; j < len(ivs) && len(set) < 1+int(b)%4; j += 1 + int(b)%3 {
				if !seen[ivs[j].Origin] {
					seen[ivs[j].Origin] = true
					set = append(set, ivs[j])
				}
			}
			if len(set) > 1 {
				all = append(all, interval.Aggregate(set, 0, i, false))
			}
			if len(all) >= 96 {
				break
			}
		}
		for _, x := range all {
			for _, y := range all {
				if less, ok := interval.SpanLess(x.Lo, y.Hi, x.Span); ok && less != x.Lo.Less(y.Hi) {
					t.Fatalf("min(%v) < max(%v): span says %v, the full scan %v", x, y, less, !less)
				}
				if len(x.Span) != 1 {
					continue
				}
				if less, ok := interval.SpanLess(x.Hi, y.Hi, x.Span); ok && less != x.Hi.Less(y.Hi) {
					t.Fatalf("max(%v) < max(%v): span says %v, the full scan %v", x, y, less, !less)
				}
			}
		}
	})
}
