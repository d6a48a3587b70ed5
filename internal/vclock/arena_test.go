package vclock

import (
	"sync"
	"testing"
)

// TestArenaConcurrentCarve has several stores carve through many slab refills
// of one arena at once (refills allocate outside the arena's mutex, so two can
// race): every clock must come out zeroed, with the stride asked for, and
// owned by one store alone — each store stamps its clocks and finds every
// stamp intact at the end. Run under -race it also checks the hand-off.
func TestArenaConcurrentCarve(t *testing.T) {
	const stores, n, pairs = 8, 64, 4000 // 8 × 4000 × 512 B: ~60 slabs
	a := NewArena()
	var wg sync.WaitGroup
	for g := 0; g < stores; g++ {
		wg.Add(1)
		go func(stamp uint32) {
			defer wg.Done()
			st := NewStoreIn(n, a)
			clocks := make([]VC, 0, 2*pairs)
			for i := 0; i < pairs; i++ {
				lo, hi := st.AllocPair()
				for _, c := range []VC{lo, hi} {
					if len(c) != n || cap(c) != n {
						t.Errorf("clock has len %d cap %d, want %d", len(c), cap(c), n)
						return
					}
					for k := range c {
						if c[k] != 0 {
							t.Errorf("store %d: carved clock is not zeroed (component %d = %d)", stamp, k, c[k])
							return
						}
						c[k] = stamp
					}
					clocks = append(clocks, c)
				}
			}
			for _, c := range clocks {
				for k := range c {
					if c[k] != stamp {
						t.Errorf("store %d: clock overwritten (component %d = %d)", stamp, k, c[k])
						return
					}
				}
			}
		}(uint32(g + 1))
	}
	wg.Wait()
}
