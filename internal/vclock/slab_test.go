package vclock

import (
	"testing"
	"unsafe"
)

// TestSlabCarvesDisjointZeroedRuns has several stores carve through many slab
// refills of one slab in turn — the nodes a worker runs, drain after drain:
// every clock must come out zeroed, with the stride asked for, and owned by
// one store alone — each store stamps its clocks and finds every stamp intact
// at the end.
func TestSlabCarvesDisjointZeroedRuns(t *testing.T) {
	const stores, n, pairs = 8, 64, 4000 // 8 × 4000 × 512 B: ~500 slabs
	var words Slab[uint32]
	sts := make([]*Store, stores)
	for i := range sts {
		sts[i] = NewStore(n)
		sts[i].CarveFrom(&words)
	}
	clocks := make([][]VC, stores)
	for i := 0; i < pairs; i++ {
		for g, st := range sts {
			lo, hi := st.AllocPair()
			for _, c := range []VC{lo, hi} {
				if len(c) != n || cap(c) != n {
					t.Fatalf("clock has len %d cap %d, want %d", len(c), cap(c), n)
				}
				for k := range c {
					if c[k] != 0 {
						t.Fatalf("store %d: carved clock is not zeroed (component %d = %d)", g, k, c[k])
					}
					c[k] = uint32(g + 1)
				}
				clocks[g] = append(clocks[g], c)
			}
		}
	}
	for g := range clocks {
		for _, c := range clocks[g] {
			for k := range c {
				if c[k] != uint32(g+1) {
					t.Fatalf("store %d: clock overwritten (component %d = %d)", g, k, c[k])
				}
			}
		}
	}
}

// TestSlabGrowth pins the growth policy: slabs start at two runs and double
// to slabMaxBytes, and a run of more than half the largest slab that does not
// fit is allocated on its own, leaving the current slab's front where it was.
func TestSlabGrowth(t *testing.T) {
	type rec [144]byte // a detection record's size
	var s Slab[rec]
	elem := int(unsafe.Sizeof(rec{}))
	want := 2
	for refill := 0; refill < 10; refill++ {
		s.Carve(len(s.free))
		s.Carve(1) // the slab is used up: this one takes the next
		if s.size != want {
			t.Fatalf("refill %d: slab of %d records, want %d", refill, s.size, want)
		}
		want = min(2*want, slabMaxBytes/elem)
	}
	s.Carve(len(s.free) - 10)
	front := len(s.free)
	if big := s.Carve(slabMaxBytes/elem/2 + 1); len(big) != slabMaxBytes/elem/2+1 || len(s.free) != front {
		t.Fatalf("a run past half the largest slab came from the slab (front %d → %d)", front, len(s.free))
	}
	if run := s.Carve(3); len(run) != 3 || cap(run) != 3 {
		t.Fatalf("run has len %d cap %d, want 3 and 3", len(run), cap(run))
	}
}
