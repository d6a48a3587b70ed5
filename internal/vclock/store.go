package vclock

import "fmt"

// Store is a struct-of-arrays allocator for the clocks one detector node
// publishes: instead of one heap object per clock, each Lo/Hi bounds pair is
// carved as 2n adjacent words out of a Slab of clock words. Two things fall
// out of the flat layout:
//
//   - the fused comparison loops (CompareLess) walk contiguous memory — the
//     bounds of one aggregate sit in one cache-line run instead of two
//     scattered allocations, and a node's recent aggregates sit next to each
//     other, so the elimination loop's head-to-head checks stop taking a
//     cache miss per clock;
//
//   - allocation cost amortizes: one garbage-collected object per slab
//     instead of one (or, before CompactClone, two) per aggregate. At p=1023
//     a bounds pair is 8 KiB; the per-detection make+memmove of the
//     clone-based path was the single largest line in the scale-lane CPU
//     profile.
//
// The words come from whichever slab the store is pointed at (CarveFrom) —
// in the live runtime the region of the worker running the node, so every
// node a worker runs carves from one slab and a store strands nothing of its
// own — or, never pointed anywhere, from a slab the store makes itself.
//
// Clocks handed out by a Store are ordinary VCs: they stay valid forever
// (the slab is garbage-collected only when every clock carved from it is
// unreachable) and must be treated as immutable once published, exactly like
// every other bound in the detector. A Store is not safe for concurrent use;
// each detector node owns one and allocates only on its owner goroutine.
type Store struct {
	n     int
	words *Slab[uint32] // nil until the first pair, or CarveFrom

	// LastSpan is the owner's slot for the process-id span it published with
	// its latest bounds pair (interval.AggregateRefs keeps it): a node's
	// successive aggregates mostly cover the same processes, and the next
	// one shares the slice instead of building an equal one. The store
	// itself never reads it.
	LastSpan []int
}

// NewStore returns a store producing clocks for an n-process system.
func NewStore(n int) *Store {
	if n <= 0 {
		panic(fmt.Sprintf("vclock: invalid system size %d", n))
	}
	return &Store{n: n}
}

// N returns the clock size the store produces.
func (s *Store) N() int { return s.n }

// CarveFrom points the store at words: the pairs that follow are carved from
// it. Pairs already handed out are unaffected.
func (s *Store) CarveFrom(words *Slab[uint32]) { s.words = words }

// AllocPair carves one adjacent Lo/Hi clock pair — the backing layout of an
// aggregated interval's bounds. Both clocks are zeroed, full-capacity-capped
// slices, with Lo immediately followed by Hi.
func (s *Store) AllocPair() (lo, hi VC) {
	if s.words == nil {
		s.words = new(Slab[uint32])
	}
	base := s.words.Carve(2 * s.n)
	return VC(base[:s.n:s.n]), VC(base[s.n:])
}
