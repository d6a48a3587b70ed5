package vclock

import "fmt"

// Store is a struct-of-arrays arena for the clocks one detector node
// publishes: instead of one heap object per clock, clocks are carved
// sequentially out of large contiguous []uint32 chunks, all with the same
// stride n. Two things fall out of the flat layout:
//
//   - the fused comparison loops (CompareLess) walk contiguous memory — the
//     bounds of one aggregate sit in one cache-line run instead of two
//     scattered allocations, and a node's recent aggregates sit next to each
//     other, so the elimination loop's head-to-head checks stop taking a
//     cache miss per clock;
//
//   - allocation cost amortizes: one garbage-collected object per
//     chunkPairs aggregates instead of one (or, before CompactClone, two)
//     per aggregate. At p=1023 a bounds pair is 8 KiB; the per-detection
//     make+memmove of the clone-based path was the single largest line in
//     the scale-lane CPU profile.
//
// Clocks handed out by a Store are ordinary VCs: they stay valid forever
// (the chunk is garbage-collected only when every clock carved from it is
// unreachable) and must be treated as immutable once published, exactly like
// every other bound in the detector. A Store is not safe for concurrent use;
// each detector node owns one and allocates only on its owner goroutine.
type Store struct {
	n     int
	chunk []uint32
	off   int
	// Chunks grow geometrically from 2 pairs up to ~256 KiB (but never
	// fewer than 8 pairs): a store is per node, and most nodes publish a
	// handful of aggregates per run — a fixed large chunk would strand
	// hundreds of kilobytes per node at scale, while heavy publishers
	// converge on the amortized large-chunk rate after a few doublings.
	nextPairs, maxPairs int
	// arena, when set, supplies the chunks: many stores bump-allocate out
	// of shared slabs instead of each stranding its own chunk tails.
	arena *Arena

	// LastSpan is the owner's slot for the process-id span it published with
	// its latest bounds pair (interval.AggregateFlat keeps it): a node's
	// successive aggregates mostly cover the same processes, and the next
	// one shares the slice instead of building an equal one. The store
	// itself never reads it.
	LastSpan []int
}

// NewStore returns a store producing clocks for an n-process system.
func NewStore(n int) *Store {
	return NewStoreIn(n, nil)
}

// NewStoreIn returns a store that carves its chunks from the shared arena
// (nil behaves exactly like NewStore). The store itself remains
// single-goroutine; only the chunk supply is shared.
func NewStoreIn(n int, arena *Arena) *Store {
	if n <= 0 {
		panic(fmt.Sprintf("vclock: invalid system size %d", n))
	}
	maxPairs := (256 * 1024) / (8 * n) // 2 clocks × 4 bytes × n per pair
	if maxPairs < 8 {
		maxPairs = 8
	}
	return &Store{n: n, nextPairs: 2, maxPairs: maxPairs, arena: arena}
}

// N returns the clock size the store produces.
func (s *Store) N() int { return s.n }

// AllocPair carves one adjacent Lo/Hi clock pair — the backing layout of an
// aggregated interval's bounds. Both clocks are zeroed, full-capacity-capped
// slices into the current chunk, with Lo immediately followed by Hi.
func (s *Store) AllocPair() (lo, hi VC) {
	span := 2 * s.n
	if s.off+span > len(s.chunk) {
		if s.arena != nil {
			s.chunk = s.arena.carve(span * s.nextPairs)
		} else {
			s.chunk = make([]uint32, span*s.nextPairs)
		}
		s.off = 0
		if s.nextPairs *= 2; s.nextPairs > s.maxPairs {
			s.nextPairs = s.maxPairs
		}
	}
	base := s.chunk[s.off:]
	lo = VC(base[:s.n:s.n])
	hi = VC(base[s.n:span:span])
	s.off += span
	return lo, hi
}
