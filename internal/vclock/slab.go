package vclock

import "unsafe"

// Slab is one kind of a region: it carves exactly-sized, zeroed runs of T out
// of slabs that start at two runs and double up to slabMaxBytes. A carve is a
// bump of the slab's front; a refill allocates the next slab and strands what
// the last one had left, which is less than the run asked for. Only the
// current slab is ever part-used, so an owner shared by many carvers — a
// substrate worker, for every node it runs — strands one front for all of
// them.
//
// A carved run stays valid forever: the slab behind it is garbage-collected
// once every run carved from it is unreachable. A Slab is not safe for
// concurrent use; its owner carves from one goroutine at a time. The zero
// Slab is ready to use and allocates nothing until its first carve.
type Slab[T any] struct {
	free []T // the current slab's uncarved front
	size int // elements in the current slab, 0 before the first
}

// slabMaxBytes caps a slab at the largest size Go's allocator serves from its
// per-processor caches. Slabs start at two runs and stay small because a
// region a node owns alone (one no substrate worker hands it) strands its
// last slab's front for good; a worker's reaches the cap within a dozen
// refills.
const slabMaxBytes = 32 << 10

// Carve returns a zeroed run of n elements, full-capacity-capped so appending
// to it never spills into a neighbour. A run of more than half the largest
// slab that does not fit gets an allocation of its own instead of a refill,
// leaving the current slab's front to the runs that follow.
func (s *Slab[T]) Carve(n int) []T {
	if n > len(s.free) {
		largest := slabMaxBytes / int(unsafe.Sizeof(*new(T)))
		if n > largest/2 {
			return make([]T, n)
		}
		s.size = min(max(2*s.size, 2*n), largest)
		s.free = make([]T, s.size)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}
