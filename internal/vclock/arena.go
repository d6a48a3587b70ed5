package vclock

import "sync"

// Arena is a shared chunk source many Stores can draw from. A Store used
// alone makes its own chunks and strands whatever tail its final chunk never
// carves; with hundreds of tenants × hundreds of nodes each owning a Store,
// those tails add up to real memory. An Arena centralizes the chunk supply:
// Stores carve their (geometrically growing) chunks out of large shared
// slabs under one mutex, so the stranded tail exists once per slab instead
// of once per store.
//
// The mutex guards only the slab bump pointer — a replacement slab is
// allocated outside it — and the carved chunks themselves are handed off
// exclusively to one Store, which stays single-goroutine exactly as before.
// Clocks carved from a slab keep the slab alive until every one of them is
// unreachable, so an Arena is best shared by stores with similar lifetimes
// (the tenant plane's clusters qualify: tenants come and go, but the plane
// outlives them all and slabs recycle through GC).
type Arena struct {
	mu        sync.Mutex
	slab      []uint32
	off       int
	refilling bool // a carver is allocating the next slab, outside mu
}

// arenaSlabWords is the shared slab size: 256 KiB of uint32s, matching the
// largest chunk a solo Store grows to.
const arenaSlabWords = (256 * 1024) / 4

// NewArena returns an empty shared chunk source.
func NewArena() *Arena { return &Arena{} }

// carve hands out a zeroed chunk of the given word count. Requests near (or
// beyond) the slab size get their own allocation — splitting them across
// slabs would defeat the contiguity the flat clock layout exists for.
func (a *Arena) carve(words int) []uint32 {
	if words >= arenaSlabWords/2 {
		return make([]uint32, words)
	}
	a.mu.Lock()
	if a.off+words > len(a.slab) {
		// Allocating and zeroing 256 KiB is the slow part; done under the
		// mutex it stalled every other worker's carve (three quarters of the
		// p ≥ 511 scale lanes' loss to a private arena). So the mutex is
		// released for it, and a carver that arrives meanwhile neither waits
		// nor allocates a second slab to throw away: it takes a chunk of its
		// own, exactly the size asked for.
		if a.refilling {
			a.mu.Unlock()
			return make([]uint32, words)
		}
		a.refilling = true
		a.mu.Unlock()
		fresh := make([]uint32, arenaSlabWords)
		a.mu.Lock()
		a.slab, a.off, a.refilling = fresh, 0, false
	}
	out := a.slab[a.off : a.off+words : a.off+words]
	a.off += words
	a.mu.Unlock()
	return out
}
