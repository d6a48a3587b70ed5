package interval

// Ring is the per-source FIFO each detector node maintains — Q_0 for the
// node's own intervals and Q_1…Q_l for its children. Intervals from one
// source arrive in succession order (max(x) < min(succ(x))), so the head is
// always the earliest interval from that source still eligible for a
// solution set. The detector's rings hold *Interval: every interval has one
// home (a detection record, or the region slot its node copied it into when
// it arrived) and a slot is a pointer to it. Queue is the ring of values.
//
// The implementation is a growable ring buffer: detection repeatedly
// enqueues at the tail and deletes at the head, and a ring avoids the
// re-slicing churn of a plain slice queue. Capacities are powers of two so
// every index computation is a bitmask rather than a modulo — the ring is hit
// four times per interval on the steady-state hot path (enqueue, head, delete,
// and Eq. 9's successor peek), and an integer division there is measurable at
// scale. A Ring is not safe for concurrent use; each detector node owns its
// queues and serializes access.
type Ring[T any] struct {
	buf        []T
	mask       int // len(buf)-1; valid because len(buf) is a power of two
	head, size int

	// HighWater tracks the maximum number of intervals ever resident, for
	// the space-complexity experiments.
	HighWater int
}

// Queue is a ring of Interval values.
type Queue = Ring[Interval]

// NewQueue returns an empty queue.
func NewQueue() *Queue { return &Queue{} }

// Len returns the number of intervals currently enqueued.
func (q *Ring[T]) Len() int { return q.size }

// Empty reports whether the queue holds no intervals.
func (q *Ring[T]) Empty() bool { return q.size == 0 }

// Enqueue appends x at the tail.
func (q *Ring[T]) Enqueue(x T) {
	if q.size == len(q.buf) {
		q.grow()
	}
	i := (q.head + q.size) & q.mask
	q.buf[i] = x
	q.size++
	if q.size > q.HighWater {
		q.HighWater = q.size
	}
}

// Head returns the element at the front. It panics on an empty queue;
// callers always guard with Empty, mirroring Algorithm 1's explicit
// "if Q_a is not empty" tests.
func (q *Ring[T]) Head() T {
	if q.size == 0 {
		panic("interval: Head of empty queue")
	}
	return q.buf[q.head]
}

// DeleteHead removes the element at the front. It panics on an empty queue.
func (q *Ring[T]) DeleteHead() T {
	if q.size == 0 {
		panic("interval: DeleteHead of empty queue")
	}
	x := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release references for GC
	q.head = (q.head + 1) & q.mask
	q.size--
	return x
}

// At returns the i-th element from the head (At(0) == Head()). It panics
// when i is out of range. The exact pruning rule (Eq. 9) uses At(1) to read
// a head's already-arrived successor.
func (q *Ring[T]) At(i int) T {
	if i < 0 || i >= q.size {
		panic("interval: Queue.At out of range")
	}
	return q.buf[(q.head+i)&q.mask]
}

// Snapshot returns the queued elements in order, head first. Used by tests
// and diagnostics only.
func (q *Ring[T]) Snapshot() []T {
	out := make([]T, q.size)
	for i := 0; i < q.size; i++ {
		out[i] = q.buf[(q.head+i)&q.mask]
	}
	return out
}

// grow doubles the ring (minimum 4 slots), keeping the capacity a power of
// two so mask indexing stays valid.
func (q *Ring[T]) grow() {
	next := make([]T, max(4, 2*len(q.buf)))
	for i := 0; i < q.size; i++ {
		j := (q.head + i) & q.mask
		next[i] = q.buf[j]
	}
	q.buf = next
	q.mask = len(next) - 1
	q.head = 0
}
