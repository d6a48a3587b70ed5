package interval

// Queue is the per-source FIFO of intervals each detector node maintains —
// Q_0 for the node's own intervals and Q_1…Q_l for its children. Intervals
// from one source arrive in succession order (max(x) < min(succ(x))), so the
// head is always the earliest interval from that source still eligible for a
// solution set.
//
// The implementation is a growable ring buffer: detection repeatedly
// enqueues at the tail and deletes at the head, and a ring avoids the
// re-slicing churn of a plain slice queue. Capacities are powers of two so
// every index computation is a bitmask rather than a modulo — the ring is hit
// four times per interval on the steady-state hot path (enqueue, head, delete,
// and Eq. 9's successor peek), and an integer division there is measurable at
// scale. Queue is not safe for concurrent use; each detector node owns its
// queues and serializes access.
type Queue struct {
	buf        []Interval
	mask       int // len(buf)-1; valid because len(buf) is a power of two
	head, size int

	// HighWater tracks the maximum number of intervals ever resident, for
	// the space-complexity experiments.
	HighWater int

	// gen counts mutations (enqueues and deletions). The parallel detection
	// engine snapshots it around every fanned-out comparison round and panics
	// if it moved: queues are single-writer by contract, and the epoch guard
	// turns a violation of that contract into an immediate, attributable
	// failure instead of a silent data race. Reads do not bump it.
	gen uint64
}

// NewQueue returns an empty queue.
func NewQueue() *Queue { return &Queue{} }

// Len returns the number of intervals currently enqueued.
func (q *Queue) Len() int { return q.size }

// Empty reports whether the queue holds no intervals.
func (q *Queue) Empty() bool { return q.size == 0 }

// Gen returns the queue's mutation epoch: it advances on every enqueue and
// deletion and is stable across reads, so two equal observations bracket a
// mutation-free window.
func (q *Queue) Gen() uint64 { return q.gen }

// Enqueue appends x at the tail.
func (q *Queue) Enqueue(x Interval) {
	q.gen++
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

// Head returns the interval at the front. It panics on an empty queue;
// callers always guard with Empty, mirroring Algorithm 1's explicit
// "if Q_a is not empty" tests.
func (q *Queue) Head() Interval {
	if q.size == 0 {
		panic("interval: Head of empty queue")
	}
	return q.buf[q.head]
}

// HeadRef returns a pointer to the interval at the front, valid only until
// the queue's next mutation. The parallel engine's rounds read heads through
// it instead of copying the whole Interval out on every head-to-head check;
// no queue mutates inside a round, and the epoch guard (Gen) polices that
// where a round leaves the owner's goroutine. It panics on an empty queue.
func (q *Queue) HeadRef() *Interval {
	if q.size == 0 {
		panic("interval: HeadRef of empty queue")
	}
	return &q.buf[q.head]
}

// DeleteHead removes the interval at the front. It panics on an empty queue.
func (q *Queue) DeleteHead() Interval {
	if q.size == 0 {
		panic("interval: DeleteHead of empty queue")
	}
	q.gen++
	x := q.buf[q.head]
	q.buf[q.head] = Interval{} // release references for GC
	q.head = (q.head + 1) & q.mask
	q.size--
	return x
}

// At returns the i-th interval from the head (At(0) == Head()). It panics
// when i is out of range. The exact pruning rule (Eq. 9) uses At(1) to read
// a head's already-arrived successor.
func (q *Queue) At(i int) Interval {
	if i < 0 || i >= q.size {
		panic("interval: Queue.At out of range")
	}
	return q.buf[(q.head+i)&q.mask]
}

// Snapshot returns the queued intervals in order, head first. Used by tests
// and diagnostics only.
func (q *Queue) Snapshot() []Interval {
	out := make([]Interval, q.size)
	for i := 0; i < q.size; i++ {
		out[i] = q.buf[(q.head+i)&q.mask]
	}
	return out
}

// grow doubles the ring (minimum 4 slots), keeping the capacity a power of
// two so mask indexing stays valid.
func (q *Queue) grow() {
	next := make([]Interval, max(4, 2*len(q.buf)))
	for i := 0; i < q.size; i++ {
		j := (q.head + i) & q.mask
		next[i] = q.buf[j]
	}
	q.buf = next
	q.mask = len(next) - 1
	q.head = 0
}
