package repair

import "hierdet/internal/interval"

// Report is one resequenced child→parent aggregate report. LinkSeq is a
// per-link counter (restarting at zero on every adoption) that lets the
// receiver restore queue order over a non-FIFO channel; Epoch counts the
// sender's subtree reconfigurations (see Epochs).
type Report struct {
	Iv      interval.Interval
	LinkSeq int
	Epoch   int
}

// Ref is a Report that leaves its interval where it is stored: what the
// live runtime hands from a child's detection record (or a decoded frame's
// slot) to the parent's queue without a copy.
type Ref struct {
	Iv      *interval.Interval
	LinkSeq int
	Epoch   int
}

// Seq returns the report's link sequence number.
func (r Report) Seq() int { return r.LinkSeq }

// Seq returns the report's link sequence number.
func (r Ref) Seq() int { return r.LinkSeq }

// Sequenced is what a Resequencer orders.
type Sequenced interface{ Seq() int }

// Resequencer restores per-sender order over a non-FIFO link: reports carry
// consecutive LinkSeq numbers starting at zero; out-of-order arrivals are
// buffered and released in order, each with its own metadata (epoch).
// Duplicates — sequence numbers below the delivery frontier, or already
// buffered — are dropped, so redelivery (e.g. a transport retry) can never
// deliver a report twice or out of order.
type Resequencer[R Sequenced] struct {
	next    int
	pending map[int]R
	dropped int
}

// NewResequencer returns an empty resequencer expecting sequence 0. The
// pending map builds lazily on the first out-of-order arrival — an in-order
// link never allocates it.
func NewResequencer[R Sequenced]() *Resequencer[R] {
	return &Resequencer[R]{}
}

// Accept ingests one report and returns the (possibly empty) batch now
// deliverable in order.
func (q *Resequencer[R]) Accept(r R) []R {
	return q.AcceptInto(&r, nil)
}

// AcceptNext reports whether a report numbered seq is the one deliverable
// right now — next in order, nothing buffered, what every report on a FIFO
// link is — and, when it is, counts it delivered: the caller hands on its
// own copy and spares AcceptInto's.
func (q *Resequencer[R]) AcceptNext(seq int) bool {
	if seq != q.next || len(q.pending) != 0 {
		return false
	}
	q.next++
	return true
}

// AcceptInto is Accept with a caller-owned result buffer: deliverable
// reports are appended to out and the extended slice returned. The steady
// state is in-order arrival releasing exactly one report per call, so the
// hot path reuses one scratch slice per link instead of allocating a
// single-element slice per report, and skips the pending map entirely when
// nothing is buffered.
func (q *Resequencer[R]) AcceptInto(r *R, out []R) []R {
	seq := (*r).Seq()
	if seq < q.next {
		q.dropped++
		return out // duplicate: already delivered
	}
	if q.AcceptNext(seq) {
		return append(out, *r) // deliver without touching the map
	}
	if _, dup := q.pending[seq]; dup {
		q.dropped++
		return out // duplicate: already buffered, keep the first copy
	}
	if q.pending == nil {
		q.pending = make(map[int]R)
	}
	q.pending[seq] = *r
	for {
		next, ok := q.pending[q.next]
		if !ok {
			return out
		}
		delete(q.pending, q.next)
		q.next++
		out = append(out, next)
	}
}

// Buffered returns the number of reports held back waiting for a gap.
func (q *Resequencer[R]) Buffered() int { return len(q.pending) }

// Dropped returns the number of duplicate reports discarded.
func (q *Resequencer[R]) Dropped() int { return q.dropped }
