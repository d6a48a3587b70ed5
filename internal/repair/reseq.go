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

// Resequencer restores per-sender order over a non-FIFO link: reports carry
// consecutive LinkSeq numbers starting at zero; out-of-order arrivals are
// buffered and released in order, each with its own metadata (epoch).
// Duplicates — sequence numbers below the delivery frontier, or already
// buffered — are dropped, so redelivery (e.g. a transport retry) can never
// deliver a report twice or out of order.
type Resequencer struct {
	next    int
	pending map[int]Report
	dropped int
}

// NewResequencer returns an empty resequencer expecting sequence 0. The
// pending map builds lazily on the first out-of-order arrival — an in-order
// link never allocates it.
func NewResequencer() *Resequencer {
	return &Resequencer{}
}

// Accept ingests one report and returns the (possibly empty) batch now
// deliverable in order.
func (q *Resequencer) Accept(r Report) []Report {
	return q.AcceptInto(&r, nil)
}

// AcceptNext reports whether a report numbered seq is the one deliverable
// right now — next in order, nothing buffered, what every report on a FIFO
// link is — and, when it is, counts it delivered: the caller hands on its
// own copy and spares AcceptInto's.
func (q *Resequencer) AcceptNext(seq int) bool {
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
func (q *Resequencer) AcceptInto(r *Report, out []Report) []Report {
	if r.LinkSeq < q.next {
		q.dropped++
		return out // duplicate: already delivered
	}
	if q.AcceptNext(r.LinkSeq) {
		return append(out, *r) // deliver without touching the map
	}
	if _, dup := q.pending[r.LinkSeq]; dup {
		q.dropped++
		return out // duplicate: already buffered, keep the first copy
	}
	if q.pending == nil {
		q.pending = make(map[int]Report)
	}
	q.pending[r.LinkSeq] = *r
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
func (q *Resequencer) Buffered() int { return len(q.pending) }

// Dropped returns the number of duplicate reports discarded.
func (q *Resequencer) Dropped() int { return q.dropped }
