package wire

// Report-batch frames: one wire frame carrying a whole flush's worth of
// child→parent reports. A coalescing runtime (livenet with
// Config.AdaptiveFlush) sends what a node buffered since its last flush as
// one message; this frame is its wire form.
//
// Layout:
//
//	batch := magic u8 | verV2 u8 | kind u8 (KindReportBatch) | flags u8 (0) |
//	         count uv | (size uv | reportV2)[count]
//
// Each element is a complete, length-prefixed v2 report frame. The first
// report's Lo is absolute; every later report is delta-chained against its
// predecessor's Hi *inside the frame* — successive reports of one flush sit
// on the same near-monotone stream (Theorem 2 succession), so the chaining
// wins the same bytes per-connection delta chaining does, but the frame
// stays fully self-contained: no stream basis, no connection state, safe
// through any transport (the TCP transport's rebaser only touches
// single-report frames and passes batches through untouched).
//
// Batch frames are v2-only. A v1 receiver has never seen KindReportBatch and
// rejects the frame as corrupt, which is the correct rollout behaviour: a
// mixed-version deployment simply keeps coalescing off.

import (
	"encoding/binary"
	"fmt"

	"hierdet/internal/repair"
	"hierdet/internal/vclock"
)

// AppendReportBatch appends the batch frame encoding of reps to dst and
// returns the extended buffer. It operates on repair.Report — the type the
// runtimes buffer windows in — so a flush encodes straight out of the window
// buffer; it allocates only when dst lacks capacity, which is what makes the
// pooled-buffer flush path allocation-free. Panics on an empty batch (a
// flush with nothing to flush is a caller bug).
func AppendReportBatch(dst []byte, reps []repair.Report) []byte {
	if len(reps) == 0 {
		panic("wire: empty report batch")
	}
	dst = append(dst, magic, verV2, KindReportBatch, 0)
	dst = binary.AppendUvarint(dst, uint64(len(reps)))
	var basis vclock.VC
	for _, pl := range reps {
		r := Report{Iv: pl.Iv, LinkSeq: pl.LinkSeq, Epoch: pl.Epoch}
		dst = binary.AppendUvarint(dst, uint64(ReportSizeV2(r, basis)))
		dst = AppendReportV2(dst, r, basis)
		basis = pl.Iv.Hi
	}
	return dst
}

// ReportBatchSize returns the exact encoded size in bytes of the batch frame
// for reps — the byte-volume experiments' counterpart of ReportSizeV2.
func ReportBatchSize(reps []repair.Report) int {
	size := 4 + uvarintLen(uint64(len(reps)))
	var basis vclock.VC
	for _, pl := range reps {
		r := Report{Iv: pl.Iv, LinkSeq: pl.LinkSeq, Epoch: pl.Epoch}
		n := ReportSizeV2(r, basis)
		size += uvarintLen(uint64(n)) + n
		basis = pl.Iv.Hi
	}
	return size
}

// DecodeReportBatch parses a batch frame into fresh storage, in window
// order. Every decode error wraps ErrCorrupt or ErrTruncated, like the rest
// of the package.
func DecodeReportBatch(data []byte) ([]repair.Report, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("wire: batch header: %w", ErrTruncated)
	}
	if data[0] != magic || data[1] != verV2 || data[2] != KindReportBatch {
		return nil, fmt.Errorf("wire: not a report-batch frame: %w", ErrCorrupt)
	}
	if data[3] != 0 {
		return nil, fmt.Errorf("wire: batch flags 0x%02x: %w", data[3], ErrCorrupt)
	}
	rest := data[4:]
	count, sz := binary.Uvarint(rest)
	if sz <= 0 {
		return nil, uvarintFieldErr(sz)
	}
	rest = rest[sz:]
	if count == 0 {
		return nil, fmt.Errorf("wire: empty report batch: %w", ErrCorrupt)
	}
	// Every element costs at least its length prefix plus a report header,
	// so a count the remaining bytes cannot back is corrupt, not just big —
	// reject it before allocating the result.
	if count > uint64(len(rest)) {
		return nil, fmt.Errorf("wire: batch of %d reports in %d bytes: %w", count, len(rest), ErrCorrupt)
	}
	out := make([]repair.Report, 0, count)
	var basis vclock.VC
	for i := uint64(0); i < count; i++ {
		n, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return nil, uvarintFieldErr(sz)
		}
		rest = rest[sz:]
		if n > uint64(len(rest)) {
			return nil, fmt.Errorf("wire: batch element %d of %d bytes, %d left: %w", i, n, len(rest), ErrTruncated)
		}
		var r Report
		if err := DecodeReportInto(rest[:n], &r, basis); err != nil {
			return nil, fmt.Errorf("wire: batch element %d: %w", i, err)
		}
		out = append(out, repair.Report{Iv: r.Iv, LinkSeq: r.LinkSeq, Epoch: r.Epoch})
		basis = r.Iv.Hi
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after batch: %w", len(rest), ErrCorrupt)
	}
	return out, nil
}
