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
// on the same near-monotone stream (Theorem 2 succession), so a chained Lo is
// mostly one copy run of that Hi — but the frame stays fully self-contained:
// no stream basis, no connection state, safe through any transport (the TCP
// transport's rebaser only touches single-report frames).
//
// Batch frames are v2-only. A v1 receiver has never seen KindReportBatch and
// rejects the frame as corrupt, which is the correct rollout behaviour: a
// mixed-version deployment simply keeps coalescing off.

import (
	"encoding/binary"
	"fmt"
	"slices"

	"hierdet/internal/interval"
	"hierdet/internal/repair"
	"hierdet/internal/vclock"
)

// AppendReportBatch appends the batch frame encoding of reps to dst and
// returns the extended buffer. It allocates only when dst lacks capacity,
// which is what makes the pooled-buffer flush path allocation-free. Panics
// on an empty batch (a flush with nothing to flush is a caller bug).
func AppendReportBatch(dst []byte, reps []repair.Report) []byte {
	return appendBatch(dst, len(reps), func(i int) (*interval.Interval, reportMeta) {
		return &reps[i].Iv, reportMeta{linkSeq: reps[i].LinkSeq, epoch: reps[i].Epoch}
	})
}

// AppendRefBatch is AppendReportBatch over references — the form the live
// runtime buffers a flush in — producing the same bytes.
func AppendRefBatch(dst []byte, refs []repair.Ref) []byte {
	return appendBatch(dst, len(refs), func(i int) (*interval.Interval, reportMeta) {
		return refs[i].Iv, reportMeta{linkSeq: refs[i].LinkSeq, epoch: refs[i].Epoch}
	})
}

// appendBatch encodes the n reports report(0)…report(n-1) as one batch frame.
// Each element is encoded once, behind room left for its length prefix; when
// the length turns out to need a different number of prefix bytes than its
// predecessor's did, the element slides into place. Sizing it first
// (ReportSizeV2) was a second pass over both clocks.
func appendBatch(dst []byte, n int, report func(int) (*interval.Interval, reportMeta)) []byte {
	if n == 0 {
		panic("wire: empty report batch")
	}
	dst = append(dst, magic, verV2, KindReportBatch, 0)
	dst = binary.AppendUvarint(dst, uint64(n))
	var basis vclock.VC
	var pad [binary.MaxVarintLen32]byte
	room := 2 // reports of 128 B to 16 KiB, i.e. of 30 to 4000 processes
	for i := 0; i < n; i++ {
		iv, meta := report(i)
		at := len(dst)
		dst = append(dst, pad[:room]...)
		dst = appendReport(dst, iv, meta, basis)
		size := len(dst) - at - room
		if need := uvarintLen(uint64(size)); need != room {
			if need > room {
				dst = append(dst, pad[:need-room]...)
			}
			copy(dst[at+need:], dst[at+room:at+room+size])
			dst = dst[:at+need+size]
			room = need
		}
		binary.PutUvarint(dst[at:], uint64(size))
		basis = iv.Hi
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
	return AppendDecodedReportBatch(nil, data, nil)
}

// minBatchElement is the least a batch element can occupy: its length prefix,
// the four header bytes, five one-byte fields (the last the length of an
// empty span) and two empty clocks.
const minBatchElement = 1 + 4 + 5 + 2

// AppendDecodedReportBatch is DecodeReportBatch appending to dst — a
// receiver that recycles its batches decodes into the slice it got back —
// and, with a non-nil clocks, carving each report's Lo/Hi pair from that
// store when the clocks have its width (see decodeReport). The store is the
// caller's for the duration of the call. A report whose span repeats its
// predecessor's in the frame shares that slice (spans are immutable once
// decoded). On error the returned slice is dst as it came: nothing of a
// rejected frame is delivered.
//
// What a frame can make the decoder allocate is bounded by the frame's size
// and the store's width: the result grows by at most one report per
// minBatchElement bytes present whatever count the header claims, each
// carving at most one pair of the store's width, and a clock of any other
// width is only made when the bytes that would fill it are there (a runs-form
// Lo of another width is refused: its basis, not the frame, would back it).
// Without a store a runs-form clock costs its basis's width, the previous
// report's: decode frames from the network with a store.
func AppendDecodedReportBatch(dst []repair.Report, data []byte, clocks *vclock.Store) ([]repair.Report, error) {
	out, err := appendDecodedBatch(dst, data, clocks)
	if err != nil {
		clear(out[len(dst):]) // may share dst's array: leave no half-decoded report in it
		return dst, err
	}
	return out, nil
}

// appendDecodedBatch does AppendDecodedReportBatch's work; on error it
// returns what it had appended so far.
func appendDecodedBatch(dst []repair.Report, data []byte, clocks *vclock.Store) ([]repair.Report, error) {
	if len(data) < 4 {
		return dst, fmt.Errorf("wire: batch header: %w", ErrTruncated)
	}
	if data[0] != magic || data[1] != verV2 || data[2] != KindReportBatch {
		return dst, fmt.Errorf("wire: not a report-batch frame: %w", ErrCorrupt)
	}
	if data[3] != 0 {
		return dst, fmt.Errorf("wire: batch flags 0x%02x: %w", data[3], ErrCorrupt)
	}
	rest := data[4:]
	count, sz := binary.Uvarint(rest)
	if sz <= 0 {
		return dst, uvarintFieldErr(sz)
	}
	rest = rest[sz:]
	if count == 0 {
		return dst, fmt.Errorf("wire: empty report batch: %w", ErrCorrupt)
	}
	// A count the remaining bytes cannot back is corrupt, not just big —
	// reject it before growing the result.
	if count > uint64(len(rest)/minBatchElement) {
		return dst, fmt.Errorf("wire: batch of %d reports in %d bytes: %w", count, len(rest), ErrCorrupt)
	}
	dst = slices.Grow(dst, int(count))
	var basis vclock.VC
	var prevSpan []int
	for i := uint64(0); i < count; i++ {
		n, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return dst, uvarintFieldErr(sz)
		}
		rest = rest[sz:]
		if n > uint64(len(rest)) {
			return dst, fmt.Errorf("wire: batch element %d of %d bytes, %d left: %w", i, n, len(rest), ErrTruncated)
		}
		dst = append(dst, repair.Report{})
		pl := &dst[len(dst)-1]
		m, err := decodeReport(rest[:n], &pl.Iv, basis, clocks, prevSpan)
		if err != nil {
			return dst, fmt.Errorf("wire: batch element %d: %w", i, err)
		}
		pl.LinkSeq, pl.Epoch = m.linkSeq, m.epoch
		basis, prevSpan = pl.Iv.Hi, pl.Iv.Span
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return dst, fmt.Errorf("wire: %d trailing bytes after batch: %w", len(rest), ErrCorrupt)
	}
	return dst, nil
}
