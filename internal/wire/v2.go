package wire

// Wire format v2 for interval reports: delta-encoded clocks instead of v1's
// fixed 8 bytes per component (DESIGN §8).
//
// Clock entries are small integers and successive reports on one link are
// near-monotone (Theorem 2 succession: the next interval starts causally
// after the previous one ended), so v2 encodes Hi against Lo (an interval is
// short: Hi−Lo is small, and mostly one difference repeated), and Lo either
// absolutely or — when a transport or a batch frame supplies a stream basis —
// against the previous report's Hi on the same stream, which it mostly
// copies. Each clock takes whichever of vclock.AppendDelta's two forms is
// shorter: a varint per component, or runs of equal differences.
//
// Layout (varints little-endian per Go's encoding/binary, everything else
// as in v1):
//
//	reportV2 := magic u8 | verV2 u8 | kind u8 (KindReport) | flags u8 |
//	            [tenant uv] | origin uv | seq uv | linkSeq uv | epoch uv |
//	            spanLen uv | span uv[spanLen] |
//	            lo vclock-delta | hi vclock-delta(base=lo)
//
// flags bit0 marks an aggregated interval, bit1 marks a basis-relative Lo,
// bit2 marks a tenant-tagged report (the tenant uvarint is present; see
// tenant.go — tenant 0 is always encoded untagged).
// verV2 (0x56) occupies the byte where v1 frames carry their kind; kinds stop
// below 0x10, so one byte disambiguates every frame version on the wire and
// DecodeReport accepts both (heartbeats and attach frames stay v1-only).
//
// A basis-relative frame is only decodable by a receiver that holds the same
// basis, so bases are strictly connection-scoped state: the TCP transport
// rebases frames per connection and resets on every (re)dial — see
// internal/transport/tcptransport. Everything above the transport only ever
// sees absolute frames.

//go:generate go run ./gen

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"hierdet/internal/interval"
	"hierdet/internal/vclock"
)

// verV2 is the frame-version byte of wire format v2. It shares the kind
// byte's position in v1 frames; Kind* values stay below 0x10 so the two can
// never collide.
const verV2 = 0x56

// Frame versions as reported by FrameVersion.
const (
	Version1 = 1
	Version2 = 2
)

// Report flag bits (v2 frames only).
const (
	flagAgg     = 1 << 0
	flagDeltaLo = 1 << 1
	// flagTenant marks a tenant-tagged report: a tenant-id uvarint sits
	// immediately after the flags byte, before every other varint field.
	// Putting it first keeps tagging a cheap splice at a fixed offset — a
	// transport can add or strip the tag without decoding the clocks — and
	// leaving it off for tenant 0 keeps pre-tenant frames byte-identical.
	flagTenant = 1 << 2
)

// FrameVersion returns the wire-format version of a frame after validating
// the magic: Version1 for the fixed-width frames, Version2 for delta frames.
func FrameVersion(data []byte) (int, error) {
	if len(data) < 2 {
		return 0, fmt.Errorf("wire: frame header: %w", ErrTruncated)
	}
	if data[0] != magic {
		return 0, fmt.Errorf("wire: bad magic 0x%02x: %w", data[0], ErrCorrupt)
	}
	if data[1] == verV2 {
		return Version2, nil
	}
	return Version1, nil
}

// IsReportV2 reports whether a frame is a v2 report (of either Lo
// encoding). Transports use it to classify payloads cheaply before deciding
// whether a frame participates in stream-basis chaining.
func IsReportV2(data []byte) bool {
	return len(data) >= 4 && data[0] == magic && data[1] == verV2 && data[2] == KindReport
}

// ReportIsDelta reports whether a frame is a v2 report whose Lo clock is
// encoded against a stream basis — i.e. it can only be decoded by a receiver
// holding the sender's basis for this stream. Transports use it to keep
// basis-relative frames from escaping their connection scope.
func ReportIsDelta(data []byte) bool {
	return len(data) >= 4 && data[0] == magic && data[1] == verV2 &&
		data[2] == KindReport && data[3]&flagDeltaLo != 0
}

// ReportOriginV2 extracts the origin id from a v2 report frame without
// decoding the rest. Transports use it to pick the stream basis a frame
// belongs to before running the full (basis-dependent) decode.
func ReportOriginV2(data []byte) (int, error) {
	if len(data) < 4 || data[0] != magic || data[1] != verV2 || data[2] != KindReport {
		return 0, fmt.Errorf("wire: not a v2 report frame: %w", ErrCorrupt)
	}
	rest := data[4:]
	if data[3]&flagTenant != 0 {
		// Skip the tenant tag; the origin varint follows it.
		v, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return 0, uvarintFieldErr(sz)
		}
		if v > 1<<32-1 {
			return 0, fmt.Errorf("wire: report tenant overflows u32: %w", ErrCorrupt)
		}
		rest = rest[sz:]
	}
	v, sz := binary.Uvarint(rest)
	if sz <= 0 {
		return 0, uvarintFieldErr(sz)
	}
	if v > 1<<32-1 {
		return 0, fmt.Errorf("wire: report origin overflows u32: %w", ErrCorrupt)
	}
	return int(uint32(v)), nil
}

// ReportTenantV2 extracts the tenant id from a v2 report frame without
// decoding the rest: 0 for untagged frames (the default tenant), the tag's
// value otherwise. Transports use it to key per-tenant stream state.
func ReportTenantV2(data []byte) (uint32, error) {
	if len(data) < 4 || data[0] != magic || data[1] != verV2 || data[2] != KindReport {
		return 0, fmt.Errorf("wire: not a v2 report frame: %w", ErrCorrupt)
	}
	if data[3]&flagTenant == 0 {
		return 0, nil
	}
	v, sz := binary.Uvarint(data[4:])
	if sz <= 0 {
		return 0, uvarintFieldErr(sz)
	}
	if v > 1<<32-1 {
		return 0, fmt.Errorf("wire: report tenant overflows u32: %w", ErrCorrupt)
	}
	return uint32(v), nil
}

// AppendReportV2 appends the v2 encoding of r to dst and returns the
// extended buffer. With a non-nil basis (the previous report's Hi on the same
// stream, length-matched to the clocks), Lo is delta-encoded against it;
// otherwise Lo is absolute. The function allocates only when dst lacks
// capacity.
func AppendReportV2(dst []byte, r Report, basis vclock.VC) []byte {
	return appendReport(dst, &r.Iv, reportMeta{r.LinkSeq, r.Epoch, r.Tenant}, basis)
}

// reportMeta is what a report carries beside its interval. Encoder and
// decoder work on (*interval.Interval, reportMeta), which both Report here
// and repair.Report in the batch codec take apart into without a copy of the
// interval.
type reportMeta struct {
	linkSeq, epoch int
	tenant         uint32
}

func appendReport(dst []byte, iv *interval.Interval, m reportMeta, basis vclock.VC) []byte {
	var flags byte
	if iv.Agg {
		flags |= flagAgg
	}
	loBase := vclock.VC(nil)
	if basis != nil && basis.Len() == iv.Lo.Len() {
		flags |= flagDeltaLo
		loBase = basis
	}
	if m.tenant != 0 {
		flags |= flagTenant
	}
	dst = append(dst, magic, verV2, KindReport, flags)
	if m.tenant != 0 {
		dst = binary.AppendUvarint(dst, uint64(m.tenant))
	}
	dst = binary.AppendUvarint(dst, uint64(uint32(iv.Origin)))
	dst = binary.AppendUvarint(dst, uint64(uint32(iv.Seq)))
	dst = binary.AppendUvarint(dst, uint64(uint32(m.linkSeq)))
	dst = binary.AppendUvarint(dst, uint64(uint32(m.epoch)))
	dst = binary.AppendUvarint(dst, uint64(len(iv.Span)))
	for _, p := range iv.Span {
		dst = binary.AppendUvarint(dst, uint64(uint32(p)))
	}
	dst = iv.Lo.AppendDelta(dst, loBase)
	dst = iv.Hi.AppendDelta(dst, iv.Lo)
	return dst
}

// EncodeReportV2 serializes a report in wire format v2 with an absolute Lo
// (no stream basis) into fresh, exactly-sized storage: encoded once through
// a pooled buffer and copied out, which is cheaper than sizing it first.
func EncodeReportV2(r Report) []byte {
	buf := GetBuffer()
	*buf = AppendReportV2(*buf, r, nil)
	out := bytes.Clone(*buf)
	PutBuffer(buf)
	return out
}

// ReportSizeV2 returns the exact encoded size in bytes of r under v2 framing
// with the given basis (nil = absolute Lo) — the v2 counterpart of
// ReportSize for the byte-volume experiments.
func ReportSizeV2(r Report, basis vclock.VC) int {
	if basis != nil && basis.Len() != r.Iv.Lo.Len() {
		basis = nil
	}
	size := 4
	if r.Tenant != 0 {
		size += uvarintLen(uint64(r.Tenant))
	}
	size += uvarintLen(uint64(uint32(r.Iv.Origin))) +
		uvarintLen(uint64(uint32(r.Iv.Seq))) +
		uvarintLen(uint64(uint32(r.LinkSeq))) +
		uvarintLen(uint64(uint32(r.Epoch))) +
		uvarintLen(uint64(len(r.Iv.Span)))
	for _, p := range r.Iv.Span {
		size += uvarintLen(uint64(uint32(p)))
	}
	return size + r.Iv.Lo.DeltaSize(basis) + r.Iv.Hi.DeltaSize(r.Iv.Lo)
}

// uvarintLen is the encoded length of a uvarint.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// DecodeReportInto parses a report of either wire version into *r, reusing
// r's clock and span backing arrays when they have capacity — the
// allocation-free decode path. basis supplies the stream basis for
// basis-relative v2 frames (see AppendReportV2) and may be nil otherwise; a
// basis-relative frame decoded without its basis is rejected as corrupt,
// which makes a transport drop the connection — exactly right, since the
// stream state is unrecoverable and a redial resets both ends' bases.
func DecodeReportInto(data []byte, r *Report, basis vclock.VC) error {
	m, err := decodeReport(data, &r.Iv, basis, nil, nil)
	r.LinkSeq, r.Epoch, r.Tenant = m.linkSeq, m.epoch, m.tenant
	return err
}

// decodeReport is DecodeReportInto on an interval and the rest apart. With a
// non-nil clocks, a v2 report whose clocks have the store's width gets its
// Lo/Hi pair carved from it (adjacent, like the bounds the detector
// aggregates itself) instead of two allocations; other widths fall back to
// iv's own storage and refuse a runs-form Lo. A v2 span whose ids equal
// prev's is prev itself (a batch passes its previous element's, nearly always
// the same processes); any other gets storage of its own. On error iv and the
// returned meta hold garbage.
func decodeReport(data []byte, iv *interval.Interval, basis vclock.VC, clocks *vclock.Store, prev []int) (m reportMeta, err error) {
	ver, err := FrameVersion(data)
	if err != nil {
		return m, err
	}
	if ver == Version1 {
		return decodeReportV1(data, iv)
	}
	if len(data) < 4 {
		return m, fmt.Errorf("wire: report header: %w", ErrTruncated)
	}
	if data[2] != KindReport {
		return m, fmt.Errorf("wire: v2 kind %d is not a report: %w", data[2], ErrCorrupt)
	}
	flags := data[3]
	if flags&^(flagAgg|flagDeltaLo|flagTenant) != 0 {
		return m, fmt.Errorf("wire: report flags 0x%02x: %w", flags, ErrCorrupt)
	}
	rest := data[4:]
	if flags&flagTenant != 0 {
		v, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return m, uvarintFieldErr(sz)
		}
		if v > 1<<32-1 {
			return m, fmt.Errorf("wire: report tenant overflows u32: %w", ErrCorrupt)
		}
		if v == 0 {
			// Tenant 0 is always encoded untagged; a tagged zero is a frame
			// no encoder produces.
			return m, fmt.Errorf("wire: tenant tag carrying the default tenant: %w", ErrCorrupt)
		}
		m.tenant, rest = uint32(v), rest[sz:]
	}
	var fields [5]uint64
	for i := range fields {
		v, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return m, uvarintFieldErr(sz)
		}
		if v > 1<<32-1 {
			return m, fmt.Errorf("wire: report field %d overflows u32: %w", i, ErrCorrupt)
		}
		fields[i], rest = v, rest[sz:]
	}
	iv.Origin = int(uint32(fields[0]))
	iv.Seq = int(uint32(fields[1]))
	m.linkSeq = int(uint32(fields[2]))
	m.epoch = int(uint32(fields[3]))
	iv.Agg = flags&flagAgg != 0
	spanLen := int(fields[4])
	if spanLen > MaxSpan {
		return m, fmt.Errorf("wire: report span of %d ids: %w", spanLen, ErrCorrupt)
	}
	if len(rest) < spanLen { // every id costs at least one byte
		return m, fmt.Errorf("wire: report span body: %w", ErrTruncated)
	}
	shared := spanLen > 0 && len(prev) == spanLen // while the ids are prev's
	span := iv.Span[:0]
	if !shared && cap(span) < spanLen {
		span = make([]int, 0, spanLen)
	}
	for i := 0; i < spanLen; i++ {
		v, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return m, uvarintFieldErr(sz)
		}
		if v > 1<<32-1 {
			return m, fmt.Errorf("wire: span id overflows u32: %w", ErrCorrupt)
		}
		if id := int(uint32(v)); !shared || prev[i] != id {
			if shared {
				shared, span = false, append(make([]int, 0, spanLen), prev[:i]...)
			}
			span = append(span, id)
		}
		rest = rest[sz:]
	}
	if shared {
		span = prev
	}
	iv.Span = span
	loBase := vclock.VC(nil)
	if flags&flagDeltaLo != 0 {
		if basis == nil {
			return m, fmt.Errorf("wire: basis-relative report without stream basis: %w", ErrCorrupt)
		}
		loBase = basis
	}
	if clocks != nil {
		// Carve only at the store's width, one pair a report; a runs-form Lo
		// of another width would be backed by its basis, not by the frame.
		switch n, runs := vclock.DeltaLen(rest, loBase); {
		case n == clocks.N() && (runs || len(rest) > n):
			iv.Lo, iv.Hi = clocks.AllocPair()
		case runs:
			return m, fmt.Errorf("wire: runs-form clock of %d components beside a %d-wide store: %w", n, clocks.N(), ErrCorrupt)
		}
	}
	rest, err = consumeDelta(rest, &iv.Lo, loBase)
	if err != nil {
		return m, err
	}
	rest, err = consumeDelta(rest, &iv.Hi, iv.Lo)
	if err != nil {
		return m, err
	}
	if len(rest) != 0 {
		return m, fmt.Errorf("wire: %d trailing bytes: %w", len(rest), ErrCorrupt)
	}
	finishReport(iv)
	return m, nil
}

// consumeDelta adapts vclock.ConsumeDelta to wire's error taxonomy.
func consumeDelta(data []byte, dst *vclock.VC, base vclock.VC) ([]byte, error) {
	rest, err := vclock.ConsumeDelta(data, dst, base)
	if err != nil {
		return nil, wrapVClockErr(err)
	}
	return rest, nil
}

// wrapVClockErr re-wraps a vclock codec error in the matching wire sentinel.
func wrapVClockErr(err error) error {
	if errors.Is(err, vclock.ErrTruncated) {
		return fmt.Errorf("wire: %v: %w", err, ErrTruncated)
	}
	return fmt.Errorf("wire: %v: %w", err, ErrCorrupt)
}

// uvarintFieldErr classifies a failed binary.Uvarint inside a frame body.
func uvarintFieldErr(sz int) error {
	if sz == 0 {
		return fmt.Errorf("wire: report field: %w", ErrTruncated)
	}
	return fmt.Errorf("wire: report field overflows varint: %w", ErrCorrupt)
}

// finishReport derives the fields not carried on the wire.
func finishReport(iv *interval.Interval) {
	iv.DropExtra()
	iv.Bases = 1
	if iv.Agg {
		// Base count is not carried on the wire; span size is the best
		// lower bound a receiver has.
		iv.Bases = len(iv.Span)
	}
}

// bufPool recycles encoder scratch buffers. Encoders hand frames to
// transports that never retain them past the call (transport.Transport's
// Send contract), so a small pool removes the per-message allocation
// entirely. The pool holds *[]byte, not []byte: storing a bare slice in an
// interface boxes its header on every Put, which would put one allocation
// right back on the path the pool exists to clear.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// GetBuffer returns a pooled scratch buffer with *buf sliced to length zero.
// Append the frame to *buf and hand the same pointer to PutBuffer once the
// frame has been copied out (transports copy on Send).
func GetBuffer() *[]byte {
	buf := bufPool.Get().(*[]byte)
	*buf = (*buf)[:0]
	return buf
}

// PutBuffer recycles a buffer obtained from GetBuffer. The caller must not
// touch *buf afterwards.
func PutBuffer(buf *[]byte) {
	if cap(*buf) > 1<<20 {
		return // drop oversized one-offs instead of pinning them in the pool
	}
	bufPool.Put(buf)
}
