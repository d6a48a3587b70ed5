// Package wire defines the binary wire format for the detector's control
// messages: interval reports (the paper's O(n)-sized messages carrying two
// vector-timestamp cuts), heartbeats carrying the failure detector's
// covered-set and root-seeking state, and the four reattachment-protocol
// frames of §III-F (request/grant/confirm/abort). The format is what the TCP
// transport (internal/transport/tcptransport) puts on the network and what
// the experiments use to convert message counts into byte volumes — the
// paper's space/message analysis counts O(n) words per message, and this
// package makes that concrete.
//
// Layout (big endian):
//
//	report   := magic u8 | kind u8 | origin u32 | seq u32 | linkSeq u32 |
//	            epoch u32 | agg u8 | spanLen u32 | span u32[spanLen] |
//	            lo vclock | hi vclock
//	heartbeat:= magic u8 | kind u8 | sender u32 | epoch u32 | flags u8 |
//	            coveredLen u32 | covered u32[coveredLen]
//	attach   := magic u8 | kind u8 | from u32 | type u8 | reqID u32 |
//	            coveredLen u32 | covered u32[coveredLen]
//
// Vector clocks use their own length-prefixed encoding (vclock.MarshalBinary).
//
// Decode errors are typed so a transport can tell a corrupt frame (drop it,
// maybe reset the connection) from a short read (wait for more bytes): every
// error wraps either ErrCorrupt or ErrTruncated.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hierdet/internal/interval"
	"hierdet/internal/repair"
	"hierdet/internal/vclock"
)

const magic = 0xD7

// Message kinds on the wire. KindReportBatch and KindTenantEnv exist only
// under v2 framing (see batch.go and tenant.go); the other kinds appear in
// both frame versions.
const (
	KindReport      = 1
	KindHeartbeat   = 2
	KindAttach      = 3
	KindReportBatch = 4
	KindTenantEnv   = 5
)

// MaxSpan bounds the span (and covered-set) length a decoder accepts before
// allocating. Spans list process ids, so a frame claiming more members than
// any plausible deployment (or than its own byte count can back) is corrupt,
// not merely large.
const MaxSpan = 1 << 20

// Decode error categories. All decode errors wrap exactly one of these.
var (
	// ErrCorrupt marks a structurally invalid frame: bad magic, unknown
	// kind, impossible lengths, or trailing bytes. The frame can never
	// become valid; a transport should drop it.
	ErrCorrupt = errors.New("corrupt frame")
	// ErrTruncated marks a frame shorter than its fields claim. Over a
	// stream transport this can mean "read more bytes"; over a framed
	// transport it is corruption of the inner payload.
	ErrTruncated = errors.New("truncated frame")
)

// FrameKind returns the kind byte of a frame after validating the magic. It
// understands both frame versions: v1 carries the kind right after the magic,
// v2 inserts a version byte between them (see v2.go).
func FrameKind(data []byte) (byte, error) {
	if len(data) < 2 {
		return 0, fmt.Errorf("wire: frame header: %w", ErrTruncated)
	}
	if data[0] != magic {
		return 0, fmt.Errorf("wire: bad magic 0x%02x: %w", data[0], ErrCorrupt)
	}
	k := data[1]
	v2 := false
	if k == verV2 {
		if len(data) < 3 {
			return 0, fmt.Errorf("wire: frame header: %w", ErrTruncated)
		}
		k = data[2]
		v2 = true
	}
	switch {
	case k == KindReport || k == KindHeartbeat || k == KindAttach:
	case k == KindReportBatch && v2: // batch frames are v2-only
	case k == KindTenantEnv && v2: // tenant envelopes are v2-only
	default:
		return 0, fmt.Errorf("wire: unknown kind %d: %w", k, ErrCorrupt)
	}
	return k, nil
}

// Report is an interval report from a child to its parent (or, in the
// centralized algorithm, a raw interval being forwarded to the sink). The
// sender is not carried separately: a node only ever reports aggregates it
// created itself, so Iv.Origin identifies the sending process.
type Report struct {
	// Iv is the interval (base or aggregated).
	Iv interval.Interval
	// LinkSeq is the per-link sequence number used for resequencing.
	LinkSeq int
	// Epoch is the sender's reconfiguration epoch: it increments before the
	// first report after the sender's subtree membership changed, telling
	// the receiver to reset the stream's queue (succession across epochs is
	// not guaranteed).
	Epoch int
	// Tenant is the detection tree this report belongs to when many trees
	// share one transport (internal/tenantplane). Zero — the default, and
	// the only value v1 frames can carry — encodes untagged, byte-identical
	// to pre-tenant v2 frames; nonzero values ride a varint behind a flag
	// bit (see v2.go).
	Tenant uint32
}

// EncodeReport serializes a report.
func EncodeReport(r Report) ([]byte, error) {
	lo, err := r.Iv.Lo.MarshalBinary()
	if err != nil {
		return nil, err
	}
	hi, err := r.Iv.Hi.MarshalBinary()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 2+4+4+4+4+1+4+4*len(r.Iv.Span)+len(lo)+len(hi))
	buf = append(buf, magic, KindReport)
	buf = binary.BigEndian.AppendUint32(buf, uint32(r.Iv.Origin))
	buf = binary.BigEndian.AppendUint32(buf, uint32(r.Iv.Seq))
	buf = binary.BigEndian.AppendUint32(buf, uint32(r.LinkSeq))
	buf = binary.BigEndian.AppendUint32(buf, uint32(r.Epoch))
	if r.Iv.Agg {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendIDs(buf, r.Iv.Span)
	buf = append(buf, lo...)
	buf = append(buf, hi...)
	return buf, nil
}

// DecodeReport parses a report of either wire version, validating framing.
// It accepts only self-contained frames (a basis-relative v2 frame needs its
// stream basis — use DecodeReportInto) and always returns fresh storage.
func DecodeReport(data []byte) (Report, error) {
	var r Report
	err := DecodeReportInto(data, &r, nil)
	return r, err
}

// decodeReportV1 parses a fixed-width v1 report into *iv, reusing its clock
// and span backing arrays when they have capacity. v1 predates tenant
// tagging: the meta's tenant is always the default, zero.
func decodeReportV1(data []byte, iv *interval.Interval) (m reportMeta, err error) {
	rest, err := frameBody(data, KindReport, "report")
	if err != nil {
		return m, err
	}
	if len(rest) < 17 {
		return m, fmt.Errorf("wire: report header: %w", ErrTruncated)
	}
	iv.Origin = int(binary.BigEndian.Uint32(rest))
	iv.Seq = int(binary.BigEndian.Uint32(rest[4:]))
	m.linkSeq = int(binary.BigEndian.Uint32(rest[8:]))
	m.epoch = int(binary.BigEndian.Uint32(rest[12:]))
	iv.Agg = rest[16] == 1
	rest = rest[17:]
	iv.Span, rest, err = consumeIDsInto(iv.Span, rest, "report span")
	if err != nil {
		return m, err
	}
	rest, err = consumeVC(rest, &iv.Lo)
	if err != nil {
		return m, err
	}
	rest, err = consumeVC(rest, &iv.Hi)
	if err != nil {
		return m, err
	}
	if len(rest) != 0 {
		return m, fmt.Errorf("wire: %d trailing bytes: %w", len(rest), ErrCorrupt)
	}
	finishReport(iv)
	return m, nil
}

// consumeVC reads one length-prefixed fixed-width clock into *v (reusing its
// backing array when possible) and returns the remaining bytes.
func consumeVC(data []byte, v *vclock.VC) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("wire: vector clock header: %w", ErrTruncated)
	}
	if n := int(binary.BigEndian.Uint32(data)); n > MaxSpan {
		return nil, fmt.Errorf("wire: vector clock of %d components: %w", n, ErrCorrupt)
	}
	rest, err := vclock.ConsumeBinary(data, v)
	if err != nil {
		return nil, wrapVClockErr(err)
	}
	return rest, nil
}

// Heartbeat is one liveness beacon between tree neighbours. Beyond "I am
// alive" it carries the state the distributed repair protocol needs
// (simulator and live runtime alike maintain it this way):
//
//   - Epoch, the sender's current reconfiguration epoch, so a parent can
//     notice a child's stream restarted even between reports;
//   - Covered, the sender's covered set — itself plus the last covered set
//     each of its children reported — meaningful on child→parent beats,
//     where it feeds the receiver's own covered set and the
//     inside-my-subtree test of adoption requests;
//   - RootSeeking, meaningful on parent→child beats: the sender's tree root
//     is currently renegotiating a parent, so the whole tree is dangling
//     and must refuse adoptions or two orphan trees could adopt into each
//     other and close a cycle.
type Heartbeat struct {
	Sender      int
	Epoch       int
	RootSeeking bool
	Covered     []int
}

const hbFlagRootSeeking = 1

// EncodeHeartbeat serializes a heartbeat.
func EncodeHeartbeat(hb Heartbeat) []byte {
	buf := make([]byte, 0, HeartbeatSize+4*len(hb.Covered))
	buf = append(buf, magic, KindHeartbeat)
	buf = binary.BigEndian.AppendUint32(buf, uint32(hb.Sender))
	buf = binary.BigEndian.AppendUint32(buf, uint32(hb.Epoch))
	var flags byte
	if hb.RootSeeking {
		flags |= hbFlagRootSeeking
	}
	buf = append(buf, flags)
	return appendIDs(buf, hb.Covered)
}

// DecodeHeartbeat parses a heartbeat.
func DecodeHeartbeat(data []byte) (Heartbeat, error) {
	var hb Heartbeat
	rest, err := frameBody(data, KindHeartbeat, "heartbeat")
	if err != nil {
		return hb, err
	}
	if len(rest) < 9 {
		return hb, fmt.Errorf("wire: heartbeat header: %w", ErrTruncated)
	}
	hb.Sender = int(binary.BigEndian.Uint32(rest))
	hb.Epoch = int(binary.BigEndian.Uint32(rest[4:]))
	flags := rest[8]
	if flags&^hbFlagRootSeeking != 0 {
		return hb, fmt.Errorf("wire: heartbeat flags 0x%02x: %w", flags, ErrCorrupt)
	}
	hb.RootSeeking = flags&hbFlagRootSeeking != 0
	hb.Covered, rest, err = consumeIDs(rest[9:], "heartbeat covered set")
	if err != nil {
		return hb, err
	}
	if len(rest) != 0 {
		return hb, fmt.Errorf("wire: %d trailing bytes: %w", len(rest), ErrCorrupt)
	}
	return hb, nil
}

// Attach is one reattachment-protocol frame (§III-F): the seeker's adoption
// request with its covered set, and the grant/confirm/abort frames that
// resolve it (see internal/repair for the protocol).
type Attach struct {
	// From is the sending process.
	From int
	// Msg is the protocol message (Type, ReqID, Covered on requests).
	Msg repair.Msg
}

// EncodeAttach serializes an attach-protocol frame.
func EncodeAttach(a Attach) []byte {
	buf := make([]byte, 0, AttachSize+4*len(a.Msg.Covered))
	buf = append(buf, magic, KindAttach)
	buf = binary.BigEndian.AppendUint32(buf, uint32(a.From))
	buf = append(buf, byte(a.Msg.Type))
	buf = binary.BigEndian.AppendUint32(buf, uint32(a.Msg.ReqID))
	return appendIDs(buf, a.Msg.Covered)
}

// DecodeAttach parses an attach-protocol frame.
func DecodeAttach(data []byte) (Attach, error) {
	var a Attach
	rest, err := frameBody(data, KindAttach, "attach")
	if err != nil {
		return a, err
	}
	if len(rest) < 9 {
		return a, fmt.Errorf("wire: attach header: %w", ErrTruncated)
	}
	a.From = int(binary.BigEndian.Uint32(rest))
	typ := repair.MsgType(rest[4])
	if typ < repair.Req || typ > repair.Abort {
		return a, fmt.Errorf("wire: attach type %d: %w", rest[4], ErrCorrupt)
	}
	a.Msg.Type = typ
	a.Msg.ReqID = int(binary.BigEndian.Uint32(rest[5:]))
	a.Msg.Covered, rest, err = consumeIDs(rest[9:], "attach covered set")
	if err != nil {
		return a, err
	}
	if len(rest) != 0 {
		return a, fmt.Errorf("wire: %d trailing bytes: %w", len(rest), ErrCorrupt)
	}
	return a, nil
}

// frameBody validates the two-byte header against want and returns the body.
func frameBody(data []byte, want byte, what string) ([]byte, error) {
	k, err := FrameKind(data)
	if err != nil {
		return nil, err
	}
	if k != want {
		return nil, fmt.Errorf("wire: kind %d is not a %s: %w", k, what, ErrCorrupt)
	}
	return data[2:], nil
}

// appendIDs writes a length-prefixed process-id list.
func appendIDs(buf []byte, ids []int) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ids)))
	for _, p := range ids {
		buf = binary.BigEndian.AppendUint32(buf, uint32(p))
	}
	return buf
}

// consumeIDs reads a length-prefixed process-id list, rejecting lengths the
// remaining bytes cannot back before allocating anything.
func consumeIDs(data []byte, what string) ([]int, []byte, error) {
	return consumeIDsInto(nil, data, what)
}

// consumeIDsInto is consumeIDs reusing dst's backing array when it has
// capacity; a non-empty list read into an empty dst still allocates.
func consumeIDsInto(dst []int, data []byte, what string) ([]int, []byte, error) {
	if len(data) < 4 {
		return dst, nil, fmt.Errorf("wire: %s length: %w", what, ErrTruncated)
	}
	n := int(binary.BigEndian.Uint32(data))
	data = data[4:]
	if n > MaxSpan {
		return dst, nil, fmt.Errorf("wire: %s of %d ids: %w", what, n, ErrCorrupt)
	}
	if len(data) < 4*n {
		return dst, nil, fmt.Errorf("wire: %s body: %w", what, ErrTruncated)
	}
	ids := dst[:0]
	if n == 0 {
		// Preserve the historical "empty list decodes as nil" shape when the
		// caller brought no storage.
		if dst == nil {
			ids = nil
		}
	} else if cap(ids) < n {
		ids = make([]int, n)
	} else {
		ids = ids[:n]
	}
	for i := 0; i < n; i++ {
		ids[i] = int(binary.BigEndian.Uint32(data[4*i:]))
	}
	return ids, data[4*n:], nil
}

// ReportSize returns the encoded size in bytes of a report for an n-process
// system whose interval spans k processes: the concrete form of the paper's
// "each message has size O(n)".
func ReportSize(n, k int) int {
	return 2 + 4 + 4 + 4 + 4 + 1 + 4 + 4*k + 2*vclock.WireSize(n)
}

// HeartbeatSize is the encoded size of a heartbeat with an empty covered
// set; HeartbeatWireSize accounts for one carrying k covered ids.
const HeartbeatSize = 2 + 4 + 4 + 1 + 4

// HeartbeatWireSize returns the encoded size of a heartbeat whose covered
// set lists k processes.
func HeartbeatWireSize(k int) int { return HeartbeatSize + 4*k }

// AttachSize is the encoded size of an attach frame with an empty covered
// set; AttachWireSize accounts for a request carrying k covered ids.
const AttachSize = 2 + 4 + 1 + 4 + 4

// AttachWireSize returns the encoded size of an attach frame whose covered
// set lists k processes.
func AttachWireSize(k int) int { return AttachSize + 4*k }
