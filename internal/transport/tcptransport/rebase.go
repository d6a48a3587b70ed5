package tcptransport

// Cross-frame delta compression for report streams (wire format v2).
//
// Successive reports from one origin are near-monotone (Theorem 2: the next
// interval starts causally after the previous one ended), so encoding each
// report's Lo against the previous report's Hi collapses it to a few runs of
// equal differences, mostly one copy (vclock.AppendDelta). That basis is
// stream state — a frame encoded against it is only decodable by a receiver
// that saw the previous frame — so the chaining lives entirely inside one TCP
// connection:
//
//   - the writer rebases outbound v2 report frames against a per-connection
//     basis map keyed by (destination, tenant, origin): a connection carries
//     the traffic of every node id behind its address, and an origin that a
//     repair moved from one parent to another starts a stream of its own to
//     the new one instead of continuing the old parent's chain (TCP keeps
//     the connection FIFO, so the receiver sees the frames in the order the
//     bases were chained);
//   - the bases reset on every (re)dial, and the link's log of
//     unacknowledged frames stores the original absolute frames, so replay
//     after a reconnect restarts the
//     chain from an absolute frame — a receiver that lost its state can
//     always resynchronize;
//   - the reader mirrors the writer: it un-deltas basis-relative frames back
//     to absolute ones before delivery, so resequencers and the runtime
//     above never see connection-scoped encodings.
//
// v1 frames, heartbeats, attach frames and (defensively) frames that are
// already basis-relative pass through untouched and leave the bases alone —
// on both sides, which is what keeps the two maps in lockstep.

import (
	"hierdet/internal/vclock"
	"hierdet/internal/wire"
)

// rebaser holds one connection's outbound delta state. Owned by the link's
// writeLoop; reset on every dial.
//
// Bases are keyed by (to, tenant, origin), the unbaser's key. The tenant is
// there because a tenant plane multiplexes many detection trees over one
// connection and origin ids collide across tenants — every tree numbers its
// processes from zero — so chaining tenant A's report against tenant B's Hi
// would corrupt both streams; the destination because one origin can have
// reports in flight to two parents across a repair. Single-tenant traffic is
// all tenant 0.
type rebaser struct {
	bases map[[3]int]vclock.VC // (to, tenant, origin) → Hi of the last report sent
	rep   wire.Report          // decode scratch, storage reused across frames
	buf   []byte               // encode scratch, valid until the next rebase call
}

func (e *rebaser) reset() {
	if e.bases == nil {
		e.bases = make(map[[3]int]vclock.VC)
	}
	clear(e.bases)
}

// rebase returns the bytes to put on the wire for a frame to destination
// `to`: a basis-relative re-encoding when a basis for the frame's origin
// stream to that destination exists, the frame itself otherwise. The returned
// slice may alias e.buf and is only valid until the next call. Frames the
// rebaser does not understand pass through verbatim — the transport moves
// opaque payloads and compression is strictly an optimization.
func (e *rebaser) rebase(to int, frame []byte) []byte {
	if !isAbsoluteV2Report(frame) {
		return frame
	}
	if err := wire.DecodeReportInto(frame, &e.rep, nil); err != nil {
		return frame
	}
	// AppendReportV2 round-trips e.rep.Tenant, so a tenant-tagged frame
	// stays tagged through the basis-relative re-encoding.
	key := [3]int{to, int(e.rep.Tenant), e.rep.Iv.Origin}
	out := frame
	if basis := e.bases[key]; basis.Len() == e.rep.Iv.Lo.Len() {
		e.buf = wire.AppendReportV2(e.buf[:0], e.rep, basis)
		out = e.buf
	}
	e.bases[key] = append(e.bases[key][:0], e.rep.Iv.Hi...)
	return out
}

// unbaser holds one inbound connection's delta state, mirroring the sending
// writer's rebaser. Owned by a readLoop.
//
// Absolute frames are not decoded here: their raw bytes are stashed and the
// basis they establish is recovered lazily when (if ever) a basis-relative
// frame follows, so a stream that never chains (a node that reports once a
// connection) costs the receiver one small copy instead of a decode.
type unbaser struct {
	bases   map[[3]int]vclock.VC // (to, tenant, origin) → Hi of the last delta-decoded report
	pending map[[3]int][]byte    // (to, tenant, origin) → raw bytes of the last absolute frame
	rep     wire.Report
	seed    wire.Report
	out     []byte // the rewritten frame, valid until the next undelta call
}

// undelta rewrites a basis-relative report frame into an equivalent absolute
// frame (in d.out: the receive callback it is delivered to does not keep
// frames) and maintains the basis chain. Frames that are not v2 reports, and
// absolute v2 reports, pass through verbatim. A basis-relative frame whose
// basis is missing or mismatched returns an error: the stream state is
// unrecoverable, so the caller must drop the connection and let the peer
// redial, which resets both ends' bases.
func (d *unbaser) undelta(to int, payload []byte) ([]byte, error) {
	if !wire.IsReportV2(payload) {
		return payload, nil
	}
	origin, err := wire.ReportOriginV2(payload)
	if err != nil {
		return nil, err
	}
	tenant, err := wire.ReportTenantV2(payload)
	if err != nil {
		return nil, err
	}
	key := [3]int{to, int(tenant), origin}
	if !wire.ReportIsDelta(payload) {
		// An absolute frame resets the origin's chain point: stash its raw
		// bytes (the basis inside is only decoded if a delta frame needs it)
		// and forget any decoded basis, which is now stale.
		if d.pending == nil {
			d.pending = make(map[[3]int][]byte)
		}
		d.pending[key] = append(d.pending[key][:0], payload...)
		delete(d.bases, key)
		return payload, nil
	}
	basis := d.bases[key]
	if basis == nil {
		if raw := d.pending[key]; len(raw) > 0 {
			if err := wire.DecodeReportInto(raw, &d.seed, nil); err != nil {
				return nil, err
			}
			basis = d.seed.Iv.Hi
		}
	}
	if err := wire.DecodeReportInto(payload, &d.rep, basis); err != nil {
		return nil, err
	}
	d.out = wire.AppendReportV2(d.out[:0], d.rep, nil)
	if d.bases == nil {
		d.bases = make(map[[3]int]vclock.VC)
	}
	d.bases[key] = append(d.bases[key][:0], d.rep.Iv.Hi...)
	if raw := d.pending[key]; raw != nil {
		d.pending[key] = raw[:0]
	}
	return d.out, nil
}

// isAbsoluteV2Report reports whether frame is a v2 report that is not
// already basis-relative — the only kind of frame the writer may rebase.
func isAbsoluteV2Report(frame []byte) bool {
	return wire.IsReportV2(frame) && !wire.ReportIsDelta(frame)
}
