package tcptransport

import (
	"sync/atomic"

	"hierdet/internal/obsv"
)

// instrument.go — the transport's seat in the cluster's observability plane.
//
// livenet.New type-asserts its Transport for this method before Start, so a
// TCP-backed cluster gets transport families in the same registry (and
// TransportRedial events on the same stream) as the detector planes without
// livenet importing this package.

// Instrument registers the transport's metric families with reg and installs
// events as the sink for TransportRedial. Every family is func-backed: the
// scrape reads the same atomics Stats does, so the write path pays nothing.
// Call before Start; calling it again replaces the sink but re-registering
// the families panics (registry redefinition), so wire one registry per
// transport.
func (t *Transport) Instrument(reg *obsv.Registry, events func(obsv.Event)) {
	t.mu.Lock()
	t.events = events
	t.mu.Unlock()

	counter := func(name, help string, v *atomic.Int64) {
		reg.Func(name, help, obsv.KindCounter, nil, func(emit func(float64, ...string)) {
			emit(float64(v.Load()))
		})
	}
	counter("hierdet_transport_frames_out_total", "Frames written to peers (redeliveries included).", &t.framesOut)
	counter("hierdet_transport_frames_in_total", "Frames delivered from peers.", &t.framesIn)
	counter("hierdet_transport_bytes_out_total", "Payload bytes written, after delta compression.", &t.bytesOut)
	counter("hierdet_transport_bytes_in_total", "Payload bytes read, before delta reconstruction.", &t.bytesIn)
	counter("hierdet_transport_redelivered_total", "Frames replayed from the links' unacknowledged logs after reconnects.", &t.redelivered)
	counter("hierdet_transport_dials_total", "Successful outbound dials.", &t.dials)
	counter("hierdet_transport_redials_total", "Reconnects among the successful dials.", &t.redials)
	counter("hierdet_transport_backlog_dropped_total", "Frames dropped because a destination's queue overflowed MaxBacklog.", &t.backlogDropped)
	counter("hierdet_transport_corrupt_frames_total", "Envelopes rejected by a reader (connection dropped).", &t.corruptFrames)
	counter("hierdet_transport_flushes_total", "Coalesced writes (one flush may carry many frames).", &t.flushes)
	counter("hierdet_transport_acks_out_total", "Acknowledgements written back to peers (8 bytes each, not in bytes_out).", &t.acksOut)

	reg.Func("hierdet_transport_peers", "Outbound links with a live writer: one per peer address sent to.",
		obsv.KindGauge, nil, func(emit func(float64, ...string)) {
			emit(float64(len(t.snapshotLinks())))
		})
	reg.Func("hierdet_transport_backlog_depth", "Frames queued across all links awaiting a write.",
		obsv.KindGauge, nil, func(emit func(float64, ...string)) {
			total := 0
			for _, l := range t.snapshotLinks() {
				l.mu.Lock()
				total += l.depth
				l.mu.Unlock()
			}
			emit(float64(total))
		})
	reg.Func("hierdet_transport_unacked_frames", "Frames written to peers and not yet acknowledged: what reconnects would replay.",
		obsv.KindGauge, nil, func(emit func(float64, ...string)) {
			emit(float64(t.unackedFrames()))
		})
}

// unackedFrames is the length of every link's log, summed.
func (t *Transport) unackedFrames() int {
	total := 0
	for _, l := range t.snapshotLinks() {
		l.mu.Lock()
		total += l.unackedLocked()
		l.mu.Unlock()
	}
	return total
}

// emitRedial reports a successful reconnect to the installed sink, if any:
// one event per reconnected link, whatever the number of destination ids
// behind it, carrying the id whose Send first opened the link (link.first).
// The event is emitted from the link's writer goroutine, so it is ordered
// per link (see obsv.TransportRedial).
func (t *Transport) emitRedial(first int) {
	t.mu.Lock()
	sink := t.events
	t.mu.Unlock()
	if sink != nil {
		sink(obsv.Event{Kind: obsv.TransportRedial, Node: first, Peer: obsv.NoPeer, Count: 1})
	}
}

// snapshotLinks copies the link set out from under the transport lock.
func (t *Transport) snapshotLinks() []*link {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotLinksLocked()
}

func (t *Transport) snapshotLinksLocked() []*link {
	out := make([]*link, 0, len(t.links))
	for _, l := range t.links {
		out = append(out, l)
	}
	return out
}
