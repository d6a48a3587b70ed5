package tcptransport

import (
	"sync"
	"testing"

	"hierdet/internal/interval"
	"hierdet/internal/repair"
	"hierdet/internal/vclock"
	"hierdet/internal/wire"
)

// reportStream builds a near-monotone succession of reports from one origin:
// each interval starts just after the previous one ended — the regime
// Theorem 2 guarantees and the delta chaining exploits.
func reportStream(origin, count, n int) []wire.Report {
	clock := make(vclock.VC, n)
	for c := range clock {
		clock[c] = uint32(1<<21 + c*977) // deep-run components, 3–4 varint bytes
	}
	out := make([]wire.Report, count)
	for i := range out {
		lo := clock.Clone()
		hi := clock.Clone()
		for c := range hi {
			hi[c] += uint32(1 + (i+c)%3)
		}
		clock = hi.Clone()
		clock[origin%n] += 2 // small gap before the next interval
		out[i] = wire.Report{Iv: interval.New(origin, i, lo, hi), LinkSeq: i, Epoch: 1}
	}
	return out
}

// reportSink collects decoded reports, asserting every delivered frame is
// self-contained (absolute): connection-scoped delta encodings must never
// escape the transport.
type reportSink struct {
	t  *testing.T
	mu sync.Mutex
	// got[origin][seq] = report
	got map[int]map[int]wire.Report
}

func (s *reportSink) recv(to int, frame []byte) {
	if wire.ReportIsDelta(frame) {
		s.t.Error("transport delivered a basis-relative frame")
		return
	}
	rep, err := wire.DecodeReport(frame)
	if err != nil {
		s.t.Errorf("delivered frame does not decode: %v", err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.got == nil {
		s.got = make(map[int]map[int]wire.Report)
	}
	m := s.got[rep.Iv.Origin]
	if m == nil {
		m = make(map[int]wire.Report)
		s.got[rep.Iv.Origin] = m
	}
	m[rep.Iv.Seq] = rep
}

func (s *reportSink) have(origin, count int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got[origin]) >= count
}

func (s *reportSink) check(t *testing.T, want []wire.Report) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range want {
		g, ok := s.got[w.Iv.Origin][w.Iv.Seq]
		if !ok {
			t.Fatalf("report P%d#%d never arrived", w.Iv.Origin, w.Iv.Seq)
		}
		if !g.Iv.Lo.Equal(w.Iv.Lo) || !g.Iv.Hi.Equal(w.Iv.Hi) || g.LinkSeq != w.LinkSeq || g.Epoch != w.Epoch {
			t.Fatalf("report P%d#%d arrived altered: %+v vs %+v", w.Iv.Origin, w.Iv.Seq, g, w)
		}
	}
}

// TestDeltaChainingShrinksWire sends a near-monotone report stream and
// checks (a) every report arrives intact and absolute, and (b) the payload
// bytes on the wire are a small fraction of the absolute v2 encodings —
// the cross-frame compression actually engaged.
func TestDeltaChainingShrinksWire(t *testing.T) {
	a, b := pair(t)
	sink := &reportSink{t: t}
	if err := a.Start(func(int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(sink.recv); err != nil {
		t.Fatal(err)
	}
	stream := reportStream(3, 50, 32)
	absolute := 0
	for _, rep := range stream {
		frame := wire.EncodeReportV2(rep)
		absolute += len(frame)
		a.Send(1, frame)
	}
	waitFor(t, "all reports", func() bool { return sink.have(3, len(stream)) })
	sink.check(t, stream)
	if got := a.Stats().BytesOut; got >= absolute/2 {
		t.Fatalf("wire payload %d bytes, want well under half the absolute %d", got, absolute)
	}
}

// TestDeltaChainingSurvivesReconnect severs the connection mid-stream: the
// replayed frames come from the link's log as absolute originals and
// restart the chain, so every report must still arrive intact even though
// both ends threw their bases away.
func TestDeltaChainingSurvivesReconnect(t *testing.T) {
	a, b := pair(t)
	sink := &reportSink{t: t}
	if err := a.Start(func(int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(sink.recv); err != nil {
		t.Fatal(err)
	}
	// Two interleaved origin streams exercise the per-origin basis keying.
	s3, s5 := reportStream(3, 40, 16), reportStream(5, 40, 16)
	for i := range s3 {
		a.Send(1, wire.EncodeReportV2(s3[i]))
		a.Send(1, wire.EncodeReportV2(s5[i]))
		if i == 13 || i == 27 {
			waitFor(t, "partial delivery", func() bool { return sink.have(3, i) })
			a.DisconnectPeer(1)
		}
	}
	waitFor(t, "all reports", func() bool {
		return sink.have(3, len(s3)) && sink.have(5, len(s5))
	})
	sink.check(t, s3)
	sink.check(t, s5)
	if a.Stats().Redials == 0 {
		t.Fatal("disconnects did not force a redial")
	}
}

// TestMixedTrafficPassesThrough interleaves v1 reports, heartbeats and v2
// reports on one connection: non-v2 frames must pass through byte-identical
// and must not disturb the delta chain.
func TestMixedTrafficPassesThrough(t *testing.T) {
	a, b := pair(t)
	sink := &reportSink{t: t}
	var hbs struct {
		mu sync.Mutex
		n  int
	}
	recv := func(to int, frame []byte) {
		k, err := wire.FrameKind(frame)
		if err != nil {
			t.Errorf("undecodable frame: %v", err)
			return
		}
		if k == wire.KindHeartbeat {
			if _, err := wire.DecodeHeartbeat(frame); err != nil {
				t.Errorf("heartbeat altered in flight: %v", err)
			}
			hbs.mu.Lock()
			hbs.n++
			hbs.mu.Unlock()
			return
		}
		sink.recv(to, frame)
	}
	if err := a.Start(func(int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(recv); err != nil {
		t.Fatal(err)
	}
	stream := reportStream(2, 30, 8)
	for i, rep := range stream {
		if i%2 == 0 {
			a.Send(1, wire.EncodeReportV2(rep))
		} else {
			v1, err := wire.EncodeReport(rep)
			if err != nil {
				t.Fatal(err)
			}
			a.Send(1, v1)
		}
		a.Send(1, wire.EncodeHeartbeat(wire.Heartbeat{Sender: 2, Epoch: 1, Covered: []int{2}}))
	}
	waitFor(t, "all traffic", func() bool {
		hbs.mu.Lock()
		defer hbs.mu.Unlock()
		return sink.have(2, len(stream)) && hbs.n >= len(stream)
	})
	sink.check(t, stream)
}

// TestUndeltaRejectsOrphanDeltaFrame: a basis-relative frame arriving with
// no chain state (as after a receiver restart) must kill the connection
// rather than misdecode.
func TestUndeltaRejectsOrphanDeltaFrame(t *testing.T) {
	var ub unbaser
	rep := wire.Report{Iv: interval.New(1, 4, vclock.Of(100, 200), vclock.Of(101, 202))}
	orphan := wire.AppendReportV2(nil, rep, vclock.Of(99, 199))
	if _, err := ub.undelta(7, orphan); err == nil {
		t.Fatal("orphan delta frame accepted")
	}
	// After the absolute form seeds the chain, the same delta frame decodes.
	if _, err := ub.undelta(7, wire.AppendReportV2(nil, wire.Report{
		Iv: interval.New(1, 3, vclock.Of(98, 198), vclock.Of(99, 199)),
	}, nil)); err != nil {
		t.Fatal(err)
	}
	out, err := ub.undelta(7, orphan)
	if err != nil {
		t.Fatal(err)
	}
	back, err := wire.DecodeReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Iv.Lo.Equal(rep.Iv.Lo) || !back.Iv.Hi.Equal(rep.Iv.Hi) {
		t.Fatalf("un-deltaed report altered: %+v vs %+v", back, rep)
	}
}

// TestBatchFramesPassThrough: a report-batch frame carries its own
// intra-frame delta chain, so the connection-scoped machinery must treat it
// as opaque on both sides — pass it through verbatim and leave the basis
// maps exactly as they were, or the next single-report frame would decode
// against the wrong chain point.
func TestBatchFramesPassThrough(t *testing.T) {
	stream := reportStream(3, 6, 4)
	reps := make([]repair.Report, len(stream))
	for i, r := range stream {
		reps[i] = repair.Report{Iv: r.Iv, LinkSeq: r.LinkSeq, Epoch: r.Epoch}
	}
	batch := wire.AppendReportBatch(nil, reps)

	var rb rebaser
	rb.reset()
	single0 := wire.EncodeReportV2(stream[0])
	rb.rebase(0, single0) // establishes a basis for origin 3
	basisBefore := rb.bases[[3]int{0, 0, 3}].Clone()
	if out := rb.rebase(0, batch); &out[0] != &batch[0] {
		t.Fatal("rebaser re-encoded a batch frame instead of passing it through")
	}
	if !rb.bases[[3]int{0, 0, 3}].Equal(basisBefore) {
		t.Fatalf("rebaser basis moved on a batch frame: %v -> %v", basisBefore, rb.bases[[3]int{0, 0, 3}])
	}
	// A subsequent single report still delta-encodes against the pre-batch
	// basis, and the mirrored unbaser recovers it.
	single1 := wire.EncodeReportV2(stream[1])
	delta := append([]byte(nil), rb.rebase(0, single1)...)
	if !wire.ReportIsDelta(delta) {
		t.Fatal("chain broke: single report after a batch frame is not a delta")
	}

	var ub unbaser
	if _, err := ub.undelta(0, single0); err != nil {
		t.Fatal(err)
	}
	out, err := ub.undelta(0, batch)
	if err != nil {
		t.Fatalf("unbaser rejected a batch frame: %v", err)
	}
	if &out[0] != &batch[0] {
		t.Fatal("unbaser rewrote a batch frame instead of passing it through")
	}
	back, err := wire.DecodeReportBatch(out)
	if err != nil || len(back) != len(reps) {
		t.Fatalf("batch frame corrupted in transit: %d reports, err %v", len(back), err)
	}
	abs, err := ub.undelta(0, delta)
	if err != nil {
		t.Fatalf("single delta after batch frame failed to undelta: %v", err)
	}
	rep, err := wire.DecodeReport(abs)
	if err != nil || !rep.Iv.Hi.Equal(stream[1].Iv.Hi) {
		t.Fatalf("post-batch single report arrived altered: %+v, err %v", rep, err)
	}
}
