package tcptransport

import (
	"bytes"
	"testing"
	"time"

	"hierdet/internal/wire"
)

// TestTenantFrameCoalescing: tenant-tagged frames are not packed together —
// every frame, tagged or bare, travels as itself and arrives byte-identical
// and in order. The mix — a run of two tenants' reports, a bare report, a
// run of tenant envelopes, another bare report — is queued while the peer is
// not listening yet, so the writer's first flush carries all of it.
func TestTenantFrameCoalescing(t *testing.T) {
	a := mustNew(t, Config{Listen: "127.0.0.1:0", DialBackoff: time.Millisecond, DialBackoffMax: 10 * time.Millisecond})
	t.Cleanup(func() { a.Close() })
	if err := a.Start(func(int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	probe := mustNew(t, Config{Listen: "127.0.0.1:0"})
	addr := probe.Addr()
	probe.Close()
	a.cfg.Peers = map[int]string{1: addr}

	const n = 4
	var sent [][]byte
	tagged := reportStream(2, 6, n)
	for i := range tagged {
		tagged[i].Tenant = uint32(7 + i%2)
		sent = append(sent, wire.EncodeReportV2(tagged[i]))
	}
	bare := reportStream(3, 2, n)
	sent = append(sent, wire.EncodeReportV2(bare[0]))
	for i := 0; i < 3; i++ {
		sent = append(sent, wire.AppendTenantEnvelope(nil, uint32(9+i),
			wire.EncodeHeartbeat(wire.Heartbeat{Sender: i, Epoch: 1})))
	}
	sent = append(sent, wire.EncodeReportV2(bare[1]))
	for _, f := range sent {
		a.Send(1, f)
	}

	b := mustNew(t, Config{Listen: addr})
	t.Cleanup(func() { b.Close() })
	var got collector
	if err := b.Start(got.recv); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "every frame", func() bool { return got.count() == len(sent) })

	got.mu.Lock()
	defer got.mu.Unlock()
	for i, f := range got.frames {
		if !bytes.Equal(f, sent[i]) {
			t.Fatalf("frame %d corrupted or reordered", i)
		}
	}
	if as, bs := a.Stats(), b.Stats(); as.FramesOut != len(sent) || bs.FramesIn != len(sent) {
		t.Fatalf("frame counts out=%d in=%d, want %d both", as.FramesOut, bs.FramesIn, len(sent))
	}
}

// TestSingleTaggedFrameTravelsBare: a lone tenant-tagged frame goes out as
// the one frame it is and arrives byte-identical.
func TestSingleTaggedFrameTravelsBare(t *testing.T) {
	a, b := pair(t)
	if err := a.Start(func(int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	var got collector
	if err := b.Start(got.recv); err != nil {
		t.Fatal(err)
	}
	env := wire.AppendTenantEnvelope(nil, 5, wire.EncodeHeartbeat(wire.Heartbeat{Sender: 1, Epoch: 1}))
	a.Send(1, env)
	waitFor(t, "the lone frame", func() bool { return got.count() == 1 })
	got.mu.Lock()
	frame := got.frames[0]
	got.mu.Unlock()
	if !bytes.Equal(frame, env) {
		t.Fatal("lone tagged frame corrupted")
	}
	if as, bs := a.Stats(), b.Stats(); as.FramesOut != 1 || bs.FramesIn != 1 {
		t.Fatalf("frame counts out=%d in=%d for a single tagged frame, want 1 both", as.FramesOut, bs.FramesIn)
	}
}

// TestTenantStreamsChainIndependently interleaves two tenants' report
// streams — same origin ids, different clocks — through one rebaser/unbaser
// pair, the shape one shared connection sees under a tenant plane. Every
// tenant's chain must stay intact: interleaving must not break the delta
// encoding (frames after the first still compress) and must decode back to
// exactly the frames sent, with tags preserved.
func TestTenantStreamsChainIndependently(t *testing.T) {
	const origin, count, n = 2, 8, 6
	streams := map[uint32][]wire.Report{
		0: reportStream(origin, count, n),
		7: reportStream(origin, count, n),
		9: reportStream(origin, count, n),
	}
	// Distinct clocks per tenant so a cross-tenant basis mix-up cannot
	// accidentally produce the right bytes.
	for tenant, reps := range streams {
		for i := range reps {
			reps[i].Tenant = tenant
			for c := range reps[i].Iv.Lo {
				reps[i].Iv.Lo[c] += tenant * 131071
				reps[i].Iv.Hi[c] += tenant * 131071
			}
		}
	}

	var rb rebaser
	rb.reset()
	var ub unbaser
	deltas := 0
	for i := 0; i < count; i++ {
		for _, tenant := range []uint32{0, 7, 9} { // interleave round-robin
			sent := wire.EncodeReportV2(streams[tenant][i])
			onWire := append([]byte(nil), rb.rebase(0, sent)...)
			if i > 0 && !wire.ReportIsDelta(onWire) {
				t.Fatalf("tenant %d frame %d did not chain", tenant, i)
			}
			if wire.ReportIsDelta(onWire) {
				deltas++
				if tn, err := wire.ReportTenantV2(onWire); err != nil || tn != tenant {
					t.Fatalf("rebase lost the tenant tag: %d, %v", tn, err)
				}
			}
			got, err := ub.undelta(0, onWire)
			if err != nil {
				t.Fatalf("tenant %d frame %d: %v", tenant, i, err)
			}
			if !bytes.Equal(got, sent) {
				t.Fatalf("tenant %d frame %d corrupted through the chain", tenant, i)
			}
		}
	}
	if deltas != 3*(count-1) {
		t.Fatalf("chained %d frames, want %d", deltas, 3*(count-1))
	}

	// Tenant envelopes are opaque to the chain on both sides, like batch
	// frames: pass-through, bases untouched.
	env := wire.AppendTenantEnvelope(nil, 7, wire.EncodeHeartbeat(wire.Heartbeat{Sender: 1, Epoch: 1}))
	key := [3]int{0, 7, origin}
	before := rb.bases[key].Clone()
	if out := rb.rebase(0, env); &out[0] != &env[0] {
		t.Fatal("rebaser rewrote a tenant envelope")
	}
	if !rb.bases[key].Equal(before) {
		t.Fatal("rebaser basis moved on a tenant envelope")
	}
	if out, err := ub.undelta(0, env); err != nil || &out[0] != &env[0] {
		t.Fatalf("unbaser rewrote a tenant envelope: %v", err)
	}
}
