package tcptransport

import (
	"bytes"
	"testing"

	"hierdet/internal/wire"
)

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
