package wire

import (
	"bytes"
	"errors"
	"testing"

	"hierdet/internal/vclock"
)

// TestReportTenantRoundTrip pins the tenant tag's encoding contract: tenant 0
// encodes byte-identically to a pre-tenant frame, nonzero tenants round-trip
// through encode/decode, and ReportTenantV2/ReportOriginV2 read the header
// without decoding the clocks.
func TestReportTenantRoundTrip(t *testing.T) {
	base := v2Report(3, 7, 42, 6, vclock.Of(1, 2, 3, 4), vclock.Of(5, 6, 7, 8))
	plain := EncodeReportV2(base)

	tagged := base
	tagged.Tenant = 0
	if got := EncodeReportV2(tagged); !bytes.Equal(got, plain) {
		t.Fatal("tenant 0 must encode byte-identically to an untagged frame")
	}
	if tn, err := ReportTenantV2(plain); err != nil || tn != 0 {
		t.Fatalf("ReportTenantV2(untagged) = %d, %v; want 0, nil", tn, err)
	}

	for _, tenant := range []uint32{1, 200, 1 << 20, 1<<32 - 1} {
		tagged.Tenant = tenant
		data := EncodeReportV2(tagged)
		if len(data) != ReportSizeV2(tagged, nil) {
			t.Fatalf("tenant %d: encoded %d bytes, ReportSizeV2 says %d", tenant, len(data), ReportSizeV2(tagged, nil))
		}
		if !IsReportV2(data) || ReportIsDelta(data) {
			t.Fatalf("tenant %d: frame misclassified", tenant)
		}
		if tn, err := ReportTenantV2(data); err != nil || tn != tenant {
			t.Fatalf("ReportTenantV2 = %d, %v; want %d, nil", tn, err, tenant)
		}
		if origin, err := ReportOriginV2(data); err != nil || origin != 3 {
			t.Fatalf("tenant %d: ReportOriginV2 = %d, %v; want 3, nil", tenant, origin, err)
		}
		back, err := DecodeReport(data)
		if err != nil {
			t.Fatal(err)
		}
		sameReport(t, back, tagged, "tagged")
		if back.Tenant != tenant {
			t.Fatalf("decoded tenant = %d, want %d", back.Tenant, tenant)
		}
	}

	// A tagged basis-relative frame keeps its tag through the delta path.
	tagged.Tenant = 9
	basis := vclock.Of(1, 1, 1, 1)
	delta := AppendReportV2(nil, tagged, basis)
	if !ReportIsDelta(delta) {
		t.Fatal("basis-relative tagged frame not flagged as delta")
	}
	if tn, err := ReportTenantV2(delta); err != nil || tn != 9 {
		t.Fatalf("ReportTenantV2(delta) = %d, %v", tn, err)
	}
	var back Report
	if err := DecodeReportInto(delta, &back, basis); err != nil {
		t.Fatal(err)
	}
	sameReport(t, back, tagged, "tagged delta")
	if back.Tenant != 9 {
		t.Fatalf("delta-decoded tenant = %d, want 9", back.Tenant)
	}

	// Decoding an untagged frame into reused storage must reset Tenant.
	if err := DecodeReportInto(plain, &back, nil); err != nil {
		t.Fatal(err)
	}
	if back.Tenant != 0 {
		t.Fatalf("reused decode kept stale tenant %d", back.Tenant)
	}
}

// TestTagStripReportTenant pins the splice helpers against the encoder: the
// spliced-on tag must be byte-identical to encoding with Report.Tenant set,
// and stripping must restore the original frame and report the tag.
func TestTagStripReportTenant(t *testing.T) {
	r := v2Report(5, 2, 11, 1, vclock.Of(10, 20, 30), vclock.Of(11, 22, 33))
	plain := EncodeReportV2(r)

	spliced, err := TagReportTenant(nil, 77, plain)
	if err != nil {
		t.Fatal(err)
	}
	direct := r
	direct.Tenant = 77
	if !bytes.Equal(spliced, EncodeReportV2(direct)) {
		t.Fatal("spliced tag differs from direct encoding")
	}

	stripped, tenant, err := StripReportTenant(nil, spliced)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != 77 || !bytes.Equal(stripped, plain) {
		t.Fatalf("strip = tenant %d, frame equal %t", tenant, bytes.Equal(stripped, plain))
	}

	// Double-tagging and stripping an untagged frame are caller bugs the
	// helpers must reject rather than corrupt.
	if _, err := TagReportTenant(nil, 1, spliced); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("double tag: %v, want ErrCorrupt", err)
	}
	if _, _, err := StripReportTenant(nil, plain); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strip untagged: %v, want ErrCorrupt", err)
	}
	if _, err := TagReportTenant(nil, 1, []byte{magic, KindReport}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tag v1 frame: %v, want ErrCorrupt", err)
	}
}

// TestTenantEnvelopeRoundTrip covers the envelope framing for non-report
// frames: wrap, classify, unwrap, and reject the malformed shapes.
func TestTenantEnvelopeRoundTrip(t *testing.T) {
	inner := EncodeHeartbeat(Heartbeat{Sender: 4, Epoch: 2, Covered: []int{4, 5}})
	env := AppendTenantEnvelope(nil, 300, inner)
	if len(env) != TenantEnvelopeSize(300, len(inner)) {
		t.Fatalf("envelope is %d bytes, TenantEnvelopeSize says %d", len(env), TenantEnvelopeSize(300, len(inner)))
	}
	if !IsTenantEnvelope(env) || IsTenantEnvelope(inner) {
		t.Fatal("IsTenantEnvelope misclassified")
	}
	if k, err := FrameKind(env); err != nil || k != KindTenantEnv {
		t.Fatalf("FrameKind = %d, %v", k, err)
	}
	// Kind 6 was a tenant batch (runs of tagged frames packed into one); it
	// is retired, so a peer still sending one is refused, not misread.
	if _, err := FrameKind([]byte{magic, verV2, 6, 0x01, 0x00}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("FrameKind accepted the retired tenant batch kind: %v", err)
	}
	tenant, got, err := DecodeTenantEnvelope(env)
	if err != nil || tenant != 300 || !bytes.Equal(got, inner) {
		t.Fatalf("decode = %d, equal %t, %v", tenant, bytes.Equal(got, inner), err)
	}
	if hb, err := DecodeHeartbeat(got); err != nil || hb.Sender != 4 {
		t.Fatalf("inner heartbeat: %+v, %v", hb, err)
	}

	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"not an envelope", inner, ErrCorrupt},
		{"truncated header", []byte{magic, verV2}, ErrCorrupt},
		{"missing tenant varint", []byte{magic, verV2, KindTenantEnv}, ErrTruncated},
		{"unterminated tenant varint", []byte{magic, verV2, KindTenantEnv, 0x80}, ErrTruncated},
		{"tenant overflows u32", append([]byte{magic, verV2, KindTenantEnv}, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f), ErrCorrupt},
		{"default tenant enveloped", []byte{magic, verV2, KindTenantEnv, 0x00, 0x01}, ErrCorrupt},
		{"empty inner frame", []byte{magic, verV2, KindTenantEnv, 0x05}, ErrTruncated},
	} {
		if _, _, err := DecodeTenantEnvelope(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestReportHeaderTruncatedVarints is the table the ReportOriginV2 fix was
// missing: truncated and overlong varints in the v2 report header must come
// back as the right typed error from the cheap header readers and the full
// decoder alike — never as a misread id.
func TestReportHeaderTruncatedVarints(t *testing.T) {
	hdr := func(flags byte, rest ...byte) []byte {
		return append([]byte{magic, verV2, KindReport, flags}, rest...)
	}
	overflow := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // uvarint > 1<<32-1
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty body", hdr(0), ErrTruncated},
		{"origin varint cut mid-byte", hdr(0, 0x80), ErrTruncated},
		{"origin varint cut after two bytes", hdr(0, 0xff, 0x80), ErrTruncated},
		{"origin overflows u32", hdr(0, overflow...), ErrCorrupt},
		{"tagged: tenant varint missing", hdr(flagTenant), ErrTruncated},
		{"tagged: tenant varint cut mid-byte", hdr(flagTenant, 0x80), ErrTruncated},
		{"tagged: tenant overflows u32", hdr(flagTenant, overflow...), ErrCorrupt},
		{"tagged: origin missing after tenant", hdr(flagTenant, 0x07), ErrTruncated},
		{"tagged: origin cut after tenant", hdr(flagTenant, 0x07, 0x80), ErrTruncated},
		{"not a v2 report", []byte{magic, KindReport, 0, 0}, ErrCorrupt},
		{"short frame", []byte{magic, verV2, KindReport}, ErrCorrupt},
	}
	for _, tc := range cases {
		if _, err := ReportOriginV2(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("ReportOriginV2(%s): err = %v, want %v", tc.name, err, tc.want)
		}
		var r Report
		if err := DecodeReportInto(tc.data, &r, nil); err == nil {
			t.Errorf("DecodeReportInto(%s): accepted a broken header", tc.name)
		} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
			t.Errorf("DecodeReportInto(%s): untyped error %v", tc.name, err)
		}
	}
	// ReportTenantV2 shares the tagged-header cases.
	for _, tc := range cases[4:7] {
		if _, err := ReportTenantV2(tc.data); !errors.Is(err, tc.want) {
			t.Errorf("ReportTenantV2(%s): err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// A tagged zero tenant is a frame no encoder produces: corrupt.
	if err := DecodeReportInto(hdr(flagTenant, 0x00, 0x03), &Report{}, nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("tagged zero tenant: err = %v, want ErrCorrupt", err)
	}
}
