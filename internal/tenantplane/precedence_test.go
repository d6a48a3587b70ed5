package tenantplane

import (
	"testing"

	"hierdet/internal/livenet"
	"hierdet/internal/tree"
)

// TestSizingPrecedence pins what is still decided about sizing on a plane.
// Pool sizing is plane-level only — a tenant reports the plane pool's size,
// there being nothing in its Spec to ask otherwise with — while the mailbox
// bound stays per-tenant with the documented fallback chain:
// Spec.MailboxBound over Config.MailboxBound over livenet's default.
// Standalone clusters size their own substrate.
func TestSizingPrecedence(t *testing.T) {
	plane, err := NewMultiplexer(Config{Workers: 3, MailboxBound: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()

	reg := func(name string, spec Spec) *Handle {
		t.Helper()
		spec.Topology = tree.Chain(2)
		h, err := plane.RegisterPredicate(name, spec)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	// The cluster rides the plane's substrate and reports its pool's size.
	plain := reg("plain", Spec{})
	if !plain.Cluster().Shared() {
		t.Fatal("plane tenant is not on the shared substrate")
	}
	if got := plain.Cluster().Workers(); got != 3 {
		t.Errorf("tenant on a Workers=3 plane: Workers() = %d, want 3", got)
	}
	// Config.MailboxBound is the tenant default…
	if got := plain.Cluster().MailboxBound(); got != 128 {
		t.Errorf("tenant without Spec.MailboxBound: MailboxBound() = %d, want Config's 128", got)
	}
	// …and a nonzero Spec.MailboxBound overrides it per tenant.
	tight := reg("tight", Spec{MailboxBound: 32})
	if got := tight.Cluster().MailboxBound(); got != 32 {
		t.Errorf("tenant with Spec.MailboxBound=32: MailboxBound() = %d, want 32 (Spec wins)", got)
	}

	// A bare plane falls through to livenet's default bound.
	bare, err := NewMultiplexer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	def, err := bare.RegisterPredicate("def", Spec{Topology: tree.Chain(2)})
	if err != nil {
		t.Fatal(err)
	}
	if got := def.Cluster().MailboxBound(); got != 4096 {
		t.Errorf("tenant on a bare plane: MailboxBound() = %d, want livenet default 4096", got)
	}

	// Standalone clusters honor the per-cluster knobs.
	solo := livenet.New(livenet.Config{
		Topology: tree.Chain(2), Workers: 2, MailboxBound: 77,
	})
	defer solo.Close()
	if solo.Shared() {
		t.Fatal("standalone cluster reports a shared substrate")
	}
	if got := solo.Workers(); got != 2 {
		t.Errorf("standalone Workers() = %d, want 2", got)
	}
	if got := solo.MailboxBound(); got != 77 {
		t.Errorf("standalone MailboxBound() = %d, want 77", got)
	}
}
