package tenantplane

import (
	"runtime"
	"testing"

	"hierdet/internal/livenet"
	"hierdet/internal/tree"
)

// TestSizingPrecedence pins what is still decided about sizing. Pool sizing
// is plane-level only — a tenant reports the plane pool's size, there being
// nothing in its Spec to ask otherwise with — while the mailbox bound stays
// per tenant: Spec.MailboxBound when set, livenet's default (4096) when not.
// A standalone cluster sizes its own pool at GOMAXPROCS.
func TestSizingPrecedence(t *testing.T) {
	plane, err := NewMultiplexer(Config{Workers: 3})
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
	if got := plain.Cluster().MailboxBound(); got != 4096 {
		t.Errorf("tenant without Spec.MailboxBound: MailboxBound() = %d, want livenet default 4096", got)
	}
	tight := reg("tight", Spec{MailboxBound: 32})
	if got := tight.Cluster().MailboxBound(); got != 32 {
		t.Errorf("tenant with Spec.MailboxBound=32: MailboxBound() = %d, want 32", got)
	}

	solo := livenet.New(livenet.Config{Topology: tree.Chain(2)})
	defer solo.Close()
	if solo.Shared() {
		t.Fatal("standalone cluster reports a shared substrate")
	}
	if got, want := solo.Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("standalone Workers() = %d, want GOMAXPROCS %d", got, want)
	}
}
