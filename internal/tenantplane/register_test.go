package tenantplane

import (
	"reflect"
	"strings"
	"testing"

	"hierdet/internal/livenet"
	"hierdet/internal/transport"
	"hierdet/internal/tree"
)

// TestRegisterRefusesPlaneOwnedFields: Scheduler, Transport and LocalNodes
// are the plane's to fill in. A spec that sets one is refused with an error
// naming the field, and the refusal reserves nothing: the same tenant id then
// registers.
func TestRegisterRefusesPlaneOwnedFields(t *testing.T) {
	sched := livenet.NewSharedScheduler(livenet.SharedSchedulerConfig{Workers: 1})
	defer sched.Close()
	for _, tc := range []struct {
		field string
		set   func(*Spec)
	}{
		{"Scheduler", func(s *Spec) { s.Scheduler = sched }},
		{"Transport", func(s *Spec) { s.Transport = transport.NewNetwork().Endpoint(0) }},
		{"LocalNodes", func(s *Spec) { s.LocalNodes = []int{0} }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			p, err := NewMultiplexer(Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			spec := Spec{Topology: tree.Chain(2)}
			tc.set(&spec)
			if _, err := p.RegisterPredicate("t", spec); err == nil || !strings.Contains(err.Error(), "Spec."+tc.field) {
				t.Fatalf("RegisterPredicate with Spec.%s set: err = %v, want one naming the field", tc.field, err)
			}
			if got := p.Tenants(); len(got) != 0 {
				t.Fatalf("Tenants() = %v after a refused registration, want none", got)
			}
			if _, err := p.RegisterPredicate("t", Spec{Topology: tree.Chain(2)}); err != nil {
				t.Fatalf("registering the refused id with a plain spec: %v", err)
			}
		})
	}
}

// TestRegisterRefusesForeignLocalNodes: a plane on a transport hosts
// Config.LocalNodes of every tenant's tree. A tenant whose topology lacks one
// of them is refused (livenet.Open's error) and what the registration had
// reserved — its id, wire id and mux port — is given back: the plane is left
// as it was, closes cleanly, and takes the id again once the topology has the
// node.
func TestRegisterRefusesForeignLocalNodes(t *testing.T) {
	p, err := NewMultiplexer(Config{Transport: transport.NewNetwork().Endpoint(5), LocalNodes: []int{5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterPredicate("small", Spec{Topology: tree.Chain(2)}); err == nil {
		t.Fatal("a tenant without the plane's node 5 registered")
	}
	if got := p.Tenants(); len(got) != 0 {
		t.Fatalf("Tenants() = %v after a refused registration, want none", got)
	}
	if _, err := p.RegisterPredicate("small", Spec{Topology: tree.Balanced(2, 2)}); err != nil {
		t.Fatalf("re-registering with a topology that has node 5: %v", err)
	}
	if got := p.Tenants(); !reflect.DeepEqual(got, []string{"small"}) {
		t.Fatalf("Tenants() = %v, want [small]", got)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
