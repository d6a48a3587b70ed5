package tenantplane

import (
	"context"
	"sync"
	"testing"
	"time"

	"hierdet/internal/livenet"
	"hierdet/internal/obsv"
	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// registerAndFeed puts one tenant on the plane and runs a small workload
// through it, returning the expected root-detection count.
func registerAndFeed(t *testing.T, p *Multiplexer, name string, seed int64) int {
	t.Helper()
	const rounds = 3
	topo := tree.Balanced(2, 2)
	h, err := p.RegisterPredicate(name, Spec{
		Topology: tree.Balanced(2, 2), Seed: seed,
		SequentialDetect: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := workload.Generate(workload.Config{Topology: topo, Rounds: rounds, Seed: seed, PGlobal: 1})
	for proc := range e.Streams {
		h.ObserveBatch(proc, e.Streams[proc])
	}
	return rounds
}

// TestMultiplexerCloseEqualsStop: Close+Detections is the same teardown as
// the deprecated Stop, and both are idempotent in their documented ways.
func TestMultiplexerCloseEqualsStop(t *testing.T) {
	viaStop := func() map[string][]livenet.Detection {
		p, err := NewMultiplexer(Config{})
		if err != nil {
			t.Fatal(err)
		}
		registerAndFeed(t, p, "alpha", 5)
		out := p.Stop()
		if second := p.Stop(); second != nil {
			t.Fatalf("second Stop returned %d tenants, want nil", len(second))
		}
		return out
	}()

	p, err := NewMultiplexer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	registerAndFeed(t, p, "alpha", 5)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	viaClose := p.Detections()
	if len(viaClose) != len(viaStop) {
		t.Fatalf("tenant count: Close %d, Stop %d", len(viaClose), len(viaStop))
	}
	for name, dets := range viaStop {
		if got := len(viaClose[name]); got != len(dets) {
			t.Fatalf("tenant %s: Close saw %d detections, Stop saw %d", name, got, len(dets))
		}
	}
}

// TestCloseAfterTenantClusterClosed: Handle.Cluster is exported, so a tenant's
// cluster can be closed without the plane hearing of it. Tearing the plane
// down afterwards must neither panic (the deprecated Cluster.Stop did, with
// "Stop called twice") nor lose that tenant's detections.
func TestCloseAfterTenantClusterClosed(t *testing.T) {
	p, err := NewMultiplexer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rounds := registerAndFeed(t, p, "early", 9)
	if err := p.Tenant("early").Cluster().Close(); err != nil {
		t.Fatalf("Cluster().Close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	roots := 0
	for _, d := range p.Detections()["early"] {
		if d.AtRoot {
			roots++
		}
	}
	if roots != rounds {
		t.Fatalf("root detections of the early-closed tenant = %d, want %d", roots, rounds)
	}
}

// TestMultiplexerShutdown: a clean Shutdown equals Close; Detections serves
// the result afterwards.
func TestMultiplexerShutdown(t *testing.T) {
	p, err := NewMultiplexer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rounds := registerAndFeed(t, p, "beta", 7)
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown after closed = %v, want nil", err)
	}
	roots := 0
	for _, d := range p.Detections()["beta"] {
		if d.AtRoot {
			roots++
		}
	}
	if roots != rounds {
		t.Fatalf("root detections = %d, want %d", roots, rounds)
	}
}

// TestMultiplexerShutdownDeadline: an expired deadline reopens the plane —
// the remaining tenants keep running, registration stays legal, and a later
// unbounded Shutdown finishes the job.
func TestMultiplexerShutdownDeadline(t *testing.T) {
	p, err := NewMultiplexer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A tenant with a long MaxDelay parks its reports' credits on the wheel
	// (the seed fixes the first at 161 ms), guaranteeing the bounded Shutdown
	// cannot quiesce in time.
	h, err := p.RegisterPredicate("gamma", Spec{
		Topology: tree.Chain(2), Seed: 3,
		SequentialDetect: true, MaxDelay: 600 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := workload.Generate(workload.Config{Topology: tree.Chain(2), Rounds: 2, Seed: 3, PGlobal: 1})
	for proc := range e.Streams {
		h.ObserveBatch(proc, e.Streams[proc])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("bounded Shutdown = %v, want context.DeadlineExceeded", err)
	}
	if p.Detections() != nil {
		t.Fatal("Detections non-nil after failed Shutdown")
	}
	// Plane reopened: registering another tenant must work.
	registerAndFeed(t, p, "delta", 11)
	if err := p.Shutdown(context.Background()); err != nil {
		t.Fatalf("unbounded Shutdown: %v", err)
	}
	out := p.Detections()
	if _, ok := out["gamma"]; !ok {
		t.Fatal("tenant gamma missing from final detections")
	}
	if _, ok := out["delta"]; !ok {
		t.Fatal("tenant delta missing from final detections")
	}
}

// TestMultiplexerEventsSubscription: Events mirrors Config.Events without
// construction-time presence — tenant-annotated cluster events arrive,
// cancel detaches, and a second subscriber is independent.
func TestMultiplexerEventsSubscription(t *testing.T) {
	p, err := NewMultiplexer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var mu sync.Mutex
	counts := map[obsv.EventKind]int{}
	tenants := map[string]bool{}
	cancel := p.Events(func(e obsv.Event) {
		mu.Lock()
		counts[e.Kind]++
		tenants[e.Tenant] = true
		mu.Unlock()
	})

	registerAndFeed(t, p, "eve", 13)
	h := p.Tenant("eve")
	h.Cluster().Drain()

	mu.Lock()
	if counts[obsv.TenantRegistered] != 1 {
		t.Fatalf("TenantRegistered events = %d, want 1", counts[obsv.TenantRegistered])
	}
	if counts[obsv.SolutionFound] == 0 {
		t.Fatal("no SolutionFound events reached the subscriber")
	}
	if !tenants["eve"] {
		t.Fatal("cluster events not annotated with the tenant id")
	}
	solBefore := counts[obsv.SolutionFound]
	mu.Unlock()

	cancel()
	cancel() // double-cancel is harmless

	// After cancel, a fresh workload's events must not arrive.
	e := workload.Generate(workload.Config{Topology: tree.Balanced(2, 2), Rounds: 2, Seed: 99, PGlobal: 1})
	for proc := range e.Streams {
		h.ObserveBatch(proc, e.Streams[proc])
	}
	h.Cluster().Drain()
	mu.Lock()
	if counts[obsv.SolutionFound] != solBefore {
		t.Fatalf("events after cancel: SolutionFound %d → %d", solBefore, counts[obsv.SolutionFound])
	}
	mu.Unlock()
}
