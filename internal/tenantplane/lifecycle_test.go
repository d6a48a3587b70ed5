package tenantplane

import (
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

// TestMultiplexerCloseEqualsStop pins the plane's one way down: Detections
// is nil until Close has returned, Close is idempotent and leaves Detections
// unchanged, every tenant's detections are there, and a closed plane takes
// no registration.
func TestMultiplexerCloseEqualsStop(t *testing.T) {
	p, err := NewMultiplexer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rounds := registerAndFeed(t, p, "alpha", 5)
	if p.Detections() != nil {
		t.Fatal("Detections non-nil before Close")
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	first := p.Detections()
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got := p.Detections(); len(got) != 1 || len(got["alpha"]) != len(first["alpha"]) {
		t.Fatalf("Detections changed across a second Close: %d tenants, %d → %d alpha detections",
			len(got), len(first["alpha"]), len(got["alpha"]))
	}
	if got := countRoots(first["alpha"]); got != rounds {
		t.Fatalf("alpha root detections = %d, want %d", got, rounds)
	}
	if _, err := p.RegisterPredicate("late", Spec{Topology: tree.Chain(2)}); err == nil {
		t.Fatal("RegisterPredicate on a closed plane succeeded")
	}
}

// countRoots counts the root detections in a list.
func countRoots(dets []livenet.Detection) int {
	roots := 0
	for _, d := range dets {
		if d.AtRoot {
			roots++
		}
	}
	return roots
}

// TestConcurrentCloseWaitsForTeardown: a Close racing another Close returns
// only once the plane is down, so Detections read right after either call
// holds every tenant's detections. Both tenants' long MaxDelay keeps the
// first Close quiescing well past the moment the second one starts.
func TestConcurrentCloseWaitsForTeardown(t *testing.T) {
	p, err := NewMultiplexer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 2
	for i, name := range []string{"alpha", "beta"} {
		seed := int64(3 + i)
		h, err := p.RegisterPredicate(name, Spec{Topology: tree.Chain(2), Seed: seed, MaxDelay: 100 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		e := workload.Generate(workload.Config{Topology: tree.Chain(2), Rounds: rounds, Seed: seed, PGlobal: 1})
		for proc := range e.Streams {
			h.ObserveBatch(proc, e.Streams[proc])
		}
	}
	seen := make(chan map[string][]livenet.Detection, 2)
	closeAndRead := func() {
		p.Close()
		seen <- p.Detections()
	}
	go closeAndRead()
	time.Sleep(5 * time.Millisecond)
	go closeAndRead()
	for i := 0; i < 2; i++ {
		out := <-seen
		for _, name := range []string{"alpha", "beta"} {
			if got := countRoots(out[name]); got != rounds {
				t.Fatalf("Close %d returned with %d root detections for %s, want %d", i, got, name, rounds)
			}
		}
	}
}

// TestCloseAfterTenantClusterClosed: Handle.Cluster is exported, so a tenant's
// cluster can be closed without the plane hearing of it. Tearing the plane
// down afterwards must neither panic nor lose that tenant's detections.
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
	if roots := countRoots(p.Detections()["early"]); roots != rounds {
		t.Fatalf("root detections of the early-closed tenant = %d, want %d", roots, rounds)
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
