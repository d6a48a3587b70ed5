package tenantplane

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hierdet/internal/interval"
	"hierdet/internal/livenet"
	"hierdet/internal/obsv"
	"hierdet/internal/transport"
	"hierdet/internal/transport/tcptransport"
	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// waitFor polls cond until it holds, failing the test on timeout.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// detBytes canonically serializes a detection list. Two runs of the same
// predicate over the same workload must produce byte-identical output — the
// isolation tests' equality currency. A solution Set holds one interval per
// queue and its order mirrors the node's child order, which after a repair
// depends on adoption timing; the serialization sorts each Set by origin so
// the comparison is over the solution itself, not the queue layout.
func detBytes(dets []livenet.Detection) []byte {
	var buf bytes.Buffer
	for _, d := range dets {
		set := values(d.Det.Set)
		sort.SliceStable(set, func(i, j int) bool {
			if set[i].Origin != set[j].Origin {
				return set[i].Origin < set[j].Origin
			}
			return set[i].Seq < set[j].Seq
		})
		fmt.Fprintf(&buf, "%d|%v|%d|%v|%+v\n", d.Node, d.AtRoot, d.Det.Node, set, d.Det.Agg)
	}
	return buf.Bytes()
}

// values copies a solution set's members out, for printing.
func values(set []*interval.Interval) []interval.Interval {
	out := make([]interval.Interval, len(set))
	for i, x := range set {
		out[i] = *x
	}
	return out
}

// killStableBytes is detBytes for runs that killed a mid-tree node. Whether
// the parent drops its dead child's queue before or after it adopts the
// orphans is a real race (both are suspicion-triggered), and with kept queue
// members the drop-first ordering yields an extra root detection over the
// momentarily shrunken queue set — a correct solution, but a
// schedule-dependent one, and it shifts the root's detection sequence
// numbers behind it. The projection below is exactly the deterministic part:
// root detections spanning the full or the survivor tree (phase 1 and
// phase 2 solutions), every non-root detection, and no root sequence
// numbers. Everything else about each solution — members, clocks, spans —
// is compared verbatim.
func killStableBytes(dets []livenet.Detection, fullSpan, survivorSpan int) []byte {
	var buf bytes.Buffer
	for _, d := range dets {
		if d.AtRoot {
			if n := len(d.Det.Agg.Span); n != fullSpan && n != survivorSpan {
				continue
			}
		}
		set := values(d.Det.Set)
		sort.SliceStable(set, func(i, j int) bool {
			if set[i].Origin != set[j].Origin {
				return set[i].Origin < set[j].Origin
			}
			return set[i].Seq < set[j].Seq
		})
		agg := d.Det.Agg
		fmt.Fprintf(&buf, "%d|%v|%d|%v|%d|%v|%v|%v\n",
			d.Node, d.AtRoot, d.Det.Node, set, agg.Origin, agg.Lo, agg.Hi, agg.Span)
	}
	return buf.Bytes()
}

// mergeDets combines per-participant Stop outputs into the order a single
// hosting cluster would have returned (livenet's Stop comparator).
func mergeDets(parts ...[]livenet.Detection) []livenet.Detection {
	var out []livenet.Detection
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Det.Agg.Seq < out[j].Det.Agg.Seq
	})
	return out
}

// tcpPairFor builds two TCP transports whose peer maps split the topology's
// nodes between them: every node in nodes1 resolves to the first listener,
// the rest to the second.
func tcpPairFor(t *testing.T, allNodes []int, nodes1 []int) (tr1, tr2 *tcptransport.Transport) {
	t.Helper()
	mk := func() *tcptransport.Transport {
		tr, err := tcptransport.New(tcptransport.Config{Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	tr1, tr2 = mk(), mk()
	in1 := make(map[int]bool, len(nodes1))
	for _, id := range nodes1 {
		in1[id] = true
	}
	peers1, peers2 := map[int]string{}, map[int]string{}
	for _, id := range allNodes {
		if in1[id] {
			peers2[id] = tr1.Addr()
		} else {
			peers1[id] = tr2.Addr()
		}
	}
	tr1.SetPeers(peers1)
	tr2.SetPeers(peers2)
	return tr1, tr2
}

const (
	isoPhase1 = 6
	isoPhase2 = 6
	isoVictim = 1 // mid-tree node of Balanced(2, 2); orphans 3 and 4
)

// isoSpec is the tenant-side cluster configuration of the isolation test;
// isolated references run livenet directly with the same values.
func isoSpec(topo *tree.Topology) Spec {
	return Spec{
		Topology: topo, Seed: 29, Strict: true, KeepMembers: true,
		HbEvery:      2 * time.Millisecond,
		StartupGrace: 20 * time.Millisecond,
	}
}

// runIsolatedPair runs one predicate on its own private two-participant TCP
// mesh — the single-tenant deployment the shared-mesh tenants are measured
// against — and returns its canonically merged detections. With kill set,
// node isoVictim dies between the phases and the §III-F repair runs.
func runIsolatedPair(t *testing.T, e *workload.Execution, kill bool) []livenet.Detection {
	t.Helper()
	build := func() *tree.Topology { return tree.Balanced(2, 2) }
	topo := build()
	nodes1, nodes2 := []int{0, 1, 2, 3}, []int{4, 5, 6}
	tr1, tr2 := tcpPairFor(t, topo.AliveNodes(), nodes1)

	repaired := make(chan int, 8)
	spec := isoSpec(nil)
	mkRef := func(tr *tcptransport.Transport, local []int) *livenet.Cluster {
		return livenet.New(livenet.Config{
			Topology: build(), Seed: spec.Seed, Strict: spec.Strict, KeepMembers: spec.KeepMembers,
			HbEvery: spec.HbEvery, StartupGrace: spec.StartupGrace,
			Transport: tr, LocalNodes: local,
			Events: func(e obsv.Event) {
				if e.Kind == obsv.RepairConcluded {
					repaired <- e.Node
				}
			},
		})
	}
	c1, c2 := mkRef(tr1, nodes1), mkRef(tr2, nodes2)
	host := func(p int) *livenet.Cluster {
		if p <= 3 {
			return c1
		}
		return c2
	}

	feed := func(lo, hi int) {
		var wg sync.WaitGroup
		for p := range e.Streams {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for k := lo; k < hi && k < len(e.Streams[p]); k++ {
					host(p).Observe(p, e.Streams[p][k])
					time.Sleep(10 * time.Microsecond)
				}
			}(p)
		}
		wg.Wait()
	}

	feed(0, isoPhase1)
	waitFor(t, "isolated phase-1 detections", func() bool {
		return c1.Metrics()[0].Detections >= isoPhase1
	})
	if kill {
		c1.Kill(isoVictim)
		for i := 0; i < 2; i++ {
			select {
			case <-repaired:
			case <-time.After(10 * time.Second):
				t.Fatal("isolated reference: timed out waiting for reattachment")
			}
		}
		waitFor(t, "isolated parent to drop dead child", func() bool {
			return c1.Metrics()[0].ChildDrops == 1
		})
	}
	feed(isoPhase1, isoPhase1+isoPhase2)
	waitFor(t, "isolated phase-2 detections", func() bool {
		return c1.Metrics()[0].Detections >= isoPhase1+isoPhase2
	})
	time.Sleep(20 * time.Millisecond) // settle: surplus detections would be a bug
	return mergeDets(c1.Stop(), c2.Stop())
}

// TestCrossTenantIsolation is the tenant plane's semantic contract: two
// tenants running identical workloads over ONE shared two-participant TCP
// mesh produce detections byte-identical to two isolated single-tenant
// deployments — through a mid-run Kill of one tenant's node and a lease
// failover of the monitor owning that tenant's bucket. The victim tenant
// repairs exactly like its isolated reference; the bystander tenant's output
// is untouched by its neighbour's failure.
func TestCrossTenantIsolation(t *testing.T) {
	build := func() *tree.Topology { return tree.Balanced(2, 2) }
	topo := build()
	e := workload.Generate(workload.Config{Topology: build(), Rounds: isoPhase1 + isoPhase2, Seed: 23, PGlobal: 1})

	refKilled := runIsolatedPair(t, e, true)
	refClean := runIsolatedPair(t, e, false)

	// Shared mesh: two fleet processes, each one Multiplexer, both in the
	// active/active monitor fleet on one lease table.
	nodes1, nodes2 := []int{0, 1, 2, 3}, []int{4, 5, 6}
	tr1, tr2 := tcpPairFor(t, topo.AliveNodes(), nodes1)
	tab := NewLeaseTable(200*time.Millisecond, nil)

	var alphaRepairs, leaseEvents atomic.Int64
	sink := func(ev obsv.Event) {
		switch ev.Kind {
		case obsv.RepairConcluded:
			if ev.Tenant == "alpha" {
				alphaRepairs.Add(1)
			}
		case obsv.LeaseAcquired, obsv.LeaseLost:
			leaseEvents.Add(1)
		}
	}
	mkPlane := func(tr *tcptransport.Transport, local []int, mon string) *Multiplexer {
		p, err := NewMultiplexer(Config{
			Transport: tr, LocalNodes: local,
			Monitor: mon, Leases: tab, LeaseEvery: 10 * time.Millisecond,
			Events: sink,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	plane1 := mkPlane(tr1, nodes1, "m1")
	plane2 := mkPlane(tr2, nodes2, "m2")
	defer plane1.Close()
	defer plane2.Close()

	reg := func(p *Multiplexer, tenant string) *Handle {
		h, err := p.RegisterPredicate(tenant, isoSpec(build()))
		if err != nil {
			t.Fatalf("RegisterPredicate(%s): %v", tenant, err)
		}
		return h
	}
	alpha := [2]*Handle{reg(plane1, "alpha"), reg(plane2, "alpha")}
	beta := [2]*Handle{reg(plane1, "beta"), reg(plane2, "beta")}

	feedTenant := func(h [2]*Handle, lo, hi int) {
		var wg sync.WaitGroup
		for p := range e.Streams {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				side := 0
				if p > 3 {
					side = 1
				}
				for k := lo; k < hi && k < len(e.Streams[p]); k++ {
					h[side].Observe(p, e.Streams[p][k])
					time.Sleep(10 * time.Microsecond)
				}
			}(p)
		}
		wg.Wait()
	}
	rootDets := func(h [2]*Handle) int { return h[0].Cluster().Metrics()[0].Detections }

	// Phase 1: both tenants to quiescence over the shared mesh.
	var wg sync.WaitGroup
	for _, h := range [][2]*Handle{alpha, beta} {
		wg.Add(1)
		go func(h [2]*Handle) { defer wg.Done(); feedTenant(h, 0, isoPhase1) }(h)
	}
	wg.Wait()
	waitFor(t, "phase-1 detections for both tenants", func() bool {
		return rootDets(alpha) >= isoPhase1 && rootDets(beta) >= isoPhase1
	})

	// Lease failover: the monitor owning alpha's bucket leaves the fleet;
	// the survivor must pick the bucket up within one TTL.
	bucket := BucketOf("alpha")
	waitFor(t, "alpha's bucket to be owned", func() bool { return tab.Owner(bucket) != "" })
	victimPlane, survivorPlane := plane1, plane2
	if tab.Owner(bucket) == "m2" {
		victimPlane, survivorPlane = plane2, plane1
	}
	survivorAlpha := alpha[0]
	if survivorPlane == plane2 {
		survivorAlpha = alpha[1]
	}
	handedOver := time.Now()
	victimPlane.Monitor().Stop()
	waitFor(t, "lease failover of alpha's bucket", func() bool { return survivorAlpha.Owned() })
	if took := time.Since(handedOver); took > tab.TTL() {
		t.Errorf("lease failover took %v, want within one TTL (%v)", took, tab.TTL())
	}
	if owner := tab.Owner(bucket); owner != survivorPlane.Monitor().ID() {
		t.Errorf("bucket %d owner = %q, want %q", bucket, owner, survivorPlane.Monitor().ID())
	}

	// Kill alpha's mid-tree node on its hosting plane. Beta shares the TCP
	// connections but must not notice.
	alpha[0].Cluster().Kill(isoVictim)
	waitFor(t, "alpha's reattachments", func() bool { return alphaRepairs.Load() >= 2 })
	waitFor(t, "alpha's parent to drop dead child", func() bool {
		return alpha[0].Cluster().Metrics()[0].ChildDrops == 1
	})

	// Phase 2: alpha detects over the survivor tree, beta over the full one.
	for _, h := range [][2]*Handle{alpha, beta} {
		wg.Add(1)
		go func(h [2]*Handle) { defer wg.Done(); feedTenant(h, isoPhase1, isoPhase1+isoPhase2) }(h)
	}
	wg.Wait()
	waitFor(t, "phase-2 detections for both tenants", func() bool {
		return rootDets(alpha) >= isoPhase1+isoPhase2 && rootDets(beta) >= isoPhase1+isoPhase2
	})
	time.Sleep(20 * time.Millisecond) // settle: surplus detections would be a bug

	gotAlpha := mergeDets(alpha[0].Stop(), alpha[1].Stop())
	gotBeta := mergeDets(beta[0].Stop(), beta[1].Stop())

	if !bytes.Equal(killStableBytes(gotAlpha, 7, 6), killStableBytes(refKilled, 7, 6)) {
		t.Errorf("alpha (shared mesh, kill) diverged from its isolated reference:\n got %d detections\nwant %d",
			len(gotAlpha), len(refKilled))
	}
	if !bytes.Equal(detBytes(gotBeta), detBytes(refClean)) {
		t.Errorf("beta (shared mesh, bystander) diverged from its isolated reference:\n got %d detections\nwant %d",
			len(gotBeta), len(refClean))
	}
	for i, h := range beta {
		for node, m := range h.Cluster().Metrics() {
			if m.BadFrames != 0 {
				t.Errorf("beta participant %d node %d: %d bad frames on a clean shared mesh", i, node, m.BadFrames)
			}
		}
	}
	if n := int(alphaRepairs.Load()); n != 2 {
		t.Errorf("alpha repairs = %d, want 2", n)
	}
	if leaseEvents.Load() == 0 {
		t.Error("no lease events; the monitor fleet never ran")
	}
}

// Test256TenantsSharedMesh is the scale acceptance run: 256 predicates
// multiplexed over one shared two-participant TCP mesh in one test process,
// each tenant's detections byte-identical to an isolated reference running
// its workload. Workloads cycle through four seeds, so four references
// cover all 256 tenants.
func Test256TenantsSharedMesh(t *testing.T) {
	tenants := 256
	if testing.Short() {
		tenants = 64
	}
	const rounds, seeds = 2, 4
	build := func() *tree.Topology { return tree.Chain(2) } // nodes 0 (root) and 1
	topo := build()

	spec := func(seed int64) Spec {
		return Spec{
			Topology: build(), Seed: seed, Strict: true, KeepMembers: true,
		}
	}

	// Four isolated references over the deterministic in-process Network,
	// same two-participant split.
	execs := make([]*workload.Execution, seeds)
	refs := make([][]byte, seeds)
	for s := 0; s < seeds; s++ {
		execs[s] = workload.Generate(workload.Config{Topology: build(), Rounds: rounds, Seed: int64(100 + s), PGlobal: 1})
		net := transport.NewNetwork()
		sp := spec(int64(100 + s))
		mk := func(id int) *livenet.Cluster {
			return livenet.New(livenet.Config{
				Topology: build(), Seed: sp.Seed, Strict: sp.Strict, KeepMembers: sp.KeepMembers,
				Workers:   1,
				Transport: net.Endpoint(id), LocalNodes: []int{id},
			})
		}
		c0, c1 := mk(0), mk(1)
		for k := 0; k < rounds; k++ {
			c0.Observe(0, execs[s].Streams[0][k])
			c1.Observe(1, execs[s].Streams[1][k])
		}
		waitFor(t, fmt.Sprintf("reference %d detections", s), func() bool {
			return c0.Metrics()[0].Detections >= rounds
		})
		time.Sleep(5 * time.Millisecond)
		refs[s] = detBytes(mergeDets(c0.Stop(), c1.Stop()))
	}

	// The shared mesh: two planes, one TCP connection pair, N tenants.
	tr1, tr2 := tcpPairFor(t, topo.AliveNodes(), []int{0})
	mkPlane := func(tr *tcptransport.Transport, local []int) *Multiplexer {
		p, err := NewMultiplexer(Config{Transport: tr, LocalNodes: local})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	plane1 := mkPlane(tr1, []int{0})
	plane2 := mkPlane(tr2, []int{1})
	defer plane1.Close()
	defer plane2.Close()

	handles := make([][2]*Handle, tenants)
	for k := range handles {
		name := fmt.Sprintf("tenant-%03d", k)
		sp := spec(int64(100 + k%seeds))
		h1, err := plane1.RegisterPredicate(name, sp)
		if err != nil {
			t.Fatalf("plane1 %s: %v", name, err)
		}
		h2, err := plane2.RegisterPredicate(name, sp)
		if err != nil {
			t.Fatalf("plane2 %s: %v", name, err)
		}
		handles[k] = [2]*Handle{h1, h2}
	}
	if got := len(plane1.Tenants()); got != tenants {
		t.Fatalf("plane1 tenants = %d, want %d", got, tenants)
	}

	for k, h := range handles {
		e := execs[k%seeds]
		for r := 0; r < rounds; r++ {
			h[0].Observe(0, e.Streams[0][r])
			h[1].Observe(1, e.Streams[1][r])
		}
	}
	waitFor(t, "every tenant's root detections", func() bool {
		for _, h := range handles {
			if h[0].Cluster().Metrics()[0].Detections < rounds {
				return false
			}
		}
		return true
	})
	time.Sleep(5 * time.Millisecond)

	for k, h := range handles {
		got := detBytes(mergeDets(h[0].Stop(), h[1].Stop()))
		if !bytes.Equal(got, refs[k%seeds]) {
			t.Fatalf("tenant %d diverged from its isolated reference (seed class %d)", k, k%seeds)
		}
	}
	if d := plane1.Registry(); d == nil {
		t.Fatal("plane registry missing")
	}
}
