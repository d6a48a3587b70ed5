package tenantplane

import (
	"fmt"
	"runtime"
	"testing"

	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// tenantFootprint measures the steady-state cost of holding `tenants` idle
// registered predicates on one plane: the process goroutine count and the
// live heap bytes per tenant (GC'd before and after registration, so the
// delta is retained structures, not allocation churn). Run outside the timed
// loop — the GCs would otherwise pollute the throughput numbers.
func tenantFootprint(b *testing.B, tenants int) (goroutines int, bytesPerTenant float64) {
	b.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	plane, err := NewMultiplexer(Config{})
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < tenants; k++ {
		if _, err := plane.RegisterPredicate(fmt.Sprintf("fp-%03d", k), Spec{
			Topology: tree.Balanced(2, 5),
			Seed:     int64(k + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
	goroutines = runtime.NumGoroutine()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc {
		bytesPerTenant = float64(after.HeapAlloc-before.HeapAlloc) / float64(tenants)
	}
	plane.Close()
	return goroutines, bytesPerTenant
}

// BenchmarkMultiTenant measures the cost of multiplexing: the same total
// predicate work spread over 1, 16 and 256 tenants at a fixed tree size.
// Every tenant runs the full workload, so throughput is expected to scale
// with the tenant count while per-tenant throughput shows the multiplexing
// overhead (registration, per-cluster planes, plane bookkeeping) against the
// tenants=1 baseline. Every tenant is seated on the plane's one substrate,
// each node's detection inline on the worker draining it, so the lane
// measures the plane, not GOMAXPROCS contention between 256 worker pools.
func BenchmarkMultiTenant(b *testing.B) {
	const rounds = 4
	topo := tree.Balanced(2, 5) // p = 63
	p := topo.N()
	e := workload.Generate(workload.Config{Topology: topo, Rounds: rounds, Seed: 42, PGlobal: 1})
	perTenant := 0
	for _, s := range e.Streams {
		perTenant += len(s)
	}

	for _, tenants := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("p=%d/tenants=%d", p, tenants), func(b *testing.B) {
			goroutines, bytesPerTenant := tenantFootprint(b, tenants)
			roots := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plane, err := NewMultiplexer(Config{})
				if err != nil {
					b.Fatal(err)
				}
				handles := make([]*Handle, tenants)
				for k := range handles {
					h, err := plane.RegisterPredicate(fmt.Sprintf("bench-%03d", k), Spec{
						Topology: tree.Balanced(2, 5),
						Seed:     int64(i*tenants + k + 1),
					})
					if err != nil {
						b.Fatal(err)
					}
					handles[k] = h
				}
				for _, h := range handles {
					for proc := range e.Streams {
						h.ObserveBatch(proc, e.Streams[proc])
					}
				}
				plane.Close()
				for name, dets := range plane.Detections() {
					_ = name
					for _, d := range dets {
						if d.AtRoot {
							roots++
						}
					}
				}
			}
			b.StopTimer()
			if roots != rounds*tenants*b.N {
				b.Fatalf("root detections = %d, want %d — a tenant's plane is broken", roots, rounds*tenants*b.N)
			}
			total := float64(perTenant) * float64(tenants) * float64(b.N)
			b.ReportMetric(total/b.Elapsed().Seconds(), "intervals/sec")
			b.ReportMetric(total/float64(tenants)/b.Elapsed().Seconds(), "per-tenant-intervals/sec")
			b.ReportMetric(float64(roots)/float64(b.N), "detections/op")
			b.ReportMetric(float64(goroutines), "goroutines")
			b.ReportMetric(bytesPerTenant, "bytes/tenant")
		})
	}
}
