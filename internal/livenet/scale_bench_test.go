package livenet

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// BenchmarkLiveScale runs full balanced trees through the live runtime at
// p ∈ {127, 511, 1023} in two lanes:
//
//	sharded  the sequential detection oracle on the one delivery plane, fed
//	         one Observe call per interval, every report sent on its own —
//	         the paper's Algorithm 1 as written, the yardstick
//	parallel ObserveBatch ingestion, drain-end adaptive report coalescing
//	         (Config.AdaptiveFlush) and the parallel detection engine with
//	         its comparison-pruning layer: partitioned comparison rounds,
//	         digest-guarded and memoized verdicts, flat aggregate storage,
//	         slab-carved solution sets — the full current path
//
// The lanes since deleted — legacy (the seed's goroutine-per-node plane) and
// batched (a fixed 200 µs batch window on the sequential engine) — live on
// in BENCH_scale.json, whose entries up to PR 10b carry all four.
//
// Each iteration builds a cluster, feeds every process's stream at full
// speed, and drains via Stop. Reported metrics:
//
//	intervals/sec   end-to-end ingestion throughput (observed locals / wall)
//	peak-goroutines high-water goroutine count during the run — pool plus
//	                wheel plus feeders, never O(in-flight messages)
//	detections/op   sanity: every lane must detect every round at the root
//	worst-node-cmps/run  the busiest detector's enumerated comparisons —
//	                the hot-spot the hierarchy is supposed to flatten
//	cmps/interval   fleet-wide enumerated comparisons per observed interval;
//	                the enumeration ledger is engine-independent, so the
//	                sequential lanes' value doubles as the pre-pruning-layer
//	                baseline
//	digest-filter-rate / memo-hit-rate  the comparison-pruning layer's
//	                share of enumerated comparisons answered by the one-word
//	                digest guard / the cross-round verdict memo (zero on the
//	                sequential lanes)
//	latency-p50-ms / latency-p99-ms  observe→SolutionFound latency quantiles
//	                (ClusterMetrics.LatencyP50/P99, averaged over iterations)
//	                — how long an interval's cascade takes to conclude
//
// The scale lane (make bench-scale / cmd/benchjson -suite scale) records
// these into BENCH_scale.json; p=1023 parallel throughput and p99 latency
// are the gated headline.
func BenchmarkLiveScale(b *testing.B) {
	for _, h := range []int{6, 8, 9} { // 127, 511, 1023 nodes
		topo := tree.Balanced(2, h)
		p := topo.N()
		rounds := 8
		if p >= 1000 {
			rounds = 6 // what the trajectory's p=1023 entries ran: keeps them comparable
		}
		e := workload.Generate(workload.Config{Topology: topo, Rounds: rounds, Seed: 42, PGlobal: 1})
		total := 0
		for _, s := range e.Streams {
			total += len(s)
		}
		for _, mode := range []benchMode{
			{name: "sharded", sequential: true},
			{name: "parallel", batchFeed: true, adaptive: true},
		} {
			b.Run(fmt.Sprintf("p=%d/%s", p, mode.name), func(b *testing.B) {
				benchLiveScale(b, topo, e, total, rounds, mode)
			})
		}
	}
}

// benchMode selects one lane's feeding, coalescing and engine. The sharded
// lane pins SequentialDetect so it keeps measuring the PR 4 configuration;
// the parallel lane is the full current path.
type benchMode struct {
	name       string
	batchFeed  bool
	adaptive   bool
	sequential bool
}

func benchLiveScale(b *testing.B, topo *tree.Topology, e *workload.Execution, total, rounds int, mode benchMode) {
	peak := 0
	roots := 0
	var worstCmps, vecCmps, filtered, memo, latObs int64
	var latP50, latP99 float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New(Config{
			Topology:         topo,
			Seed:             int64(i + 1),
			MaxDelay:         500 * time.Microsecond,
			AdaptiveFlush:    mode.adaptive,
			SequentialDetect: mode.sequential,
		})

		stop := make(chan struct{})
		sampled := make(chan struct{})
		go func() {
			defer close(sampled)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n := runtime.NumGoroutine(); n > peak {
					peak = n
				}
				time.Sleep(100 * time.Microsecond)
			}
		}()

		if mode.batchFeed {
			for p := range e.Streams {
				c.ObserveBatch(p, e.Streams[p])
			}
		} else {
			var wg sync.WaitGroup
			for p := range e.Streams {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for _, iv := range e.Streams[p] {
						c.Observe(p, iv)
					}
				}(p)
			}
			wg.Wait()
		}
		dets := c.Stop()
		close(stop)
		<-sampled
		for _, d := range dets {
			if d.AtRoot {
				roots++
			}
		}
		cm := c.ClusterMetrics()
		worstCmps += cm.WorstNodeCmps
		vecCmps += cm.VecComparisons
		filtered += cm.FilteredComparisons
		memo += cm.MemoHits
		latObs += cm.LatencyCount
		latP50 += cm.LatencyP50
		latP99 += cm.LatencyP99
	}
	b.StopTimer()
	if roots != rounds*b.N {
		b.Fatalf("root detections = %d, want %d — the plane under test is broken", roots, rounds*b.N)
	}
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "intervals/sec")
	b.ReportMetric(float64(peak), "peak-goroutines")
	b.ReportMetric(float64(roots)/float64(b.N), "detections/op")
	b.ReportMetric(float64(worstCmps)/float64(b.N), "worst-node-cmps/run")
	if vecCmps > 0 {
		b.ReportMetric(float64(vecCmps)/float64(b.N)/float64(total), "cmps/interval")
		b.ReportMetric(float64(filtered)/float64(vecCmps), "digest-filter-rate")
		b.ReportMetric(float64(memo)/float64(vecCmps), "memo-hit-rate")
	}
	if latObs > 0 {
		b.ReportMetric(latP50/float64(b.N)*1e3, "latency-p50-ms")
		b.ReportMetric(latP99/float64(b.N)*1e3, "latency-p99-ms")
	}
}
