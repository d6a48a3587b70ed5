package livenet

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"hierdet/internal/obsv"
	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// BenchmarkLiveScale runs full balanced trees through the live runtime at
// p ∈ {127, 511, 1023} in its one lane, parallel: ObserveBatch ingestion,
// drain-end adaptive report coalescing (Config.AdaptiveFlush) and the
// detection engine — rounds over queue heads, flat aggregate storage,
// slab-carved solution sets, the one-source path — the full current path.
//
// The lanes since deleted — legacy (the seed's goroutine-per-node plane),
// batched (a fixed 200 µs batch window on the sequential engine) and sharded
// (the sequential engine fed one Observe call per interval) — live on in
// BENCH_scale.json: entries up to PR 10b carry all four, later ones sharded
// and parallel.
//
// Each iteration builds a cluster, feeds every process's stream at full
// speed, and drains via Stop. Reported metrics:
//
//	intervals/sec   end-to-end ingestion throughput (observed locals / wall)
//	peak-goroutines high-water goroutine count during the run — pool plus
//	                wheel plus the sampler, never O(in-flight messages)
//	detections/op   sanity: every run must detect every round at the root
//	worst-node-cmps/run  the busiest detector's enumerated comparisons —
//	                the hot-spot the hierarchy is supposed to flatten
//	cmps/interval   fleet-wide enumerated comparisons per observed interval
//	                (the enumeration ledger is engine-independent)
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
		b.Run(fmt.Sprintf("p=%d/parallel", p), func(b *testing.B) {
			benchLiveScale(b, topo, e, total, rounds)
		})
	}
}

func benchLiveScale(b *testing.B, topo *tree.Topology, e *workload.Execution, total, rounds int) {
	peak := 0
	roots := 0
	var worstCmps, vecCmps, latObs int64
	var latP50, latP99 float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New(Config{
			Topology:      topo,
			Seed:          int64(i + 1),
			MaxDelay:      500 * time.Microsecond,
			AdaptiveFlush: true,
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

		for p := range e.Streams {
			c.ObserveBatch(p, e.Streams[p])
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
	}
	if latObs > 0 {
		b.ReportMetric(latP50/float64(b.N)*1e3, "latency-p50-ms")
		b.ReportMetric(latP99/float64(b.N)*1e3, "latency-p99-ms")
	}
}

// steadyFeed feeds an execution the way a running system receives one: round
// by round, every process's interval of a round before any of the next, with
// at most window rounds that end in a root detection in flight (a root
// SolutionFound gives the round's token back; rounds that cannot reach the
// root ride along, there being a bounded number between two that can). One
// feed may drive several clusters over the same execution — the window is
// then over (cluster, round) — provided each has sink as its Events.
type steadyFeed struct {
	root   int
	tokens chan struct{}
}

func newSteadyFeed(topo *tree.Topology, window int) *steadyFeed {
	f := &steadyFeed{root: topo.Roots()[0], tokens: make(chan struct{}, window)}
	for i := 0; i < window; i++ {
		f.tokens <- struct{}{}
	}
	return f
}

func (f *steadyFeed) sink(e obsv.Event) {
	if e.Kind == obsv.SolutionFound && e.Node == f.root {
		f.tokens <- struct{}{} // never blocks: the round took it
	}
}

// run feeds rounds [0, len(e.Rounds)) to every cluster and returns the number
// of intervals fed. It does not wait for the last rounds: Close does.
func (f *steadyFeed) run(clusters []*Cluster, e *workload.Execution) int {
	fed := 0
	for r, round := range e.Rounds {
		reachesRoot := false
		for _, g := range round.Groups {
			reachesRoot = reachesRoot || len(g) == e.N
		}
		for _, c := range clusters {
			if reachesRoot {
				<-f.tokens
			}
			for p := range e.Streams {
				c.Observe(p, e.Streams[p][r])
			}
			fed += len(e.Streams)
		}
	}
	return fed
}

// BenchmarkLiveSteady is the live runtime under the load the repository's
// benchmark (bench/, which has no profile flag) puts on it, as a go test
// benchmark so that -cpuprofile and -memprofile apply (make profile): the
// full current path — Observe, AdaptiveFlush, the parallel engine — fed round-
// major with 16 root rounds in flight, where BenchmarkLiveScale above hands
// each process its whole stream at once and measures a burst.
//
//	deep  p=127 fan-in 2, every round global: six hops, one report a message
//	wide  p=273 fan-in 16, global/group/subset/isolated rounds mixed: two
//	      hops, some forty comparisons an interval
//
// One iteration is one cluster's life: New, 300 rounds, Close, Detections.
// Reports intervals/sec over the whole of it and B/interval allocated.
func BenchmarkLiveSteady(b *testing.B) {
	const window, rounds = 16, 300
	for _, lane := range []struct {
		name   string
		topo   *tree.Topology
		config workload.Config
	}{
		{"deep/p=127", tree.Balanced(2, 6), workload.Config{PGlobal: 1}},
		{"wide/p=273", tree.Balanced(16, 2), workload.Config{PGlobal: .4, PGroup: .3, PSubset: .2}},
	} {
		lane.config.Topology, lane.config.Rounds, lane.config.Seed = lane.topo, rounds, 42
		e := workload.Generate(lane.config)
		b.Run(lane.name, func(b *testing.B) {
			fed, found := 0, 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := newSteadyFeed(lane.topo, window)
				c := New(Config{Topology: lane.topo, Seed: int64(i + 1), AdaptiveFlush: true, Events: f.sink})
				fed += f.run([]*Cluster{c}, e)
				c.Close()
				found += len(c.Detections())
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if found == 0 {
				b.Fatal("no detections: the plane under test is broken")
			}
			b.ReportMetric(float64(fed)/b.Elapsed().Seconds(), "intervals/sec")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(fed), "B/interval")
			b.ReportMetric(float64(found)/float64(b.N), "detections/op")
		})
	}
}
