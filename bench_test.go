package hierdet

// Benchmarks regenerating the paper's evaluation artifacts. Each bench runs
// the full system — workload, tree, simulated asynchronous network, detector
// — and reports the paper's metrics (messages, comparisons, detections) as
// custom benchmark metrics alongside wall-clock time.
//
//	Table I  → BenchmarkTableI_*          (space/time/messages at fixed size)
//	Figure 4 → BenchmarkFigure4_Messages  (d=2 sweep over tree heights)
//	Figure 5 → BenchmarkFigure5_Messages  (d=4 sweep over tree heights)
//
// Figures 1–3 are worked examples, reproduced as unit tests
// (TestFigure1NonNestedSolution, TestFigure2Scenario, TestFigure3Aggregation).

import (
	"fmt"
	"testing"
)

// runOnce executes one full simulation and returns its result.
func runOnce(algo Algorithm, d, height, rounds int, seed int64) *SimResult {
	topo := BalancedTree(d, height)
	exec := GenerateWorkload(topo, rounds, seed, 1.0, 0, 0)
	return SimulateExecution(SimConfig{
		Topology:  topo,
		Algorithm: algo,
		Seed:      seed,
	}, exec)
}

func reportRun(b *testing.B, res *SimResult) {
	b.Helper()
	b.ReportMetric(float64(res.Net.TotalSent), "msgs/run")
	var cmp, worstCmp int
	for _, st := range res.NodeStats {
		cmp += st.VecComparisons
		if st.VecComparisons > worstCmp {
			worstCmp = st.VecComparisons
		}
	}
	b.ReportMetric(float64(cmp), "cmps/run")
	b.ReportMetric(float64(worstCmp), "worst-node-cmps/run")
	var space, worstSpace int
	for _, hw := range res.ResidentHighWater {
		space += hw
		if hw > worstSpace {
			worstSpace = hw
		}
	}
	b.ReportMetric(float64(worstSpace), "worst-node-ivls/run")
	b.ReportMetric(float64(len(res.RootDetections())), "detections/run")
	// Byte volume under both wire framings: fixed-width v1 and delta-encoded
	// v2 with per-link basis chaining. The ratio is the wire saving a TCP
	// deployment sees after the codec change.
	b.ReportMetric(float64(res.WireBytesV1), "bytes-v1/run")
	b.ReportMetric(float64(res.WireBytesV2), "bytes-v2/run")
}

// BenchmarkTableI_Hierarchical measures Algorithm 1 on a 31-node binary tree
// with p=20 occurrences: the hierarchical column of Table I, with the work
// and space spread across nodes (compare worst-node metrics against the
// centralized bench below).
func BenchmarkTableI_Hierarchical(b *testing.B) {
	var res *SimResult
	for i := 0; i < b.N; i++ {
		res = runOnce(HierarchicalAlgorithm, 2, 4, 20, 1)
	}
	reportRun(b, res)
}

// BenchmarkTableI_Centralized measures the baseline [12] on the same input:
// the centralized column of Table I — all comparisons and queue residency at
// the sink, every interval paying multi-hop routing.
func BenchmarkTableI_Centralized(b *testing.B) {
	var res *SimResult
	for i := 0; i < b.N; i++ {
		res = runOnce(CentralizedAlgorithm, 2, 4, 20, 1)
	}
	reportRun(b, res)
}

// benchFigure sweeps tree heights at fixed degree for both algorithms —
// the measured counterpart of the paper's message-complexity figures. h
// follows the paper's convention (number of levels).
func benchFigure(b *testing.B, d, maxLevels int) {
	for levels := 3; levels <= maxLevels; levels++ {
		for _, algo := range []struct {
			name string
			a    Algorithm
		}{{"hier", HierarchicalAlgorithm}, {"central", CentralizedAlgorithm}} {
			b.Run(fmt.Sprintf("h=%d/%s", levels, algo.name), func(b *testing.B) {
				var res *SimResult
				for i := 0; i < b.N; i++ {
					res = runOnce(algo.a, d, levels-1, 20, 1)
				}
				reportRun(b, res)
			})
		}
	}
}

// BenchmarkFigure4_Messages regenerates Figure 4 (d=2, p=20): message totals
// per run appear as the msgs/run metric; hier vs central at equal h is the
// figure's gap.
func BenchmarkFigure4_Messages(b *testing.B) { benchFigure(b, 2, 6) }

// BenchmarkFigure5_Messages regenerates Figure 5 (d=4, p=20).
func BenchmarkFigure5_Messages(b *testing.B) { benchFigure(b, 4, 4) }

// BenchmarkAblationFIFO quantifies the cost of the non-FIFO model: the same
// run over reordering links (resequencer active) versus FIFO links.
func BenchmarkAblationFIFO(b *testing.B) {
	for _, mode := range []struct {
		name string
		fifo bool
	}{{"non-fifo", false}, {"fifo", true}} {
		b.Run(mode.name, func(b *testing.B) {
			topo := BalancedTree(2, 4)
			exec := GenerateWorkload(topo, 20, 1, 1.0, 0, 0)
			var res *SimResult
			for i := 0; i < b.N; i++ {
				res = SimulateExecution(SimConfig{
					Topology: topo,
					Seed:     1,
					FIFO:     mode.fifo,
					MaxDelay: 2000, // several round-spacings: heavy reordering
				}, exec)
			}
			reportRun(b, res)
		})
	}
}

// BenchmarkAblationWorkloadMix shows how the aggregation probability α
// manifests: global pulses (every level aggregates, maximum upward traffic)
// versus group pulses (aggregation dies at the group boundary) versus
// isolated intervals (leaf reports only — the α→0 regime of Eq. 11).
func BenchmarkAblationWorkloadMix(b *testing.B) {
	mixes := []struct {
		name            string
		pGlobal, pGroup float64
	}{
		{"global", 1, 0},
		{"group", 0, 1},
		{"isolated", 0, 0},
	}
	for _, m := range mixes {
		b.Run(m.name, func(b *testing.B) {
			topo := BalancedTree(2, 4)
			exec := GenerateWorkload(topo, 20, 1, m.pGlobal, m.pGroup, 0)
			var res *SimResult
			for i := 0; i < b.N; i++ {
				res = SimulateExecution(SimConfig{Topology: topo, Seed: 1}, exec)
			}
			reportRun(b, res)
		})
	}
}

// BenchmarkBatching measures the report-batching extension: rounds arrive
// faster than the batch window, so each link coalesces several reports per
// message. Compare msgs/run across the two sub-benchmarks.
func BenchmarkBatching(b *testing.B) {
	for _, mode := range []struct {
		name   string
		window int64
	}{{"off", 0}, {"window=500", 500}} {
		b.Run(mode.name, func(b *testing.B) {
			topo := BalancedTree(2, 4)
			exec := GenerateWorkload(topo, 20, 1, 1.0, 0, 0)
			var res *SimResult
			for i := 0; i < b.N; i++ {
				res = SimulateExecution(SimConfig{
					Topology:     topo,
					Seed:         1,
					RoundSpacing: 100,
					BatchWindow:  mode.window,
				}, exec)
			}
			reportRun(b, res)
		})
	}
}

// BenchmarkDetectionLatency measures how long after an occurrence completes
// the root reports it, across tree depths and for both algorithms — the
// latency cost of the hierarchy's pipeline (one aggregation step per level)
// against the centralized algorithm's multi-hop forwarding. Latency is not
// analysed in the paper; this quantifies the trade bought by the message
// and load advantages.
func BenchmarkDetectionLatency(b *testing.B) {
	for _, levels := range []int{3, 4, 5, 6} {
		for _, algo := range []struct {
			name string
			a    Algorithm
		}{{"hier", HierarchicalAlgorithm}, {"central", CentralizedAlgorithm}} {
			b.Run(fmt.Sprintf("h=%d/%s", levels, algo.name), func(b *testing.B) {
				topo := BalancedTree(2, levels-1)
				exec := GenerateWorkload(topo, 15, 1, 1.0, 0, 0)
				var res *SimResult
				for i := 0; i < b.N; i++ {
					res = SimulateExecution(SimConfig{
						Topology:  topo,
						Algorithm: algo.a,
						Seed:      1,
						Verify:    true, // retain members for latency attribution
					}, exec)
				}
				lats := res.RootLatencies()
				if len(lats) == 0 {
					b.Fatal("no attributable detections")
				}
				var sum int64
				for _, l := range lats {
					sum += int64(l)
				}
				b.ReportMetric(float64(sum)/float64(len(lats)), "mean-latency")
			})
		}
	}
}

// BenchmarkHeartbeatTradeoff sweeps the heartbeat period: faster beats find
// failures sooner (repair-latency metric) at proportionally higher control
// traffic (hb-msgs metric) — the operational tuning knob of §III-F.
func BenchmarkHeartbeatTradeoff(b *testing.B) {
	for _, period := range []int64{50, 100, 200, 400} {
		b.Run(fmt.Sprintf("hb=%d", period), func(b *testing.B) {
			topo := BalancedTree(2, 3)
			exec := GenerateWorkload(topo, 15, 1, 1.0, 0, 0)
			var res *SimResult
			for i := 0; i < b.N; i++ {
				res = SimulateExecution(SimConfig{
					Topology:   topo,
					Seed:       1,
					Heartbeats: true,
					HbEvery:    period,
					HbTimeout:  3 * period,
					Failures:   []Failure{{At: 5500, Node: 1}},
				}, exec)
			}
			if len(res.Repairs) == 1 {
				b.ReportMetric(float64(res.Repairs[0].At-5500), "repair-latency")
			}
			b.ReportMetric(float64(res.Net.Sent["hb"]), "hb-msgs/run")
			reportRun(b, res)
		})
	}
}

// BenchmarkFailureRepair measures a run with five injected failures and
// heartbeat detection — the fault-tolerance machinery's end-to-end cost —
// for both repair strategies: the topology oracle and the distributed
// attach protocol.
func BenchmarkFailureRepair(b *testing.B) {
	for _, mode := range []struct {
		name        string
		distributed bool
	}{{"oracle", false}, {"distributed", true}} {
		b.Run(mode.name, func(b *testing.B) {
			topo := BalancedTree(2, 4)
			exec := GenerateWorkload(topo, 20, 1, 1.0, 0, 0)
			var res *SimResult
			for i := 0; i < b.N; i++ {
				res = SimulateExecution(SimConfig{
					Topology:          topo,
					Seed:              1,
					Heartbeats:        true,
					DistributedRepair: mode.distributed,
					Failures: []Failure{
						{At: 3500, Node: 3}, {At: 5500, Node: 1}, {At: 8500, Node: 22},
						{At: 11500, Node: 2}, {At: 14500, Node: 30},
					},
				}, exec)
			}
			reportRun(b, res)
		})
	}
}
