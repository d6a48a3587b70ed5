package core

import (
	"testing"
	"testing/quick"

	"hierdet/internal/interval"
	"hierdet/internal/workload"
)

// TestQuickNodeInvariants drives a single detector node with arbitrary
// seeded chaotic executions and checks the invariants that must hold for
// ANY input:
//
//   - soundness: every solution set passes the pairwise Eq. 2 test (also
//     re-verified internally in Strict mode);
//   - progress: every detection removes at least one interval (Theorem 4),
//     so detections never exceed intervals consumed;
//   - no leak: queue residency never exceeds what arrived minus what was
//     removed.
func TestQuickNodeInvariants(t *testing.T) {
	f := func(seed int64, nSel uint8) bool {
		n := 2 + int(nSel%4) // 2..5 sources
		streams := workload.GenerateChaotic(workload.ChaoticConfig{
			N: n, Steps: 60 * n, Seed: seed,
		}).Streams

		nd := NewNode(99, Config{N: n, Strict: true}, false)
		for p := 0; p < n; p++ {
			nd.AddChild(p)
		}
		idx := make([]int, n)
		totalIn, detections := 0, 0
		for {
			progressed := false
			for p := 0; p < n; p++ {
				if idx[p] >= len(streams[p]) {
					continue
				}
				dets := nd.OnInterval(p, streams[p][idx[p]])
				idx[p]++
				totalIn++
				progressed = true
				for _, d := range dets {
					detections++
					if len(d.Set) != n {
						return false
					}
					if !interval.OverlapRefs(d.Set) {
						return false
					}
				}
			}
			if !progressed {
				break
			}
		}
		st := nd.Stats()
		if st.IntervalsIn != totalIn {
			return false
		}
		// Conservation: everything in is either still resident or removed.
		cur, _ := nd.QueueSizes()
		if cur+st.Eliminated+st.Pruned != totalIn {
			return false
		}
		// Progress: each detection prunes ≥ 1 interval.
		if st.Pruned < detections {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEliminationMonotone: feeding the same streams twice (fresh nodes)
// is deterministic — identical stats either way.
func TestQuickEliminationDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		run := func() Stats {
			streams := workload.GenerateChaotic(workload.ChaoticConfig{
				N: 3, Steps: 150, Seed: seed,
			}).Streams
			nd := NewNode(9, Config{N: 3, Strict: true}, false)
			for p := 0; p < 3; p++ {
				nd.AddChild(p)
			}
			for k := 0; ; k++ {
				progressed := false
				for p := 0; p < 3; p++ {
					if k < len(streams[p]) {
						nd.OnInterval(p, streams[p][k])
						progressed = true
					}
				}
				if !progressed {
					return nd.Stats()
				}
			}
		}
		return run() == run()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
