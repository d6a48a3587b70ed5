package trace

import (
	"sort"
	"testing"

	"hierdet/internal/core"
	"hierdet/internal/interval"
	"hierdet/internal/monitor"
	"hierdet/internal/tree"
	"hierdet/internal/vclock"
	"hierdet/internal/workload"
)

func TestFlatCountMatchesPulseGroundTruth(t *testing.T) {
	tp := tree.Balanced(2, 2)
	e := workload.Generate(workload.Config{Topology: tp, Rounds: 25, Seed: 1, PGlobal: 0.4, PGroup: 0.3})
	span := tp.Subtree(0)
	sort.Ints(span)
	want := e.ExpectedDetections(span)
	if got := FlatCount(e, span, 9); got != want {
		t.Fatalf("FlatCount = %d, want %d", got, want)
	}
}

func TestFlatCountOrderIndependent(t *testing.T) {
	// The number of detections must not depend on how the per-process
	// streams interleave at the sink.
	for trial := 0; trial < 10; trial++ {
		e := workload.GenerateChaotic(workload.ChaoticConfig{N: 4, Steps: 300, Seed: int64(trial)})
		span := []int{0, 1, 2, 3}
		first := FlatCount(e, span, 0)
		for seed := int64(1); seed < 6; seed++ {
			if got := FlatCount(e, span, seed); got != first {
				t.Fatalf("trial %d: count %d at seed %d vs %d at seed 0", trial, got, seed, first)
			}
		}
	}
}

func TestFlatDetectionsAreSound(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		e := workload.GenerateChaotic(workload.ChaoticConfig{N: 5, Steps: 400, Seed: int64(100 + trial)})
		dets := FlatDetections(e, []int{0, 1, 2, 3, 4}, 3)
		if err := CheckAll(dets); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestHierarchicalMatchesFlatOnChaos is the repository's strongest
// correctness check: on unstructured random executions, the hierarchical
// detector's per-node detection counts must equal the flat reference run
// over that node's span, for every node of several tree shapes — the
// equivalence Theorems 1, 3 and 4 promise.
func TestHierarchicalMatchesFlatOnChaos(t *testing.T) {
	shapes := []struct {
		name  string
		build func() *tree.Topology
	}{
		{"binary-h2", func() *tree.Topology { return tree.Balanced(2, 2) }},
		{"chain-5", func() *tree.Topology { return tree.Chain(5) }},
		{"star-6", func() *tree.Topology { return tree.Star(6) }},
		{"random-9", func() *tree.Topology { return tree.Random(9, 3, 7) }},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			for trial := 0; trial < 8; trial++ {
				n := shape.build().N()
				e := workload.GenerateChaotic(workload.ChaoticConfig{
					N: n, Steps: 120 * n, Seed: int64(trial * 31),
				})
				topo := shape.build()
				shapeRef := shape.build()
				res := monitor.NewRunner(monitor.Config{
					Mode: monitor.Hierarchical, Topology: topo, Exec: e,
					Seed: int64(trial), Strict: true, KeepMembers: true,
				}).Run()
				for node := 0; node < n; node++ {
					span := shapeRef.Subtree(node)
					sort.Ints(span)
					want := FlatCount(e, span, int64(trial)+17)
					got := len(res.DetectionsAt(node))
					if got != want {
						t.Errorf("trial %d node %d span %v: hierarchical %d vs flat %d",
							trial, node, span, got, want)
					}
				}
				for _, d := range res.Detections {
					if err := CheckDetection(&d.Det); err != nil {
						t.Fatalf("trial %d: %v", trial, err)
					}
				}
			}
		})
	}
}

// TestSubsetWorkloadFullStack drives random-subset pulses (tree-oblivious
// synchronization groups) through the complete monitor stack and checks
// every node's detection count against the round ground truth and the flat
// reference.
func TestSubsetWorkloadFullStack(t *testing.T) {
	build := func() *tree.Topology { return tree.Balanced(2, 2) }
	shape := build()
	e := workload.Generate(workload.Config{
		Topology: shape, Rounds: 40, Seed: 5, PGlobal: 0.2, PSubset: 0.6,
	})
	res := monitor.NewRunner(monitor.Config{
		Mode: monitor.Hierarchical, Topology: build(), Exec: e,
		Seed: 11, Strict: true, KeepMembers: true,
	}).Run()
	for node := 0; node < shape.N(); node++ {
		span := shape.Subtree(node)
		sort.Ints(span)
		want := e.ExpectedDetections(span)
		if flat := FlatCount(e, span, 3); flat != want {
			t.Fatalf("node %d: flat %d vs ground truth %d — generator inconsistent", node, flat, want)
		}
		if got := len(res.DetectionsAt(node)); got != want {
			t.Errorf("node %d: hierarchical %d vs ground truth %d", node, got, want)
		}
	}
	for _, d := range res.Detections {
		if err := CheckDetection(&d.Det); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckDetectionCatchesViolations(t *testing.T) {
	good := interval.New(0, 0, vclock.Of(1, 0), vclock.Of(3, 2))
	good2 := interval.New(1, 0, vclock.Of(0, 1), vclock.Of(2, 3))
	agg := interval.Aggregate([]interval.Interval{good, good2}, 1, 0, true)
	if err := CheckDetection(&core.Detection{Node: 1, Set: []*interval.Interval{&good, &good2}, Agg: agg}); err != nil {
		t.Fatalf("valid detection rejected: %v", err)
	}

	// Non-overlapping bases.
	late := interval.New(1, 0, vclock.Of(4, 4), vclock.Of(5, 5))
	bad := interval.Aggregate([]interval.Interval{good, late}, 1, 0, true)
	if err := CheckDetection(&core.Detection{Node: 1, Agg: bad}); err == nil {
		t.Fatal("non-overlapping bases accepted")
	}

	// Non-overlapping solution set members.
	if err := CheckDetection(&core.Detection{Node: 1, Set: []*interval.Interval{&good, &late}, Agg: agg}); err == nil {
		t.Fatal("non-overlapping solution set accepted")
	}

	// Opaque aggregate (no members retained).
	opaque := interval.Aggregate([]interval.Interval{good, good2}, 1, 0, false)
	if err := CheckDetection(&core.Detection{Node: 1, Agg: opaque}); err == nil {
		t.Fatal("opaque aggregate accepted")
	}

	// Duplicate origin.
	dup := interval.Aggregate([]interval.Interval{good, good}, 1, 0, true)
	if err := CheckDetection(&core.Detection{Node: 1, Agg: dup}); err == nil {
		t.Fatal("duplicate-origin solution accepted")
	}
}

func TestFlatDetectionsValidation(t *testing.T) {
	e := workload.GenerateChaotic(workload.ChaoticConfig{N: 2, Steps: 10, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Error("empty span did not panic")
		}
	}()
	FlatDetections(e, nil, 0)
}
