// Failover: the paper's Figure 2 story at system scale — an internal node of
// the spanning tree dies mid-run; the orphaned subtrees reattach; detection
// of the predicate over the survivors continues. The same failure kills the
// centralized baseline for good when it hits the sink.
//
// The first section runs the deterministic simulator; the last replays the
// same crash on the live runtime — real goroutines, racing channels,
// heartbeat failure detection — and shows the identical recovery story.
//
// Run:
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"hierdet"
)

func main() {
	// 13 processes in a 3-ary tree of height 2. Node 1 (an inner node with
	// children 4, 5, 6) will fail at t=8500, between rounds 8 and 9.
	build := func() *hierdet.Topology { return hierdet.BalancedTree(3, 2) }
	const failAt, victim = 8500, 1

	exec := hierdet.GenerateWorkload(build(), 16, 11, 1.0, 0, 0)

	fmt.Println("=== hierarchical detector, heartbeat failure detection, distributed repair ===")
	hier := hierdet.SimulateExecution(hierdet.SimConfig{
		Topology:   build(),
		Seed:       11,
		Verify:     true,
		Heartbeats: true,
		// The orphaned subtrees negotiate adoption with live neighbours over
		// the network (attach request/grant/confirm) — no oracle involved.
		DistributedRepair: true,
		Failures:          []hierdet.Failure{{At: failAt, Node: victim}},
		// Re-report the last aggregate to the adoptive parent, as the paper's
		// Figure 2(c) narrative does.
		ResendLastOnAdopt: true,
	}, exec)

	before, after := 0, 0
	for _, d := range hier.RootDetections() {
		if d.Time <= failAt {
			before++
		} else {
			after++
		}
		marker := ""
		if len(d.Det.Agg.Span) < 13 {
			marker = "  (partial predicate: survivors only)"
		}
		fmt.Printf("  t=%-6d root detection over %2d processes%s\n",
			d.Time, len(d.Det.Agg.Span), marker)
	}
	fmt.Printf("node %d failed at t=%d → %d detections before, %d after; monitoring never stopped\n",
		victim, failAt, before, after)

	fmt.Println("\n=== centralized baseline, same workload, sink failure ===")
	cent := hierdet.SimulateExecution(hierdet.SimConfig{
		Topology:  build(),
		Algorithm: hierdet.CentralizedAlgorithm,
		Seed:      11,
		Verify:    true,
		Failures:  []hierdet.Failure{{At: failAt, Node: 0}}, // the sink itself
	}, exec)
	lastT := int64(0)
	for _, d := range cent.RootDetections() {
		if int64(d.Time) > lastT {
			lastT = int64(d.Time)
		}
	}
	fmt.Printf("  sink failed at t=%d; detections: %d, last at t=%d — nothing after, every queued interval lost\n",
		failAt, len(cent.RootDetections()), lastT)

	fmt.Println("\n=== live runtime: same crash on real goroutines and channels ===")
	// Same workload, but now each process is a goroutine and the failure is
	// a genuine crash-stop: the victim's goroutine goes silent, survivors
	// notice the missing heartbeats, and the orphans renegotiate parents
	// over the racing links while the workload keeps flowing.
	const crashAfter = 8 // rounds fed before the kill
	repaired := make(chan hierdet.LiveRepair, 4)
	cluster, err := hierdet.NewLiveCluster(hierdet.LiveConfig{
		Topology: build(), Seed: 11, Verify: true,
		HbEvery: 300 * time.Microsecond, ResendLastOnAdopt: true,
		// The Events stream carries every repair (and much more); filter for
		// the RepairConcluded kind to follow the reattachment protocol live.
		Events: func(e hierdet.Event) {
			if e.Kind == hierdet.EventRepairConcluded {
				repaired <- hierdet.LiveRepair{Orphan: e.Node, NewParent: e.Peer}
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	feed := func(lo, hi int) {
		var wg sync.WaitGroup
		for p := 0; p < build().N(); p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for k := lo; k < hi; k++ {
					cluster.Observe(p, exec.Streams[p][k])
					time.Sleep(20 * time.Microsecond)
				}
			}(p)
		}
		wg.Wait()
	}
	feed(0, crashAfter)
	cluster.Drain()
	orphans := cluster.Kill(victim)
	fmt.Printf("  node %d crash-stopped after round %d; %d subtrees orphaned\n",
		victim, crashAfter, orphans)
	for i := 0; i < orphans; i++ {
		r := <-repaired
		fmt.Printf("  heartbeats flagged the silence; orphan %d adopted by node %d\n",
			r.Orphan, r.NewParent)
	}
	feed(crashAfter, 16)
	liveBefore, liveAfter := 0, 0
	cluster.Close()
	for _, d := range cluster.Detections() {
		if !d.AtRoot {
			continue
		}
		if len(d.Det.Agg.Span) == 13 {
			liveBefore++
		} else {
			liveAfter++
		}
	}
	fmt.Printf("  root detections: %d full-span, %d over the survivors — monitoring never stopped here either\n",
		liveBefore, liveAfter)
}
