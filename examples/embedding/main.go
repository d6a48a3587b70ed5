// Embedding: use the library's detector nodes directly, without the bundled
// simulator — the way a real deployment would, with its own processes and
// its own transport.
//
// Three processes form a two-level tree (root 0, leaves 1 and 2). Each
// process is instrumented with hierdet.Process (vector clocks + interval
// extraction); each runs a hierdet.Node detector. "Transport" here is a
// direct function call from child to parent; in a deployment it would be
// your network stack, delivering each child's reports in order.
//
// Run:
//
//	go run ./examples/embedding
package main

import (
	"fmt"

	"hierdet"
)

const n = 3

func main() {
	cfg := hierdet.NodeConfig{N: n, Strict: true, KeepMembers: true}

	// Detector layer: one node per process, wired as a tree.
	root := hierdet.NewNode(0, cfg, true)
	root.AddChild(1)
	root.AddChild(2)
	leaves := map[int]*hierdet.Node{
		1: hierdet.NewNode(1, cfg, true),
		2: hierdet.NewNode(2, cfg, true),
	}

	// OnInterval keeps its own copy of what it is handed; a solution set
	// refers to those copies (one per queue), so reading it is free.
	deliverToRoot := func(src int, iv hierdet.Interval) {
		for _, det := range root.OnInterval(src, iv) {
			origins := make([]int, len(det.Set))
			for i, m := range det.Set {
				origins[i] = m.Origin
			}
			fmt.Printf("ROOT: Definitely(Φ) for processes %v (solution of %d intervals, from nodes %v)\n",
				det.Agg.Span, len(det.Set), origins)
		}
	}
	deliverToLeaf := func(leaf int, iv hierdet.Interval) {
		for _, det := range leaves[leaf].OnInterval(leaf, iv) {
			// A leaf's "detection" is its own interval; report it upward.
			deliverToRoot(leaf, det.Agg)
		}
	}

	// Application layer: instrumented processes. Completed local intervals
	// flow into the process's own detector node.
	procs := make([]*hierdet.Process, n)
	for i := 0; i < n; i++ {
		i := i
		emit := func(iv hierdet.Interval) {
			if i == 0 {
				deliverToRoot(0, iv)
			} else {
				deliverToLeaf(i, iv)
			}
		}
		procs[i] = hierdet.NewProcess(i, n, emit)
	}

	fmt.Println("episode 1: predicates true but never causally overlapping — no detection")
	for i := 0; i < n; i++ {
		procs[i].SetPredicate(true)
		procs[i].Internal()
		procs[i].SetPredicate(false)
		procs[i].Internal()
		// Sequence the episodes: each process tells the next before it acts.
		if i+1 < n {
			procs[i+1].Receive(procs[i].PrepareSend())
		}
	}

	fmt.Println("episode 2: a synchronized occurrence — detection expected")
	for _, p := range procs {
		p.SetPredicate(true)
		p.Internal()
	}
	// Everyone reports "started" to process 0; process 0 acknowledges. The
	// acks put every interval's end causally after every interval's start.
	for i := 1; i < n; i++ {
		procs[0].Receive(procs[i].PrepareSend())
	}
	for i := 1; i < n; i++ {
		procs[i].Receive(procs[0].PrepareSend())
	}
	for _, p := range procs {
		p.SetPredicate(false)
		p.Internal()
	}

	fmt.Println("episode 3: another occurrence — repeated detection, no reset needed")
	for _, p := range procs {
		p.SetPredicate(true)
		p.Internal()
	}
	for i := 1; i < n; i++ {
		procs[0].Receive(procs[i].PrepareSend())
	}
	for i := 1; i < n; i++ {
		procs[i].Receive(procs[0].PrepareSend())
	}
	for _, p := range procs {
		p.SetPredicate(false)
		p.Internal()
	}
}
