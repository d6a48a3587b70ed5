// The distributed example is the module's multi-process proof: seven
// hierdet-node OS processes on localhost, joined only by TCP sockets, must
// detect exactly what the in-memory single-process cluster detects on the
// same workload — through a real process kill.
//
// The script:
//
//  1. Build cmd/hierdet-node and generate a 7-node deployment (balanced
//     binary tree, ephemeral localhost ports).
//  2. Run the same workload on an in-memory LiveCluster, with the same
//     mid-run failure, to learn the expected detection counts. Detection
//     counts are schedule-independent (each occurrence is detected exactly
//     once), so the two runs are comparable despite wildly different timing.
//  3. Launch the seven processes and feed phase 1, watching their stdout.
//  4. SIGKILL the process hosting node 1 — a real crash-stop: no goodbye,
//     no FIN handshake the detector can use; survivors must notice pure
//     heartbeat silence, and nodes 3 and 4 must reattach over TCP (§III-F).
//  5. Open the gate (a barrier file) so survivors feed phase 2, and require
//     the post-failure detections to match the reference.
//
// Exit status 0 iff both phases match. Run: go run ./examples/distributed
package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"hierdet"
)

const (
	nodes        = 7
	rounds       = 12
	phase1       = 6
	seed   int64 = 42
	victim       = 1 // parents [-1 0 0 1 1 2 2]: killing 1 orphans 3 and 4
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("PASS")
}

// tally accumulates protocol lines from every process's stdout.
type tally struct {
	mu      sync.Mutex
	span    map[int]int // root-detection count by span width
	repairs int
}

func (t *tally) rootSpan(w int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.span[w]
}

func (t *tally) repaired() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.repairs
}

// follow parses one process's stdout into the tally, echoing each line.
func (t *tally) follow(id int, r *bufio.Scanner, wg *sync.WaitGroup) {
	defer wg.Done()
	for r.Scan() {
		line := r.Text()
		fmt.Printf("[node %d] %s\n", id, line)
		var n, span int
		var root bool
		if c, _ := fmt.Sscanf(line, "DETECT id=%d root=%t span=%d", &n, &root, &span); c == 3 && root {
			t.mu.Lock()
			t.span[span]++
			t.mu.Unlock()
		}
		var orphan, parent int
		if c, _ := fmt.Sscanf(line, "REPAIR orphan=%d parent=%d", &orphan, &parent); c == 2 {
			t.mu.Lock()
			t.repairs++
			t.mu.Unlock()
		}
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "hierdet-distributed")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "hierdet-node")
	conf := filepath.Join(dir, "cluster.json")
	gate := filepath.Join(dir, "gate")

	fmt.Println("== building cmd/hierdet-node ==")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/hierdet-node").CombinedOutput(); err != nil {
		return fmt.Errorf("build: %v\n%s", err, out)
	}
	if out, err := exec.Command(bin, "-init", "-o", conf, "-n", fmt.Sprint(nodes),
		"-rounds", fmt.Sprint(rounds), "-phase1", fmt.Sprint(phase1),
		"-seed", fmt.Sprint(seed)).CombinedOutput(); err != nil {
		return fmt.Errorf("init: %v\n%s", err, out)
	}

	refFull, refSurvivor, err := reference()
	if err != nil {
		return err
	}
	fmt.Printf("== reference (in-memory): %d span-%d then %d span-%d root detections ==\n",
		refFull, nodes, refSurvivor, nodes-1)

	fmt.Printf("== launching %d processes ==\n", nodes)
	t := &tally{span: map[int]int{}}
	var wg sync.WaitGroup
	procs := make([]*exec.Cmd, nodes)
	for id := 0; id < nodes; id++ {
		cmd := exec.Command(bin, "-config", conf, "-id", fmt.Sprint(id), "-gate", gate)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		procs[id] = cmd
		wg.Add(1)
		go t.follow(id, bufio.NewScanner(stdout), &wg)
	}
	defer func() {
		for _, p := range procs {
			if p.Process != nil {
				p.Process.Kill()
			}
		}
		wg.Wait()
		for _, p := range procs {
			p.Wait()
		}
	}()

	if err := await("phase-1 detections", func() bool { return t.rootSpan(nodes) >= refFull }); err != nil {
		return err
	}

	fmt.Printf("== SIGKILL process of node %d ==\n", victim)
	if err := procs[victim].Process.Kill(); err != nil {
		return err
	}
	if err := await("orphans to reattach over TCP", func() bool { return t.repaired() >= 2 }); err != nil {
		return err
	}

	fmt.Println("== opening gate: phase 2 ==")
	if err := os.WriteFile(gate, nil, 0o644); err != nil {
		return err
	}
	if err := await("phase-2 detections", func() bool { return t.rootSpan(nodes-1) >= refSurvivor }); err != nil {
		return err
	}
	time.Sleep(500 * time.Millisecond) // settle: surplus detections would be a bug

	full, survivor := t.rootSpan(nodes), t.rootSpan(nodes-1)
	if full != refFull || survivor != refSurvivor {
		return fmt.Errorf("detections diverged: got %d span-%d and %d span-%d, reference %d and %d",
			full, nodes, survivor, nodes-1, refFull, refSurvivor)
	}
	fmt.Printf("== multi-process counts match the in-memory reference: %d + %d ==\n", full, survivor)
	return nil
}

// reference runs the identical workload and failure on the in-memory
// single-process cluster and returns the expected root-detection counts.
func reference() (full, survivor int, err error) {
	topo := hierdet.BalancedTreeN(nodes, 2)
	exec := hierdet.GenerateWorkload(topo, rounds, seed, 1, 0, 0)
	repaired := make(chan int, 4)
	c, err := hierdet.NewLiveCluster(hierdet.LiveConfig{
		Topology: topo, Seed: seed, Verify: true,
		HbEvery: time.Millisecond,
		Events: func(e hierdet.Event) {
			if e.Kind == hierdet.EventRepairConcluded {
				repaired <- e.Node
			}
		},
	})
	if err != nil {
		return 0, 0, err
	}
	feed := func(lo, hi int) {
		for k := lo; k < hi; k++ {
			for p := 0; p < nodes; p++ {
				c.Observe(p, exec.Streams[p][k]) // no-op for killed processes
			}
		}
	}
	feed(0, phase1)
	c.Drain()
	orphans := c.Kill(victim)
	for i := 0; i < orphans; i++ {
		select {
		case <-repaired:
		case <-time.After(30 * time.Second):
			return 0, 0, fmt.Errorf("reference: repair %d/%d timed out", i+1, orphans)
		}
	}
	c.Drain()
	feed(phase1, rounds)
	c.Close()
	for _, d := range c.Detections() {
		if d.AtRoot {
			switch len(d.Det.Agg.Span) {
			case nodes:
				full++
			case nodes - 1:
				survivor++
			}
		}
	}
	return full, survivor, nil
}

// await polls cond for up to a minute — generous: CI machines are slow, and
// the deployment's startup grace alone holds repairs back for two seconds.
func await(what string, cond func() bool) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("timed out waiting for %s", what)
}
