package main

import (
	"fmt"
	"time"

	"hierdet/internal/interval"
	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// shape says how the system under test is assembled for a workload.
type shape int

const (
	shapeCluster shape = iota // one in-process livenet.Cluster
	shapeSplit                // two clusters joined by loopback TCP transports
	shapeTenants              // a tenantplane.Multiplexer hosting many trees
)

// spec is one named workload. The names are fixed: later issues cite them.
type spec struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	degree, height           int     // tree.Balanced(degree, height)
	pGlobal, pGroup, pSubset float64 // round mix; the remainder is isolated
	rounds                   int     // rounds fed per pass

	// rate > 0 makes the pass open loop at that many rounds per second;
	// otherwise it is closed loop with tokens rounds in flight.
	rate   float64
	tokens int

	shape   shape
	tenants int // shapeTenants only

	// kill-and-recover: heartbeats on, Kill(killNode) just before round
	// killRound is fed. killRound < 0 means a kill-free workload.
	hbEvery   time.Duration
	killNode  int
	killRound int
}

// workloads lists the six workloads in the order a full run executes them.
// Why each exists, and which layer it bypasses, is argued in README.md.
var workloads = []spec{
	{
		name:   "deep_saturate",
		why:    "p=127 fan-in 2, every round global (alpha=1), closed loop W=16: 6 hops, one message per report; livenet delivery does most of the work",
		degree: 2, height: 6, pGlobal: 1, rounds: 1000, tokens: 16, killRound: -1,
	},
	{
		name:   "wide_compare",
		why:    "p=273 fan-in 16, mixed global/group/subset/isolated rounds, closed loop W=16: ~40 comparisons per interval, 2 hops; core, interval and vclock do most of the work",
		degree: 16, height: 2, pGlobal: .4, pGroup: .3, pSubset: .2, rounds: 300, tokens: 16, killRound: -1,
	},
	{
		name:   "paced_latency",
		why:    "the deep_saturate execution open loop at 400 rounds/s (~15% of saturation): coalescing, flush policy and wheel tick set latency instead of throughput",
		degree: 2, height: 6, pGlobal: 1, rounds: 400, rate: 400, killRound: -1,
	},
	{
		name:   "tcp_split",
		why:    "the deep_saturate execution over two clusters split by depth parity, so all 126 tree edges cross loopback TCP: wire and tcptransport do a third of the work",
		degree: 2, height: 6, pGlobal: 1, rounds: 500, tokens: 16, shape: shapeSplit, killRound: -1,
	},
	{
		name:   "kill_recover",
		why:    "the deep_saturate execution open loop at 400 rounds/s with 5 ms heartbeats and Kill(5) at round 100: repair and the failure detector do the work; the paper's title property",
		degree: 2, height: 6, pGlobal: 1, rounds: 200, rate: 400,
		hbEvery: 5 * time.Millisecond, killNode: 5, killRound: 100,
	},
	{
		name:   "tenant_fanout",
		why:    "64 tenants of p=63 sharing one execution on a tenantplane multiplexer, closed loop W=64 over (tenant, round): SharedScheduler DRR does work a standalone cluster does not",
		degree: 2, height: 5, pGlobal: 1, rounds: 40, tokens: 64, shape: shapeTenants, tenants: 64, killRound: -1,
	},
}

func findWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

func (s spec) openLoop() bool { return s.rate > 0 }
func (s spec) kills() bool    { return s.killRound >= 0 }
func (s spec) topology() *tree.Topology {
	return tree.Balanced(s.degree, s.height)
}
func (s spec) tenantCount() int {
	if s.shape == shapeTenants {
		return s.tenants
	}
	return 1
}

// inputs is everything a workload's passes share: the generated execution,
// the tree, and the ground truth derived from the execution's round record.
type inputs struct {
	spec spec
	topo *tree.Topology
	n    int
	root int
	// depth[v] and byDepth[d] index the tree for the span builder.
	depth   []int
	byDepth [][]int
	exec    *workload.Execution
	// nodeRounds[v] lists, ascending, the rounds in which the predicate
	// holds over v's whole subtree — the rounds in which v must detect.
	// rootRounds is nodeRounds[root]; expectsRoot marks them by round.
	nodeRounds  [][]int
	rootRounds  []int
	expectsRoot []bool
	// roundOfLo maps the root process's own clock component at the start of
	// its round-r interval to r. A root aggregate's Lo carries that value
	// unchanged (nobody knows a later root event when their interval
	// starts), so it names the round a root detection belongs to.
	roundOfLo map[uint32]int
	intervals int // intervals per pass per tenant
}

// generate builds the workload's inputs from the seed. The same seed gives
// the same execution; on pGlobal=1 workloads the execution does not depend
// on the seed at all (every round is a global pulse) and the seed only
// drives the cluster's injected delays.
func generate(s spec, seed int64) *inputs {
	topo := s.topology()
	in := &inputs{spec: s, topo: topo, n: topo.N(), root: topo.Roots()[0]}
	in.exec = workload.Generate(workload.Config{
		Topology: topo, Rounds: s.rounds, Seed: seed,
		PGlobal: s.pGlobal, PGroup: s.pGroup, PSubset: s.pSubset,
	})
	in.intervals = in.exec.TotalIntervals()
	in.depth = make([]int, in.n)
	in.byDepth = make([][]int, topo.Height()+1)
	for v := 0; v < in.n; v++ {
		d := topo.Depth(v)
		in.depth[v] = d
		in.byDepth[d] = append(in.byDepth[d], v)
	}
	in.groundTruth()
	in.roundOfLo = make(map[uint32]int, s.rounds)
	for r, iv := range in.exec.Streams[in.root] {
		in.roundOfLo[iv.Lo[in.root]] = r
	}
	return in
}

// groundTruth fills nodeRounds from the execution's round record. A round's
// groups partition the processes, so v's subtree is covered exactly when v
// and all its children's subtrees fall in one group: one bottom-up sweep per
// round (children have larger ids than their parent in a balanced tree).
func (in *inputs) groundTruth() {
	in.nodeRounds = make([][]int, in.n)
	in.expectsRoot = make([]bool, len(in.exec.Rounds))
	group := make([]int, in.n) // group id of each process this round
	cover := make([]int, in.n) // group id covering v's subtree, or -1
	for r, round := range in.exec.Rounds {
		for g, members := range round.Groups {
			for _, p := range members {
				group[p] = g
			}
		}
		for v := in.n - 1; v >= 0; v-- {
			cover[v] = group[v]
			for _, c := range in.topo.Children(v) {
				if cover[c] != group[v] {
					cover[v] = -1
				}
			}
			if cover[v] >= 0 {
				in.nodeRounds[v] = append(in.nodeRounds[v], r)
			}
		}
	}
	in.rootRounds = in.nodeRounds[in.root]
	for _, r := range in.rootRounds {
		in.expectsRoot[r] = true
	}
}

// stream returns process p's interval for round r.
func (in *inputs) stream(p, r int) interval.Interval { return in.exec.Streams[p][r] }
