package replay

// The session engine drives one execution of a trace's schedule — for the
// Recorder against live randomness, for the Replayer against a recorded
// trace; the two differ only in where the schedule comes from and what is
// captured on the way. A session owns one cluster per participant (wired
// over real loopback TCP when there is more than one), feeds workload
// rounds at quiescent barriers and quantizes crash-stops to the conclusion
// of the repairs they trigger, which is what makes the recorded outcome a
// property of the inputs rather than of the interleaving (see the package
// comment's determinism model).

import (
	"fmt"
	"strings"
	"time"

	"hierdet/internal/livenet"
	"hierdet/internal/obsv"
	"hierdet/internal/transport/tcptransport"
	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// Delivery plane names (livenet lane presets): the current path, and
// per-report sends, one Observe call per interval, without coalescing.
// Both run the one detection engine; "sharded" keeps its name because
// recorded traces carry it.
const (
	PlaneSharded  = "sharded"
	PlaneParallel = "parallel"
)

// planePreset translates a plane name into the livenet knobs the lane is
// defined by. batchFeed lanes take their observations through ObserveBatch.
// Traces recorded on the planes since removed ("legacy", "batched") carry a
// name that lands in the default case: they replay under an explicit
// ReplayerConfig.Plane.
func planePreset(plane string) (cfg livenet.Config, batchFeed bool, err error) {
	switch plane {
	case PlaneSharded:
	case PlaneParallel:
		cfg.AdaptiveFlush = true
		batchFeed = true
	default:
		err = &ConfigError{Field: "Plane", Reason: fmt.Sprintf("unknown delivery plane %q (have %s)", plane, strings.Join(Planes(), ", "))}
	}
	return cfg, batchFeed, err
}

// sessionPart is one participant: the cluster, the topology mirror it owns
// (clusters mutate their mirror during repair, so every participant gets a
// private clone) and the nodes it hosts.
type sessionPart struct {
	c     *livenet.Cluster
	nodes []int
	host  map[int]bool
}

// session is a running deployment executing a schedule.
type session struct {
	n         int
	mirror    *tree.Topology // session-owned view of the current tree
	parts     []*sessionPart
	exec      *workload.Execution
	batchFeed bool
	// deterministic tracks whether every kill so far stayed in the
	// byte-reproducible class; treeOnly is the recorded link mode.
	deterministic bool
	treeOnly      bool
	killsSeen     bool
	// expectedSuspects/expectedRepairs tally the failure-detector activity
	// the schedule accounts for: each kill makes the victim's orphans and
	// its surviving parent suspect it, and each orphan concludes one repair.
	// Any excess (see offScript) means a heartbeat went missing under load —
	// a spurious suspicion the schedule never asked for, which detaches real
	// subtrees and takes the outcome out of the byte-reproducible class.
	expectedSuspects int64
	expectedRepairs  int64
}

// sessionSpec is everything startSession needs; both Recorder and Replayer
// reduce to one of these.
type sessionSpec struct {
	topo         *tree.Topology // session takes ownership (clones per part)
	treeOnly     bool
	plane        string
	workload     WorkloadSpec
	maxDelay     time.Duration
	deliverySeed int64
	hbEvery      time.Duration
	seekTimeout  time.Duration
	participants [][]int // nil/len≤1 → single in-process cluster
	events       func(obsv.Event)
}

// startSession builds the clusters (and, for multi-participant deployments,
// their TCP transports) and generates the workload. On error nothing is
// left running.
func startSession(spec sessionSpec) (*session, error) {
	s := &session{
		n:             spec.topo.N(),
		mirror:        spec.topo.Clone(),
		deterministic: true,
		treeOnly:      spec.treeOnly,
	}
	s.exec = workload.Generate(workload.Config{
		Topology: spec.topo,
		Rounds:   spec.workload.Rounds,
		Seed:     spec.workload.Seed,
		PGlobal:  spec.workload.PGlobal,
		PGroup:   spec.workload.PGroup,
		PSubset:  spec.workload.PSubset,
	})

	base, batchFeed, err := planePreset(spec.plane)
	if err != nil {
		return nil, err
	}
	s.batchFeed = batchFeed
	base.MaxDelay = spec.maxDelay
	base.Seed = spec.deliverySeed
	base.HbEvery = spec.hbEvery
	base.SeekTimeout = spec.seekTimeout
	base.Verify = true
	base.Events = spec.events

	if len(spec.participants) <= 1 {
		cfg := base
		cfg.Topology = spec.topo.Clone()
		s.parts = []*sessionPart{{c: livenet.New(cfg), nodes: spec.topo.AliveNodes()}}
	} else {
		// Bind every listener first, then cross-wire the address books:
		// adoption candidates can be any node, not just tree neighbours.
		trs := make([]*tcptransport.Transport, len(spec.participants))
		for i := range trs {
			tr, err := tcptransport.New(tcptransport.Config{Listen: "127.0.0.1:0"})
			if err != nil {
				for _, prev := range trs[:i] {
					prev.Close()
				}
				return nil, fmt.Errorf("replay: bind participant %d: %w", i, err)
			}
			trs[i] = tr
		}
		addrOf := make(map[int]string, s.n)
		for i, nodes := range spec.participants {
			for _, id := range nodes {
				addrOf[id] = trs[i].Addr()
			}
		}
		for i, nodes := range spec.participants {
			local := make(map[int]bool, len(nodes))
			for _, id := range nodes {
				local[id] = true
			}
			peers := make(map[int]string, s.n)
			for id, addr := range addrOf {
				if !local[id] {
					peers[id] = addr
				}
			}
			trs[i].SetPeers(peers)
		}
		for i, nodes := range spec.participants {
			cfg := base
			cfg.Topology = spec.topo.Clone()
			cfg.Transport = trs[i]
			cfg.LocalNodes = nodes
			part := &sessionPart{c: livenet.New(cfg), nodes: nodes, host: make(map[int]bool, len(nodes))}
			for _, id := range nodes {
				part.host[id] = true
			}
			s.parts = append(s.parts, part)
		}
	}
	return s, nil
}

// partOf returns the participant hosting node id.
func (s *session) partOf(id int) *sessionPart {
	if len(s.parts) == 1 {
		return s.parts[0]
	}
	for _, p := range s.parts {
		if p.host[id] {
			return p
		}
	}
	return nil
}

// observe feeds rounds [lo, hi) of every currently-alive process, then
// settles. Each workload round generates exactly one interval per process,
// so Streams[p][lo:hi] is the round range.
func (s *session) observe(lo, hi int) error {
	for _, p := range s.mirror.AliveNodes() {
		stream := s.exec.Streams[p]
		if hi > len(stream) {
			return fmt.Errorf("replay: observe step [%d,%d) beyond process %d's %d rounds", lo, hi, p, len(stream))
		}
		part := s.partOf(p)
		if s.batchFeed {
			part.c.ObserveBatch(p, stream[lo:hi])
		} else {
			for _, iv := range stream[lo:hi] {
				part.c.Observe(p, iv)
			}
		}
	}
	return s.settle()
}

// kill crash-stops victim at the current quiescent barrier and blocks until
// every repair the crash triggered has concluded: the orphans' repair
// counters account for each orphan, and the surviving parent (if any) has
// dropped the dead child's queue. It also classifies the kill against the
// determinism model.
func (s *session) kill(victim int) error {
	if !s.mirror.Alive(victim) {
		return fmt.Errorf("replay: kill of already-dead node %d", victim)
	}
	s.killsSeen = true
	if !s.mirror.IsLeaf(victim) && !s.treeOnly {
		// An orphaned subtree on a complete graph renegotiates its parent;
		// which candidate adopts is a heartbeat-timing race.
		s.deterministic = false
	}
	parent := s.mirror.Parent(victim)
	_, orphans := s.mirror.MarkFailed(victim)
	s.expectedRepairs += int64(len(orphans))
	s.expectedSuspects += int64(len(orphans))
	if parent != tree.None && s.mirror.Alive(parent) {
		s.expectedSuspects++
	}

	repairsBase := s.sumRepairs()
	dropsBase := int64(-1)
	var parentPart *sessionPart
	if parent != tree.None && s.mirror.Alive(parent) {
		parentPart = s.partOf(parent)
		dropsBase = int64(parentPart.c.Metrics()[parent].ChildDrops)
	}

	s.partOf(victim).c.Kill(victim)

	deadline := time.Now().Add(30 * time.Second)
	for {
		if s.offScriptExcess() {
			// The run has gone off-script — e.g. the parent spuriously
			// suspected and dropped the victim before the kill, which makes
			// this barrier unsatisfiable. The execution is still sound, just
			// not byte-reproducible: downgrade and settle for quiescence
			// instead of step precision.
			s.deterministic = false
			break
		}
		done := s.sumRepairs() >= repairsBase+int64(len(orphans))
		if done && parentPart != nil {
			done = int64(parentPart.c.Metrics()[parent].ChildDrops) >= dropsBase+1
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replay: repair barrier after killing %d timed out (%d orphans, repairs %d→%d)",
				victim, len(orphans), repairsBase, s.sumRepairs())
		}
		time.Sleep(time.Millisecond)
	}
	return s.settle()
}

func (s *session) sumRepairs() int64 {
	total := int64(0)
	for _, p := range s.parts {
		total += int64(len(p.c.Repairs()))
	}
	return total
}

// settle blocks until the whole deployment is quiescent. A single
// participant's credit ledger covers every in-flight consequence of what
// was fed, so Drain suffices; across participants TCP frames in flight
// carry no credit, so after draining every ledger the session polls the
// summed traffic counters until they hold still.
func (s *session) settle() error {
	for _, p := range s.parts {
		p.c.Drain()
	}
	if len(s.parts) == 1 {
		return nil
	}
	type snap struct{ in, out, dets, stale, drops, repairs, dups int64 }
	sum := func() snap {
		var v snap
		for _, p := range s.parts {
			cm := p.c.ClusterMetrics()
			v.in += cm.MsgsIn
			v.out += cm.MsgsOut
			v.dets += cm.Detections
			v.stale += cm.StaleReports
			v.drops += cm.ChildDrops
			v.repairs += cm.Repairs
			v.dups += cm.Duplicates
		}
		return v
	}
	deadline := time.Now().Add(60 * time.Second)
	prev := sum()
	stable := 0
	for stable < 3 {
		if time.Now().After(deadline) {
			return fmt.Errorf("replay: settle timed out (traffic still moving after 60s)")
		}
		time.Sleep(2 * time.Millisecond)
		for _, p := range s.parts {
			p.c.Drain()
		}
		cur := sum()
		if cur == prev {
			stable++
		} else {
			stable = 0
			prev = cur
		}
	}
	return nil
}

// run executes a schedule from the top. stepDone, when set, is called after
// each step with its index (the Recorder stamps step times through it).
func (s *session) run(schedule []Step, pace func(i int), stepDone func(i int)) error {
	for i, st := range schedule {
		if pace != nil {
			pace(i)
		}
		var err error
		switch st.Kind {
		case StepObserve:
			err = s.observe(st.Lo, st.Hi)
		case StepKill:
			err = s.kill(st.Node)
		default:
			err = fmt.Errorf("replay: unknown step kind %d", st.Kind)
		}
		if err != nil {
			return err
		}
		if stepDone != nil {
			stepDone(i)
		}
	}
	return nil
}

// close tears the deployment down (idempotent) and returns the merged,
// canonically ordered detections. Transports are closed by their clusters.
func (s *session) close() []livenet.Detection {
	lists := make([][]livenet.Detection, len(s.parts))
	for i, p := range s.parts {
		p.c.Close()
		lists[i] = p.c.Detections()
	}
	return MergeDetections(lists...)
}

// offScript reports failure-detector activity beyond what the schedule
// accounts for: a suspicion or repair the harness never asked for happened —
// some heartbeat stalled past its timeout under load and a live subtree was
// detached. The outcome is still sound, but it is not byte-reproducible, so
// callers sample this at the final barrier (before close) and downgrade the
// determinism class.
func (s *session) offScript() bool {
	ev := s.metrics().Events
	return ev["node_suspected"] != s.expectedSuspects ||
		ev["repair_concluded"] != s.expectedRepairs
}

// offScriptExcess is the barrier-escape form of offScript: strictly more
// failure-detector activity than the schedule accounts for. Mid-kill the
// counters may legitimately lag the expectation; they may never exceed it.
func (s *session) offScriptExcess() bool {
	ev := s.metrics().Events
	return ev["node_suspected"] > s.expectedSuspects ||
		ev["repair_concluded"] > s.expectedRepairs
}

// metrics sums ClusterMetrics across participants (scalar fields the
// harnesses reconcile; per-kind event counts are merged too).
func (s *session) metrics() livenet.ClusterMetrics {
	var out livenet.ClusterMetrics
	out.Events = make(map[string]int64)
	for _, p := range s.parts {
		cm := p.c.ClusterMetrics()
		out.Nodes += cm.Nodes
		out.MsgsIn += cm.MsgsIn
		out.MsgsOut += cm.MsgsOut
		out.IntervalsIn += cm.IntervalsIn
		out.Detections += cm.Detections
		out.StaleReports += cm.StaleReports
		out.Duplicates += cm.Duplicates
		out.Repairs += cm.Repairs
		out.ChildDrops += cm.ChildDrops
		out.Heartbeats += cm.Heartbeats
		out.BadFrames += cm.BadFrames
		out.LatencyCount += cm.LatencyCount
		if cm.LatencyP50 > out.LatencyP50 {
			out.LatencyP50 = cm.LatencyP50
		}
		if cm.LatencyP99 > out.LatencyP99 {
			out.LatencyP99 = cm.LatencyP99
		}
		out.KilledProcesses += cm.KilledProcesses
		for k, v := range cm.Events {
			out.Events[k] += v
		}
	}
	return out
}
