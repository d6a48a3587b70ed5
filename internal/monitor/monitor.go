// Package monitor is the runtime that deploys the detectors onto the
// simulated network: it turns a recorded execution (internal/workload) into
// timed local-interval completions at each process, ships aggregates up the
// spanning tree (hierarchical mode) or raw intervals hop-by-hop to a sink
// (centralized mode, the baseline [12]), detects node failures through
// heartbeats, and repairs the tree so detection of the partial predicate
// continues — the end-to-end system of the paper.
//
// Everything runs on internal/simnet's deterministic event loop: a seed
// fixes the whole run, including message reordering and failure timing.
//
// Two protocol details the paper leaves implicit are made explicit here:
//
//   - Non-FIFO channels versus queue order: Algorithm 1's queues require
//     intervals from one sender to arrive in generation order. Every
//     child→parent link therefore carries a per-link sequence number and the
//     receiver resequences (buffering out-of-order arrivals). A link's
//     counter restarts at zero when the tree is repaired, so adoption needs
//     no handshake.
//   - Failure detection and repair: processes exchange heartbeats with their
//     tree neighbours and suspect a peer after a silence of HbTimeout. The
//     repair itself (who adopts which orphan subtree) is arbitrated by the
//     topology manager with global knowledge — a simulator substitution for
//     the distributed reattachment protocol the paper assumes exists but
//     does not specify (§III-F); the information it uses (liveness plus the
//     neighbour graph) is exactly what that protocol would gather.
package monitor

import (
	"fmt"
	"math/rand"

	"hierdet/internal/core"
	"hierdet/internal/interval"
	"hierdet/internal/repair"
	"hierdet/internal/simnet"
	"hierdet/internal/tree"
	"hierdet/internal/vclock"
	"hierdet/internal/wire"
	"hierdet/internal/workload"
)

// Message kinds on the simulated network.
const (
	// KindIvl is a hierarchical child→parent aggregate report (one hop).
	KindIvl simnet.Kind = "ivl"
	// KindFwd is a centralized raw-interval forward (one hop of a route).
	KindFwd simnet.Kind = "fwd"
	// KindHb is a heartbeat.
	KindHb simnet.Kind = "hb"
)

// Mode selects the algorithm under test.
type Mode int

const (
	// Hierarchical runs Algorithm 1 (this paper).
	Hierarchical Mode = iota
	// Centralized runs the repeated-detection baseline [12]: one sink, all
	// intervals routed to it over the tree.
	Centralized
)

// Config parameterizes a run.
type Config struct {
	Mode     Mode
	Topology *tree.Topology
	Exec     *workload.Execution

	// Seed drives message delays and local-completion jitter.
	Seed int64
	// MinDelay/MaxDelay bound per-hop message delay (simnet defaults apply
	// when both are zero).
	MinDelay, MaxDelay simnet.Time
	// FIFO forces per-link in-order delivery (ablation; default non-FIFO).
	FIFO bool
	// LossProb drops messages with the given probability — a deliberate
	// violation of the model's reliable channels, to demonstrate the
	// consequence: a lost report permanently stalls its link's resequencer,
	// so detections are missed (never falsified). Incompatible with
	// heartbeats (lost beats would look like crashes).
	LossProb float64

	// Spacing is the virtual time between successive rounds' interval
	// completions (default 1000 ticks). It must exceed MaxDelay for the
	// detection pipeline to drain between rounds under failures.
	Spacing simnet.Time

	// BatchWindow, when positive, buffers a node's reports to its parent
	// and flushes them as one message after the window elapses — an
	// optimization beyond the paper that trades up to one window of
	// detection latency for per-message overhead (hierarchical mode only).
	BatchWindow simnet.Time

	// DiffTimestamps accounts interval-report bytes as if the vector
	// timestamps were encoded differentially per link (the Singhal–
	// Kshemkalyani technique, wire.DiffEncoder): only components changed
	// since the link's previous report are charged. Requires FIFO links —
	// the differential stream is order-sensitive. Accounting-only ablation;
	// the detection logic is unchanged.
	DiffTimestamps bool

	// HbEvery enables heartbeats at the given period; HbTimeout is the
	// silence after which a neighbour is suspected. Zero disables heartbeats
	// (failures are then repaired immediately at crash time).
	HbEvery, HbTimeout simnet.Time

	// DistributedRepair replaces the topology oracle with the message-driven
	// reattachment protocol of attach.go: orphan subtree roots negotiate
	// adoption with live neighbours over the network (requires heartbeats;
	// hierarchical mode only). The topology object then merely mirrors the
	// protocol's decisions.
	DistributedRepair bool

	// SinkID is the sink process for Centralized mode (default: the tree
	// root).
	SinkID int

	// OnDetection, if non-nil, is invoked synchronously (on the simulation
	// goroutine) for every detection at every level as it happens — the
	// subscription hook a continuous monitoring application uses instead of
	// post-hoc Result inspection.
	OnDetection func(Detection)

	// Strict enables succession checking inside the detectors (tests).
	Strict bool
	// KeepMembers retains solution sets on aggregates for verification.
	KeepMembers bool
	// ResendLastOnAdopt makes a child whose parent died resend its most
	// recent aggregate to its new parent (the paper's Figure 2(c) behaviour,
	// where P2 reports the already-generated ⊓{x1,x3} to P4). It recovers
	// reports lost in flight to the dead parent at the cost of occasionally
	// re-detecting, at the new parent, an occurrence the dead parent had
	// already consumed. Off by default.
	ResendLastOnAdopt bool
}

// Repair records the start of one failure's tree repair.
type Repair struct {
	At   simnet.Time
	Node int
}

// Detection is one predicate satisfaction observed during the run.
type Detection struct {
	Time simnet.Time
	Node int
	// AtRoot reports whether Node was a tree root at detection time — a
	// root detection covers the whole (remaining) network.
	AtRoot bool
	Det    core.Detection
}

// Result aggregates everything a run produced.
type Result struct {
	// Detections holds every detection at every level, in virtual-time order.
	Detections []Detection
	// Net is the traffic statistics (message complexity).
	Net simnet.Stats
	// NodeStats maps process id → detector work counters.
	NodeStats map[int]core.Stats
	// AggSentByDepth counts hierarchical aggregate sends by the sender's
	// depth at send time (for measuring the per-level aggregation ratio α).
	AggSentByDepth map[int]int
	// ResidentHighWater sums each node's queue high-water mark — the
	// measured space complexity, per node and total.
	ResidentHighWater map[int]int
	// Failed lists processes crashed during the run, in order.
	Failed []int
	// Repairs records when each failure's tree repair began (for heartbeat
	// mode, that is when the first neighbour's suspicion confirmed) — the
	// failure-detection latency is Repairs[i].At − the crash time.
	Repairs []Repair
	// EndTime is the virtual time when the run went idle.
	EndTime simnet.Time
	// Spacing echoes the configured round spacing, for latency analysis.
	Spacing simnet.Time
	// StaleReports counts reports that arrived at a node which no longer
	// (or never) had the sender as a child — in-flight traffic across
	// repairs. Zero in failure-free runs.
	StaleReports int
	// BufferedReports counts reports still held by resequencers at the end
	// of the run — nonzero only when a gap never filled (message loss or a
	// sender's death mid-stream).
	BufferedReports int
	// WireBytesV1 and WireBytesV2 total the run's traffic under the two wire
	// framings: fixed-width v1 frames, and v2 delta frames (each clock in the
	// shorter of its two forms) with per-link basis chaining (each report's
	// Lo charged against the previous report's Hi on the same link, as the
	// TCP transport encodes them).
	// Heartbeats and attach frames cost the same in both. These are parallel
	// accountings of the same message sequence — Net.Bytes remains the
	// simulator's configured charging (v1, or the differential encoding when
	// DiffTimestamps is set).
	WireBytesV1, WireBytesV2 int
}

// RootLatencies returns, for each root detection whose solution set was
// retained (KeepMembers), the delay between the detected round's completion
// (its base intervals' round index times the round spacing) and the
// detection time. It measures the pipeline depth of the hierarchy.
func (r *Result) RootLatencies() []simnet.Time {
	var out []simnet.Time
	for _, d := range r.RootDetections() {
		round := -1
		for _, b := range interval.BaseIntervals(d.Det.Agg) {
			if b.Agg {
				round = -1
				break
			}
			if b.Seq > round {
				round = b.Seq
			}
		}
		if round < 0 {
			continue
		}
		if lat := d.Time - simnet.Time(round+1)*r.Spacing; lat >= 0 {
			out = append(out, lat)
		}
	}
	return out
}

// RootDetections filters detections observed at a tree root.
func (r *Result) RootDetections() []Detection {
	var out []Detection
	for _, d := range r.Detections {
		if d.AtRoot {
			out = append(out, d)
		}
	}
	return out
}

// DetectionsAt filters detections observed at one node.
func (r *Result) DetectionsAt(node int) []Detection {
	var out []Detection
	for _, d := range r.Detections {
		if d.Node == node {
			out = append(out, d)
		}
	}
	return out
}

// Runner owns one configured run. Build with NewRunner, optionally schedule
// failures, then call Run once.
type Runner struct {
	cfg          Config
	sim          *simnet.Sim
	topo         *tree.Topology
	rng          *rand.Rand
	agents       map[int]*agent
	cent         *centRuntime
	res          Result
	repaired     map[int]bool
	ran          bool
	horizon      simnet.Time
	attachReqSeq int
}

// managerID is the reserved simnet id for the runner's control timers.
const managerID = -1

// NewRunner builds a runner. The topology is mutated during the run (failure
// repair); pass a fresh one per run.
func NewRunner(cfg Config) *Runner {
	if cfg.Topology == nil || cfg.Exec == nil {
		panic("monitor: Topology and Exec are required")
	}
	if cfg.Exec.N != cfg.Topology.N() {
		panic(fmt.Sprintf("monitor: execution over %d processes, topology over %d", cfg.Exec.N, cfg.Topology.N()))
	}
	if cfg.Spacing == 0 {
		cfg.Spacing = 1000
	}
	if cfg.HbEvery != 0 && cfg.HbTimeout == 0 {
		cfg.HbTimeout = 3 * cfg.HbEvery
	}
	if cfg.DistributedRepair {
		if cfg.Mode != Hierarchical {
			panic("monitor: DistributedRepair requires hierarchical mode")
		}
		if cfg.HbEvery == 0 {
			panic("monitor: DistributedRepair requires heartbeats (set HbEvery)")
		}
	}
	if cfg.LossProb > 0 && cfg.HbEvery > 0 {
		panic("monitor: LossProb cannot be combined with heartbeats (lost beats read as crashes)")
	}
	if cfg.DiffTimestamps && !cfg.FIFO {
		panic("monitor: DiffTimestamps requires FIFO links (the differential stream is order-sensitive)")
	}
	if cfg.DiffTimestamps && cfg.LossProb > 0 {
		panic("monitor: DiffTimestamps requires lossless links")
	}
	topo := cfg.Topology
	r := &Runner{
		cfg:      cfg,
		topo:     topo,
		rng:      rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		agents:   make(map[int]*agent),
		repaired: make(map[int]bool),
	}
	r.sim = simnet.New(simnet.Config{
		Seed:     cfg.Seed,
		MinDelay: cfg.MinDelay,
		MaxDelay: cfg.MaxDelay,
		FIFO:     cfg.FIFO,
		LossProb: cfg.LossProb,
		// Account wire bytes with the real encoding sizes: interval reports
		// carry two O(n) vector-timestamp cuts plus the span (the paper's
		// "each message has size O(n)"); heartbeats are constant-size. With
		// DiffTimestamps the two cuts are charged at their differential
		// encoding size per link instead.
		PayloadBytes: r.payloadBytes(),
	})
	r.sim.Register(managerID, managerHandler{r})
	r.res.NodeStats = make(map[int]core.Stats)
	r.res.AggSentByDepth = make(map[int]int)
	r.res.ResidentHighWater = make(map[int]int)

	rounds := 0
	for _, s := range cfg.Exec.Streams {
		if len(s) > rounds {
			rounds = len(s)
		}
	}
	r.horizon = simnet.Time(rounds+5)*cfg.Spacing + 200*r.maxDelay()

	switch cfg.Mode {
	case Hierarchical:
		r.buildHierarchical()
	case Centralized:
		r.buildCentralized()
	default:
		panic(fmt.Sprintf("monitor: unknown mode %d", cfg.Mode))
	}
	r.scheduleLocalIntervals()
	return r
}

func (r *Runner) maxDelay() simnet.Time {
	if r.cfg.MaxDelay == 0 {
		return 10 // simnet default
	}
	return r.cfg.MaxDelay
}

// ScheduleFailure crashes node at virtual time at. Call before Run.
func (r *Runner) ScheduleFailure(at simnet.Time, node int) {
	if r.ran {
		panic("monitor: ScheduleFailure after Run")
	}
	r.sim.After(managerID, at, "crash", node)
}

// Run executes the whole schedule and returns the result. It can be called
// once.
func (r *Runner) Run() *Result {
	if r.ran {
		panic("monitor: Run called twice")
	}
	r.ran = true
	r.sim.RunUntilIdle()
	r.res.Net = r.sim.Stats()
	r.res.EndTime = r.sim.Now()
	r.res.Spacing = r.cfg.Spacing
	for id, a := range r.agents {
		r.res.NodeStats[id] = a.node.Stats()
		_, hw := a.node.QueueSizes()
		r.res.ResidentHighWater[id] = hw
		r.res.StaleReports += a.staleIvls
		for _, rs := range a.reseq {
			r.res.BufferedReports += rs.Buffered()
		}
	}
	if r.cent != nil {
		for _, rs := range r.cent.reseq {
			r.res.BufferedReports += rs.Buffered()
		}
		r.res.NodeStats[r.cent.sink.ID()] = r.cent.sink.Stats()
		_, hw := r.cent.sink.QueueSizes()
		r.res.ResidentHighWater[r.cent.sink.ID()] = hw
	}
	return &r.res
}

// payloadBytes builds the byte-accounting function for the simulated
// network: real wire-format sizes, optionally with differential
// vector-timestamp encoding per link (Config.DiffTimestamps).
func (r *Runner) payloadBytes() func(from, to int, kind simnet.Kind, payload any) int {
	n := r.topo.N()
	type linkClocks struct{ lo, hi vclock.VC }
	diffState := make(map[[2]int]*linkClocks)
	v2Basis := make(map[[2]int]vclock.VC) // per-link previous Hi, as the TCP transport chains

	// reportBytes charges one report at its configured framing size and, on
	// the side, accumulates the parallel v1/v2 accountings (Result
	// .WireBytesV1/V2) for the byte-volume experiments.
	reportBytes := func(from, to int, rep wire.Report) int {
		iv := rep.Iv
		v1 := wire.ReportSize(n, len(iv.Span))
		key := [2]int{from, to}
		r.res.WireBytesV1 += v1
		r.res.WireBytesV2 += wire.ReportSizeV2(rep, v2Basis[key])
		v2Basis[key] = append(v2Basis[key][:0], iv.Hi...)
		if !r.cfg.DiffTimestamps {
			return v1
		}
		st := diffState[key]
		if st == nil {
			st = &linkClocks{}
			diffState[key] = st
		}
		nonClock := v1 - 2*vclock.WireSize(n)
		size := nonClock +
			wire.DiffSize(wire.ChangedComponents(st.lo, iv.Lo)) +
			wire.DiffSize(wire.ChangedComponents(st.hi, iv.Hi))
		st.lo, st.hi = iv.Lo.Clone(), iv.Hi.Clone()
		return size
	}

	constBytes := func(size int) int {
		// Heartbeats and attach frames cost the same under both framings.
		r.res.WireBytesV1 += size
		r.res.WireBytesV2 += size
		return size
	}

	return func(from, to int, kind simnet.Kind, payload any) int {
		switch kind {
		case KindIvl:
			size := 0
			for _, pl := range payload.(ivlBatch) {
				size += reportBytes(from, to, wire.Report{Iv: pl.Iv, LinkSeq: pl.LinkSeq, Epoch: pl.Epoch})
			}
			return size
		case KindFwd:
			return reportBytes(from, to, wire.Report{Iv: payload.(fwdPayload).Iv})
		case KindHb:
			if pl, ok := payload.(hbPayload); ok {
				return constBytes(wire.HeartbeatWireSize(len(pl.Covered)))
			}
			return constBytes(wire.HeartbeatSize)
		case KindAttach:
			return constBytes(wire.AttachWireSize(len(payload.(repair.Msg).Covered)))
		default:
			return 0
		}
	}
}

// managerHandler funnels control timers (failure injection) to the runner.
type managerHandler struct{ r *Runner }

func (m managerHandler) OnMessage(at simnet.Time, msg simnet.Message) {
	panic("monitor: manager received a network message")
}

func (m managerHandler) OnTimer(at simnet.Time, kind simnet.Kind, data any) {
	switch kind {
	case "crash":
		m.r.crash(at, data.(int))
	default:
		panic(fmt.Sprintf("monitor: unknown manager timer %q", kind))
	}
}

// crash injects a crash-stop failure. With heartbeats enabled the neighbours
// discover it and trigger repair; otherwise repair is immediate.
func (r *Runner) crash(at simnet.Time, node int) {
	if r.sim.Crashed(node) {
		return
	}
	r.sim.Crash(node)
	r.res.Failed = append(r.res.Failed, node)
	if r.cfg.HbEvery == 0 {
		r.repair(at, node)
	}
}

// suspect is called by an agent whose neighbour went silent past HbTimeout.
func (r *Runner) suspect(at simnet.Time, reporter, peer int) {
	if r.cfg.DistributedRepair {
		r.distSuspect(at, reporter, peer)
		return
	}
	if !r.sim.Crashed(peer) {
		panic(fmt.Sprintf("monitor: false suspicion of %d by %d (heartbeat timeout too small for the delay window)", peer, reporter))
	}
	r.repair(at, peer)
}

// repair applies the topology surgery for a confirmed failure and replays it
// onto the detector agents.
func (r *Runner) repair(at simnet.Time, failed int) {
	if r.repaired[failed] {
		return
	}
	r.repaired[failed] = true
	r.res.Repairs = append(r.res.Repairs, Repair{At: at, Node: failed})

	if r.cfg.Mode == Centralized {
		if failed == r.cent.sink.ID() {
			// The sink died: the centralized algorithm is over — the paper's
			// single point of failure. Nothing to repair toward.
			return
		}
		r.topo.Fail(failed)
		r.cent.removed[failed] = true
		r.record(at, r.cent.sink.RemoveProcess(failed), r.cent.sinkAgent.id)
		return
	}

	cs := r.topo.Fail(failed)
	if p := cs.ParentOfFailed; p != tree.None && !r.sim.Crashed(p) {
		if a := r.agents[p]; a != nil {
			r.record(at, a.removeChild(failed), p)
		}
	}
	for _, rp := range cs.Reparented {
		if rp.OldParent != tree.None && rp.OldParent != failed && !r.sim.Crashed(rp.OldParent) {
			r.record(at, r.agents[rp.OldParent].removeChild(rp.Node), rp.OldParent)
		}
		child := r.agents[rp.Node]
		parentDied := rp.OldParent == failed
		child.setParent(rp.NewParent)
		if rp.NewParent != tree.None {
			r.agents[rp.NewParent].addChild(rp.Node)
			if r.cfg.ResendLastOnAdopt && parentDied {
				child.resendLast(at)
			}
		}
	}
}

// record logs detections made by node and forwards their aggregates upward.
func (r *Runner) record(at simnet.Time, dets []core.Detection, node int) {
	a := r.agents[node]
	for _, det := range dets {
		atRoot := a == nil || a.parent == tree.None
		d := Detection{Time: at, Node: node, AtRoot: atRoot, Det: det}
		r.res.Detections = append(r.res.Detections, d)
		if r.cfg.OnDetection != nil {
			r.cfg.OnDetection(d)
		}
		if a != nil && a.parent != tree.None {
			a.sendAggregate(at, det.Agg)
		}
	}
}
