package replay

import (
	"fmt"
	"sync"
	"time"

	"hierdet/internal/livenet"
	"hierdet/internal/obsv"
	"hierdet/internal/tree"
)

// DeliveryOptions groups the message-plane knobs of a recording (grouped
// options rather than a flat field soup — the facade's Config style).
type DeliveryOptions struct {
	// MaxDelay bounds the random per-message delivery delay (livenet
	// default 200µs when zero).
	MaxDelay time.Duration
	// Seed drives the delay distribution.
	Seed int64
}

// FailureOptions groups the failure-handling knobs. HbEvery must be set for
// schedules containing kills.
type FailureOptions struct {
	HbEvery     time.Duration
	SeekTimeout time.Duration // default per livenet
}

// RecorderConfig declares a recording session.
type RecorderConfig struct {
	// Topology is the initial spanning tree; every node must be alive. Its
	// link graph must be either complete (the default) or tree-links-only —
	// the trace format reconstructs the graph from the parent array alone,
	// so custom AddLink graphs are rejected by Validate.
	Topology *tree.Topology
	// Workload regenerates the interval streams (one interval per process
	// per round).
	Workload WorkloadSpec
	// Schedule is the step sequence to execute. Step.At is ignored on
	// input; the recorder stamps actual offsets.
	Schedule []Step
	// Plane names the delivery plane: PlaneParallel, or PlaneSharded for
	// per-report sends without coalescing.
	Plane string
	// Delivery and Failure group the runtime knobs.
	Delivery DeliveryOptions
	Failure  FailureOptions
	// Participants, when set, splits the deployment into one cluster per
	// entry (hosting exactly those nodes) wired over loopback TCP. The
	// entries must partition the topology's nodes. Nil runs a single
	// in-process cluster.
	Participants [][]int
	// Events, when set, receives every lifecycle event as it is recorded —
	// a live tap on the stream that ends up in the trace.
	Events func(obsv.Event)
}

// Validate checks the configuration and returns a *ConfigError naming the
// offending field, or nil.
func (cfg *RecorderConfig) Validate() error {
	if cfg.Topology == nil {
		return &ConfigError{Field: "Topology", Reason: "required"}
	}
	n := cfg.Topology.N()
	if n > maxTraceNodes {
		return &ConfigError{Field: "Topology", Reason: fmt.Sprintf("%d nodes exceeds the trace format's cap %d", n, maxTraceNodes)}
	}
	if err := cfg.Topology.Validate(); err != nil {
		return &ConfigError{Field: "Topology", Reason: err.Error()}
	}
	if len(cfg.Topology.AliveNodes()) != n {
		return &ConfigError{Field: "Topology", Reason: "every node must be alive at the start of a recording"}
	}
	if _, err := classifyLinks(cfg.Topology); err != nil {
		return err
	}
	if cfg.Workload.Rounds <= 0 || cfg.Workload.Rounds > maxTraceSteps {
		return &ConfigError{Field: "Workload.Rounds", Reason: fmt.Sprintf("%d outside [1, %d]", cfg.Workload.Rounds, maxTraceSteps)}
	}
	for _, p := range [3]float64{cfg.Workload.PGlobal, cfg.Workload.PGroup, cfg.Workload.PSubset} {
		if p < 0 || p > 1 {
			return &ConfigError{Field: "Workload", Reason: fmt.Sprintf("probability %v outside [0,1]", p)}
		}
	}
	if cfg.Workload.PGlobal+cfg.Workload.PGroup+cfg.Workload.PSubset > 1 {
		return &ConfigError{Field: "Workload", Reason: "probabilities sum past 1"}
	}
	if _, _, err := planePreset(cfg.Plane); err != nil {
		return err
	}
	if len(cfg.Schedule) > maxTraceSteps {
		return &ConfigError{Field: "Schedule", Reason: fmt.Sprintf("%d steps exceeds the trace format's cap %d", len(cfg.Schedule), maxTraceSteps)}
	}
	mirror := cfg.Topology.Clone()
	for i, s := range cfg.Schedule {
		switch s.Kind {
		case StepObserve:
			if s.Lo < 0 || s.Hi < s.Lo || s.Hi > cfg.Workload.Rounds {
				return &ConfigError{Field: "Schedule", Reason: fmt.Sprintf("step %d observes rounds [%d,%d) of %d", i, s.Lo, s.Hi, cfg.Workload.Rounds)}
			}
		case StepKill:
			if cfg.Failure.HbEvery <= 0 {
				return &ConfigError{Field: "Failure.HbEvery", Reason: "kill steps require heartbeats"}
			}
			if s.Node < 0 || s.Node >= n {
				return &ConfigError{Field: "Schedule", Reason: fmt.Sprintf("step %d kills unknown node %d", i, s.Node)}
			}
			if !mirror.Alive(s.Node) {
				return &ConfigError{Field: "Schedule", Reason: fmt.Sprintf("step %d kills node %d twice", i, s.Node)}
			}
			mirror.MarkFailed(s.Node)
		default:
			return &ConfigError{Field: "Schedule", Reason: fmt.Sprintf("step %d has kind %d", i, s.Kind)}
		}
	}
	if len(cfg.Participants) > 0 {
		seen := make(map[int]bool, n)
		for i, nodes := range cfg.Participants {
			if len(nodes) == 0 {
				return &ConfigError{Field: "Participants", Reason: fmt.Sprintf("participant %d hosts no nodes", i)}
			}
			for _, id := range nodes {
				if id < 0 || id >= n {
					return &ConfigError{Field: "Participants", Reason: fmt.Sprintf("participant %d hosts unknown node %d", i, id)}
				}
				if seen[id] {
					return &ConfigError{Field: "Participants", Reason: fmt.Sprintf("node %d hosted twice", id)}
				}
				seen[id] = true
			}
		}
		if len(seen) != n {
			return &ConfigError{Field: "Participants", Reason: fmt.Sprintf("%d of %d nodes hosted", len(seen), n)}
		}
	}
	return nil
}

// classifyLinks decides whether a topology's link graph is the complete
// graph or exactly the tree edges — the only two shapes the trace format
// can reconstruct from the parent array.
func classifyLinks(t *tree.Topology) (treeOnly bool, err error) {
	n := t.N()
	complete, treeExact := true, true
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			linked := t.Linked(a, b)
			edge := t.Parent(a) == b || t.Parent(b) == a
			if !linked {
				complete = false
			}
			if linked != edge {
				treeExact = false
			}
		}
	}
	switch {
	case complete:
		return false, nil
	case treeExact:
		return true, nil
	default:
		return false, &ConfigError{Field: "Topology", Reason: "link graph is neither complete nor tree-links-only; the trace format cannot represent it"}
	}
}

// Recorder drives a live deployment through a schedule and captures the
// trace. Build with NewRecorder (the clusters start immediately), execute
// with Run, release with Close (Run does so itself on the happy path).
type Recorder struct {
	cfg      RecorderConfig
	treeOnly bool
	sess     *session
	t0       time.Time

	mu     sync.Mutex
	events []EventRec
}

// NewRecorder validates the configuration and starts the deployment.
func NewRecorder(cfg RecorderConfig) (*Recorder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	treeOnly, _ := classifyLinks(cfg.Topology)
	r := &Recorder{cfg: cfg, treeOnly: treeOnly}
	sess, err := startSession(sessionSpec{
		topo:         cfg.Topology,
		treeOnly:     treeOnly,
		plane:        cfg.Plane,
		workload:     cfg.Workload,
		maxDelay:     cfg.Delivery.MaxDelay,
		deliverySeed: cfg.Delivery.Seed,
		hbEvery:      cfg.Failure.HbEvery,
		seekTimeout:  cfg.Failure.SeekTimeout,
		participants: cfg.Participants,
		events:       r.recordEvent,
	})
	if err != nil {
		return nil, err
	}
	r.sess = sess
	r.t0 = time.Now()
	return r, nil
}

// recordEvent is the Events sink wired into every cluster: append under a
// mutex (events of different nodes genuinely race; per-node order is
// preserved because each node emits from a single writer), then forward to
// the user's tap.
func (r *Recorder) recordEvent(e obsv.Event) {
	rec := EventRec{
		Kind:   uint8(e.Kind),
		Node:   e.Node,
		Peer:   e.Peer,
		Seq:    e.Seq,
		Count:  e.Count,
		AtRoot: e.AtRoot,
		At:     int64(time.Since(r.t0)),
	}
	r.mu.Lock()
	r.events = append(r.events, rec)
	r.mu.Unlock()
	if r.cfg.Events != nil {
		r.cfg.Events(e)
	}
}

// Run executes the schedule, tears the deployment down and returns the
// recorded trace. On error the deployment may still be live — call Close to
// release it.
func (r *Recorder) Run() (*Trace, error) {
	schedule := make([]Step, len(r.cfg.Schedule))
	copy(schedule, r.cfg.Schedule)
	// The pace hook runs as each step starts — the recorder uses it to
	// stamp the step's actual offset instead of to sleep.
	err := r.sess.run(schedule, func(i int) { schedule[i].At = int64(time.Since(r.t0)) }, nil)
	if err != nil {
		return nil, err
	}
	// Sampled at the final barrier: a suspicion the schedule never asked for
	// (heartbeat stalled under load) detached a live subtree mid-run, which
	// takes this recording out of the byte-reproducible class.
	if r.sess.offScript() {
		r.sess.deterministic = false
	}
	dets := r.sess.close()
	r.mu.Lock()
	events := r.events
	r.mu.Unlock()
	if len(events) > maxTraceEvents {
		return nil, fmt.Errorf("replay: recording produced %d events, past the trace format's cap %d", len(events), maxTraceEvents)
	}

	n := r.cfg.Topology.N()
	t := &Trace{
		Parents:       make([]int, n),
		TreeLinksOnly: r.treeOnly,
		Deterministic: r.sess.deterministic,
		Plane:         r.cfg.Plane,
		Workload:      r.cfg.Workload,
		MaxDelay:      r.cfg.Delivery.MaxDelay,
		HbEvery:       r.cfg.Failure.HbEvery,
		SeekTimeout:   r.cfg.Failure.SeekTimeout,
		DeliverySeed:  r.cfg.Delivery.Seed,
		Schedule:      schedule,
		Events:        events,
	}
	for i := 0; i < n; i++ {
		t.Parents[i] = r.cfg.Topology.Parent(i)
	}
	t.Outcome, t.Detections = AppendOutcome(nil, dets)
	return t, nil
}

// Metrics sums ClusterMetrics across the deployment's participants.
func (r *Recorder) Metrics() livenet.ClusterMetrics { return r.sess.metrics() }

// OffScript reports whether the deployment has shown suspicions or repairs
// its schedule does not account for (see session.offScript); final after Run.
func (r *Recorder) OffScript() bool { return r.sess.offScript() }

// Detections returns the deployment's merged, canonically ordered detections
// — the list Run encoded into the trace's outcome — closing the deployment
// first if Run has not already done so (mirrors livenet.Cluster's
// Close/Detections pairing).
func (r *Recorder) Detections() []livenet.Detection { return r.sess.close() }

// Close stops the deployment (idempotent; waits for quiescence first).
func (r *Recorder) Close() error {
	r.sess.close()
	return nil
}
