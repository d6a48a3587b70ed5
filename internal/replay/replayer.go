package replay

import (
	"bytes"
	"fmt"
	"time"

	"hierdet/internal/livenet"
	"hierdet/internal/obsv"
	"hierdet/internal/tree"
)

// ReplayerConfig parameterizes a replay. The zero value replays on the
// trace's recorded plane as fast as the barriers allow.
type ReplayerConfig struct {
	// Plane overrides the delivery plane to replay through; empty uses the
	// trace's recorded plane. Outcome parity holds across planes — that is
	// the point of the determinism model.
	Plane string
	// Speed scales the recorded step pacing: 1 replays steps at their
	// recorded wall-clock offsets, 2 at double speed, and 0 (the default)
	// runs each step as soon as the previous barrier clears.
	Speed float64
	// Events, when set, receives the replaying deployment's live event
	// stream (not the recorded one — compare the two to study divergence).
	Events func(obsv.Event)
}

// Result is the outcome of one replay.
type Result struct {
	// Detections is the replay's merged, canonically ordered detection
	// list; Outcome is its canonical encoding.
	Detections []livenet.Detection
	Outcome    []byte
	// Match reports byte-equality of Outcome against the recorded trace's.
	// It is the parity verdict only when Deterministic is set; a
	// nondeterministic trace can legitimately mismatch.
	Match bool
	// Deterministic is the trace's determinism class, downgraded when this
	// replay itself went off-script (a spurious failure suspicion under
	// load detached a live subtree) — Match is a verdict only when set.
	Deterministic bool
	// Plane is the plane the replay actually ran on.
	Plane string
}

// Replayer re-executes a recorded trace. Build with NewReplayer (the
// cluster starts immediately), execute with Run, release with Close if Run
// errored.
type Replayer struct {
	trace *Trace
	cfg   ReplayerConfig
	plane string
	sess  *session
	t0    time.Time
}

// TopologyOf reconstructs a trace's initial topology. It rejects parent
// arrays the tree package would panic on (cycles, out-of-range ids), so a
// decoded-but-hostile trace fails with an error instead.
func TopologyOf(t *Trace) (*tree.Topology, error) {
	n := len(t.Parents)
	if n == 0 {
		return nil, fmt.Errorf("replay: trace has no nodes: %w", errBadTrace)
	}
	for i, p := range t.Parents {
		if p < tree.None || p >= n || p == i {
			return nil, fmt.Errorf("replay: node %d has parent %d: %w", i, p, errBadTrace)
		}
	}
	// Reject cycles before SetParent (which panics on them): follow each
	// parent chain; more than n hops means a loop.
	for i := range t.Parents {
		hops, at := 0, i
		for t.Parents[at] != tree.None {
			at = t.Parents[at]
			if hops++; hops > n {
				return nil, fmt.Errorf("replay: parent cycle through node %d: %w", i, errBadTrace)
			}
		}
	}
	topo := tree.New(n)
	for i, p := range t.Parents {
		if p != tree.None {
			topo.SetParent(i, p)
		}
	}
	if t.TreeLinksOnly {
		topo.UseTreeLinksOnly()
	}
	return topo, nil
}

// errBadTrace marks a structurally valid encoding describing an unrunnable
// execution.
var errBadTrace = fmt.Errorf("unrunnable trace")

// NewReplayer validates the trace, reconstructs its topology and starts the
// deployment. The replay always runs as a single in-process cluster
// whatever deployment shape recorded the trace — outcome independence from
// deployment shape is part of the determinism model.
func NewReplayer(t *Trace, cfg ReplayerConfig) (*Replayer, error) {
	if t == nil {
		return nil, &ConfigError{Field: "Trace", Reason: "required"}
	}
	if cfg.Speed < 0 {
		return nil, &ConfigError{Field: "Speed", Reason: fmt.Sprintf("%v is negative", cfg.Speed)}
	}
	plane := cfg.Plane
	if plane == "" {
		plane = t.Plane
	}
	if _, _, err := planePreset(plane); err != nil {
		return nil, err
	}
	topo, err := TopologyOf(t)
	if err != nil {
		return nil, err
	}
	if t.Workload.Rounds <= 0 {
		return nil, fmt.Errorf("replay: trace declares %d workload rounds: %w", t.Workload.Rounds, errBadTrace)
	}
	hbEvery := t.HbEvery
	for _, s := range t.Schedule {
		if s.Kind == StepKill && hbEvery <= 0 {
			return nil, fmt.Errorf("replay: trace schedules kills without heartbeats: %w", errBadTrace)
		}
	}
	sess, err := startSession(sessionSpec{
		topo:         topo,
		treeOnly:     t.TreeLinksOnly,
		plane:        plane,
		workload:     t.Workload,
		maxDelay:     t.MaxDelay,
		deliverySeed: t.DeliverySeed,
		hbEvery:      hbEvery,
		seekTimeout:  t.SeekTimeout,
		events:       cfg.Events,
	})
	if err != nil {
		return nil, err
	}
	return &Replayer{trace: t, cfg: cfg, plane: plane, sess: sess}, nil
}

// Run executes the trace's schedule and returns the replay result with the
// parity verdict. On error the deployment may still be live — call Close to
// release it.
func (r *Replayer) Run() (*Result, error) {
	r.t0 = time.Now()
	var pace func(int)
	if r.cfg.Speed > 0 {
		pace = func(i int) {
			target := time.Duration(float64(r.trace.Schedule[i].At) / r.cfg.Speed)
			if d := time.Until(r.t0.Add(target)); d > 0 {
				time.Sleep(d)
			}
		}
	}
	if err := r.sess.run(r.trace.Schedule, pace, nil); err != nil {
		return nil, err
	}
	onScript := !r.sess.offScript()
	dets := r.sess.close()
	out, _ := AppendOutcome(nil, dets)
	return &Result{
		Detections:    dets,
		Outcome:       out,
		Match:         bytes.Equal(out, r.trace.Outcome),
		Deterministic: r.trace.Deterministic && onScript,
		Plane:         r.plane,
	}, nil
}

// Metrics sums ClusterMetrics across the replaying deployment.
func (r *Replayer) Metrics() livenet.ClusterMetrics { return r.sess.metrics() }

// Close stops the deployment (idempotent; waits for quiescence first).
func (r *Replayer) Close() error {
	r.sess.close()
	return nil
}
