package hierdet

import (
	"hierdet/internal/replay"
	"hierdet/internal/wire"
)

// replay.go — the public face of the trace capture / deterministic replay
// subsystem (internal/replay). A TraceRecorder drives a live deployment
// through a declared schedule of observation phases and crash-stops and
// captures the inputs, the lifecycle event stream and the canonical
// detection outcome into a compact binary Trace; a TraceReplayer re-executes
// a Trace through any delivery plane at adjustable speed and checks the
// outcome byte-for-byte. See the internal/replay package comment (and
// DESIGN.md §14) for the determinism model — which schedules are
// byte-reproducible and why.

// Trace is one recorded execution: topology, workload spec, schedule,
// lifecycle events and the canonical detection outcome.
type Trace = replay.Trace

// TraceWorkload is the recorded workload-generator input; together with the
// topology it regenerates the exact interval streams.
type TraceWorkload = replay.WorkloadSpec

// TraceStep is one schedule entry — an observation phase or a crash-stop,
// each quantized to a quiescent barrier.
type TraceStep = replay.Step

// TraceStepKind discriminates schedule steps.
type TraceStepKind = replay.StepKind

// Schedule step kinds.
const (
	// TraceStepObserve feeds a round range of every alive process, then
	// settles.
	TraceStepObserve = replay.StepObserve
	// TraceStepKill crash-stops one process and waits for the repairs it
	// caused to conclude.
	TraceStepKill = replay.StepKill
)

// TraceEvent is one recorded lifecycle event (the scalar projection of
// Event, plus its offset from session start).
type TraceEvent = replay.EventRec

// Delivery plane names for recording and replay: the current path
// (parallel) and per-report sends without coalescing (sharded, a name
// recorded traces carry; both run the one detection engine).
const (
	PlaneSharded  = replay.PlaneSharded
	PlaneParallel = replay.PlaneParallel
)

// ReplayPlanes lists every delivery plane name.
func ReplayPlanes() []string { return replay.Planes() }

// TraceDeliveryOptions groups a recording's message-plane knobs.
type TraceDeliveryOptions = replay.DeliveryOptions

// TraceFailureOptions groups a recording's failure-handling knobs; HbEvery
// must be set for schedules containing kills.
type TraceFailureOptions = replay.FailureOptions

// TraceRecorderConfig declares a recording session: topology, workload,
// schedule, plane and the grouped runtime options.
type TraceRecorderConfig = replay.RecorderConfig

// TraceRecorder drives a live deployment through a schedule and captures
// the trace. NewTraceRecorder starts the deployment; Run executes and
// returns the Trace; Close/Shutdown release an interrupted session.
type TraceRecorder = replay.Recorder

// NewTraceRecorder validates the configuration (returning a
// *ReplayConfigError on misuse) and starts the deployment.
func NewTraceRecorder(cfg TraceRecorderConfig) (*TraceRecorder, error) {
	return replay.NewRecorder(cfg)
}

// TraceReplayerConfig parameterizes a replay: plane override, pacing speed
// and a live event tap. The zero value replays on the recorded plane as
// fast as the barriers allow.
type TraceReplayerConfig = replay.ReplayerConfig

// TraceReplayer re-executes a recorded trace. NewTraceReplayer starts the
// deployment; Run executes and returns the ReplayResult; Close/Shutdown
// release an interrupted session.
type TraceReplayer = replay.Replayer

// ReplayResult is the outcome of one replay, including the byte-parity
// verdict against the recording.
type ReplayResult = replay.Result

// NewTraceReplayer validates the trace, reconstructs its topology and
// starts the replay deployment.
func NewTraceReplayer(t *Trace, cfg TraceReplayerConfig) (*TraceReplayer, error) {
	return replay.NewReplayer(t, cfg)
}

// ReplayConfigError is the typed misuse error of the replay API: Field
// names the offending configuration field, Reason says what about it.
type ReplayConfigError = replay.ConfigError

// Decode error sentinels (the wire package's classification, shared by the
// trace codec): a corrupt input is structurally invalid, a truncated one is
// shorter than its fields claim. Test with errors.Is.
var (
	ErrTraceCorrupt   = wire.ErrCorrupt
	ErrTraceTruncated = wire.ErrTruncated
)

// EncodeTrace appends t's binary encoding to dst and returns the extended
// buffer.
func EncodeTrace(dst []byte, t *Trace) []byte { return replay.AppendTrace(dst, t) }

// DecodeTrace parses a binary trace; errors wrap ErrTraceCorrupt or
// ErrTraceTruncated.
func DecodeTrace(data []byte) (*Trace, error) { return replay.DecodeTrace(data) }

// TraceOutcomeRec is one decoded entry of a canonical outcome blob — the
// delivery-order-independent projection of a detection.
type TraceOutcomeRec = replay.OutcomeRec

// DecodeTraceOutcome parses a canonical outcome blob (Trace.Outcome or
// ReplayResult.Outcome) for parity-failure triage; errors wrap
// ErrTraceCorrupt or ErrTraceTruncated.
func DecodeTraceOutcome(data []byte) ([]TraceOutcomeRec, error) { return replay.DecodeOutcome(data) }

// WriteTraceFile atomically writes t to path.
func WriteTraceFile(path string, t *Trace) error { return replay.WriteFile(path, t) }

// ReadTraceFile reads and decodes a trace file.
func ReadTraceFile(path string) (*Trace, error) { return replay.ReadFile(path) }
