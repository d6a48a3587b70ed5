package hierdet

import (
	"time"

	"hierdet/internal/livenet"
)

// LiveCluster runs the hierarchical detector over real concurrency: every
// process owns a bounded mailbox shard, a small worker pool drains the
// shards, and one timer wheel carries all delayed deliveries and heartbeats
// — steady-state goroutine count stays O(workers), independent of both the
// process count and the in-flight message count. It is the
// concurrency-native counterpart of Simulate: nondeterministic scheduling,
// identical detection semantics.
//
// With Failure.HbEvery set, the cluster also runs the paper's §III-F failure
// handling live: Kill crash-stops a node, survivors detect the silence via
// heartbeats, orphaned subtrees renegotiate parents with the attach
// protocol, and detection continues over the survivors. Kill, Metrics,
// Drain, Failed and Repairs are available on the returned cluster, and the
// observability plane — ClusterMetrics, MetricsByNode, Registry and the
// Events stream — watches all of it.
type LiveCluster = livenet.Cluster

// LiveDetection is one detection observed by a LiveCluster.
type LiveDetection = livenet.Detection

// LiveMetrics is a per-node snapshot of a live cluster's runtime counters:
// messages in/out, resequencer buffer depth and high-water mark, duplicates
// and stale reports dropped, detector queue/pruning counts, detections,
// repairs, dead children dropped, and mailbox depth.
type LiveMetrics = livenet.Metrics

// LiveRepair records one completed tree repair in a live cluster: the
// orphaned subtree root and the parent that adopted it (NoParent if the
// orphan exhausted its candidates and became a partition root).
type LiveRepair = livenet.RepairEvent

// LiveDeliveryOptions tunes the cluster's delivery plane: the simulated
// network delay, the worker pool and mailbox shards, and report coalescing.
type LiveDeliveryOptions struct {
	// MaxDelay bounds each report's random delivery delay (default 200µs).
	MaxDelay time.Duration
	// Workers sizes the pool draining the per-process mailboxes (default
	// GOMAXPROCS); MailboxBound caps each mailbox for Observe/ObserveBatch
	// callers, which block at the bound (default 4096).
	Workers      int
	MailboxBound int
	// AdaptiveFlush coalesces reports per worker drain: whatever a node
	// emits while handling one mailbox batch leaves as one message (one wire
	// frame in distributed mode) at the end of that drain, so coalescing
	// follows the actual burst size with zero added latency. Off, every
	// report is sent immediately.
	AdaptiveFlush bool
}

// LiveFailureOptions enables the paper's §III-F failure handling.
type LiveFailureOptions struct {
	// HbEvery enables failure handling and says how often to beat: every
	// node publishes a heartbeat and watches its tree neighbours on this
	// period. How soon a crash is noticed follows from each link's own rhythm:
	// a neighbour is suspected after a silence of two mean beat intervals
	// plus four mean deviations — eight beats on a fresh link, about two on a
	// steady one, and never under eight for a neighbour in another process.
	// Zero disables failure handling entirely (and Kill panics).
	HbEvery time.Duration
	// SeekTimeout bounds one attach-request round trip during repair
	// (defaults generously; the happy path never waits on it).
	SeekTimeout time.Duration
	// ResendLastOnAdopt re-reports the orphan's last pre-crash aggregate to
	// its adoptive parent (the paper's Figure 2(c) behaviour). Detections
	// lost in flight through the dead node may be recovered at the cost of
	// possible re-detections.
	ResendLastOnAdopt bool
}

// LiveDistributedOptions runs the cluster as one participant of a
// multi-process deployment.
type LiveDistributedOptions struct {
	// Transport switches the cluster into distributed mode: it hosts only
	// LocalNodes, and traffic to every other tree node is wire-encoded and
	// shipped through the transport (NewTCPTransport for real sockets). The
	// cluster starts the transport and closes it in Close.
	Transport Transport
	// LocalNodes is the subset of tree nodes this participant hosts
	// (distributed mode only). Typically one node per OS process.
	LocalNodes []int
	// StartupGrace suppresses failure suspicion for this long after start,
	// covering the staggered launch of a multi-process deployment (default
	// 16×HbEvery in distributed mode).
	StartupGrace time.Duration
}

// LiveConfig parameterizes NewLiveCluster. Tuning lives in the three option
// groups — Delivery, Failure and Distributed.
type LiveConfig struct {
	// Topology is the spanning tree (required).
	Topology *Topology
	// Seed drives the delay distribution.
	Seed int64
	// Verify enables order checking and solution-set retention.
	Verify bool

	// Delivery tunes the delivery plane (delay, worker pool, coalescing).
	Delivery LiveDeliveryOptions
	// Failure enables and tunes §III-F failure handling.
	Failure LiveFailureOptions
	// Distributed runs this cluster as one participant of a multi-process
	// deployment.
	Distributed LiveDistributedOptions

	// Events, if set, receives the cluster's full lifecycle stream — every
	// interval observed, report sent and received, solution found, interval
	// pruned, node suspected, repair concluded and transport redial — as one
	// ordered sink (per-node causal order; see EventKind). A SolutionFound
	// event carries everything a LiveDetection does, as the detection is
	// recorded — the live complement of Detections after Close; a
	// RepairConcluded event names the orphan (Node) and the parent that
	// adopted it (Peer, or NoParent if it declared itself a partition root).
	// The sink runs on cluster goroutines: it must be quick, safe for
	// concurrent calls, and must not call Close.
	Events func(Event)
}

// NewLiveCluster builds and starts a live cluster. Feed completed local
// intervals with Observe (safe from one goroutine per process), then Close it
// to drain and read the detections with Detections.
func NewLiveCluster(cfg LiveConfig) *LiveCluster {
	return livenet.New(livenet.Config{
		Topology:          cfg.Topology,
		MaxDelay:          cfg.Delivery.MaxDelay,
		Seed:              cfg.Seed,
		Strict:            cfg.Verify,
		KeepMembers:       cfg.Verify,
		Workers:           cfg.Delivery.Workers,
		MailboxBound:      cfg.Delivery.MailboxBound,
		AdaptiveFlush:     cfg.Delivery.AdaptiveFlush,
		HbEvery:           cfg.Failure.HbEvery,
		SeekTimeout:       cfg.Failure.SeekTimeout,
		ResendLastOnAdopt: cfg.Failure.ResendLastOnAdopt,
		Events:            cfg.Events,
		Transport:         cfg.Distributed.Transport,
		LocalNodes:        cfg.Distributed.LocalNodes,
		StartupGrace:      cfg.Distributed.StartupGrace,
	})
}
