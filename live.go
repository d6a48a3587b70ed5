package hierdet

import "hierdet/internal/livenet"

// LiveCluster runs the hierarchical detector over real concurrency: every
// process owns a bounded mailbox shard, a small worker pool drains the
// shards, and one timer wheel carries all delayed deliveries and heartbeats
// — steady-state goroutine count stays O(workers), independent of both the
// process count and the in-flight message count. It is the
// concurrency-native counterpart of Simulate: nondeterministic scheduling,
// identical detection semantics.
//
// With HbEvery set, the cluster also runs the paper's §III-F failure
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

// LiveConfig parameterizes NewLiveCluster: the tree (Topology, required)
// and every per-cluster knob — delivery (MaxDelay, Seed, MailboxBound,
// AdaptiveFlush), checking (Verify: succession checks and solution-set
// retention), failure handling (HbEvery, SeekTimeout, ResendLastOnAdopt),
// distributed mode (Transport, LocalNodes, StartupGrace), the Events stream
// and an optional shared Scheduler. It is the one cluster configuration: a
// TenantSpec is the same type.
//
// With HbEvery zero, failure handling is off and Kill panics. With Transport
// set (NewTCPTransport for real sockets) the cluster hosts only LocalNodes
// and ships traffic to every other tree node through the transport, which it
// starts and closes in Close. Events, if set, receives the cluster's full
// lifecycle stream — every interval observed, report sent and received,
// solution found, interval pruned, node suspected, repair concluded and
// transport redial — as one ordered sink (per-node causal order; see
// EventKind). The sink runs on cluster goroutines: it must be quick, safe for
// concurrent calls, and must not call Close.
type LiveConfig = livenet.Config

// NewLiveCluster builds and starts a live cluster, or fails, leaving nothing
// running, on a missing Topology, a dead LocalNodes entry or a transport that
// fails to start. Feed it with Observe, then Close it and read Detections.
func NewLiveCluster(cfg LiveConfig) (*LiveCluster, error) { return livenet.Open(cfg) }
