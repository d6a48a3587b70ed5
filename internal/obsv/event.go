package obsv

import "hierdet/internal/interval"

// EventKind discriminates the detection-lifecycle events the runtime emits.
type EventKind uint8

const (
	// IntervalObserved: Count completed local-predicate intervals of
	// process Node entered the detector (Observe or ObserveBatch).
	IntervalObserved EventKind = iota + 1
	// ReportSent: Node shipped one report message to its parent Peer
	// carrying Count aggregates (1 without batch windows). Seq is the link
	// sequence number of the first report on the message.
	ReportSent
	// ReportRecv: Node accepted one report message from child Peer carrying
	// Count aggregates.
	ReportRecv
	// SolutionFound: Node detected a satisfaction of the predicate over its
	// subtree. AtRoot marks tree (or partition) roots; Agg is the
	// ⊓-aggregate, Set the solution set (references to its members) and
	// Seq the aggregate's sequence number at Node.
	SolutionFound
	// IntervalPruned: detection at Node deleted Count queue heads under the
	// repeated-detection rule (Eq. 10, or Eq. 9 with ExactPrune).
	IntervalPruned
	// NodeSuspected: Node's failure detector concluded tree neighbour Peer
	// is dead (heartbeat silence past the timeout).
	NodeSuspected
	// RepairConcluded: orphan root Node finished reattachment — adopted by
	// Peer, or NoPeer when it exhausted its candidates and continues as a
	// partition root (paper §III-F).
	RepairConcluded
	// TransportRedial: the transport re-established the outbound connection
	// to peer process Node after a failure (the redelivery window replays
	// behind it). Emitted from the transport's writer goroutine, so it is
	// ordered per peer link rather than per detector node.
	TransportRedial
	// TenantRegistered: the tenant plane instantiated a detection tree for
	// Tenant (Node is its ownership bucket). Emitted by a Multiplexer, not
	// by clusters.
	TenantRegistered
	// TenantEvicted: the tenant plane stopped and unregistered Tenant's
	// detection tree (Node is its ownership bucket).
	TenantEvicted
	// LeaseAcquired: Monitor took the lease on ownership bucket Node.
	LeaseAcquired
	// LeaseLost: Monitor released, lost or was rebalanced off the lease on
	// ownership bucket Node.
	LeaseLost
)

// NumEventKinds is one past the largest valid EventKind — the size of any
// array indexed by kind.
const NumEventKinds = int(LeaseLost) + 1

// NoPeer marks an absent counterparty (it equals tree.None, so a
// RepairConcluded with Peer == NoPeer is a partition give-up).
const NoPeer = -1

// eventKindNames indexes EventKind strings; index 0 is the invalid zero kind.
var eventKindNames = [...]string{
	"invalid",
	"interval_observed",
	"report_sent",
	"report_recv",
	"solution_found",
	"interval_pruned",
	"node_suspected",
	"repair_concluded",
	"transport_redial",
	"tenant_registered",
	"tenant_evicted",
	"lease_acquired",
	"lease_lost",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "invalid"
}

// EventKinds lists every valid kind, in declaration order — the stable
// iteration order for per-kind accounting.
func EventKinds() []EventKind {
	out := make([]EventKind, 0, NumEventKinds-1)
	for k := IntervalObserved; k <= LeaseLost; k++ {
		out = append(out, k)
	}
	return out
}

// Event is one entry of the runtime's lifecycle stream. A single sink
// receives every event of a cluster; events concerning one detector node are
// delivered in that node's causal order (they are emitted from the node's
// single-writer execution), while events of different nodes — and transport
// events, which ride connection goroutines — interleave arbitrarily. The
// sink is called synchronously on runtime goroutines: it must be quick,
// safe for concurrent calls, and must not call back into the cluster's
// lifecycle (Close in particular).
type Event struct {
	// Kind says what happened; the fields below it are meaningful per kind
	// (see the kind constants).
	Kind EventKind
	// Node is the detector node the event concerns (the peer process for
	// TransportRedial).
	Node int
	// Peer is the counterparty — parent for ReportSent, child for
	// ReportRecv, suspect for NodeSuspected, adopter for RepairConcluded —
	// or NoPeer when there is none.
	Peer int
	// Seq is a per-link or per-node sequence number where the kind has one.
	Seq int
	// Count is the event's multiplicity (intervals observed, reports on a
	// message, heads pruned); at least 1.
	Count int
	// AtRoot marks SolutionFound events at a tree or partition root.
	AtRoot bool
	// Agg is SolutionFound's ⊓-aggregate (zero value otherwise).
	Agg interval.Interval
	// Set is SolutionFound's solution set: references to its members, shared
	// with the detection record — sinks must not modify them.
	Set []*interval.Interval
	// Tenant names the detection tree the event belongs to when the emitter
	// is a tenant plane: set on Tenant* events and on every per-tenant
	// cluster event a Multiplexer forwards. Empty for a bare cluster.
	Tenant string
	// Monitor identifies the fleet monitor acting on Lease* events.
	Monitor string
}
