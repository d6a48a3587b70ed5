package livenet

import (
	"sort"
	"strconv"
	"sync/atomic"

	"hierdet/internal/obsv"
)

// Metrics is a point-in-time snapshot of one node's runtime counters. All
// counters are maintained with atomics, so snapshots are safe at any moment
// — including while the cluster is running, killing or repairing.
type Metrics struct {
	// MsgsIn and MsgsOut count network messages (reports and attach-protocol
	// traffic) handled and sent by this node. Local observations and timers
	// are not messages.
	MsgsIn  int `json:"msgsIn"`
	MsgsOut int `json:"msgsOut"`
	// StaleReports counts reports that arrived from a process that is no
	// longer a child (in flight across a repair) and were dropped.
	StaleReports int `json:"staleReports"`
	// Duplicates counts reports the node's resequencers discarded as
	// redeliveries.
	Duplicates int `json:"duplicates"`
	// ReseqBuffered is the number of reports currently held back by the
	// node's resequencers waiting for a sequence gap; ReseqHighWater is the
	// largest value it has reached.
	ReseqBuffered  int `json:"reseqBuffered"`
	ReseqHighWater int `json:"reseqHighWater"`
	// Detections counts solution sets found at this node.
	Detections int `json:"detections"`
	// IntervalsIn counts intervals the detector accepted into its queues
	// (its own plus every child stream); Pruned and Eliminated count queue
	// heads deleted by the repeated-detection rule (Eq. 10 / Eq. 9) and the
	// elimination loop respectively — the detector-side visibility the
	// observability layer adds. These, the comparison counters and the queue
	// gauges below are the detector's own as of the node's last mailbox
	// drain: exact after Drain or Close.
	IntervalsIn int `json:"intervalsIn"`
	Pruned      int `json:"pruned"`
	Eliminated  int `json:"eliminated"`
	// VecComparisons counts the vector-clock comparisons Algorithm 1
	// enumerated at this node's detector.
	VecComparisons int `json:"vecComparisons"`
	// QueueDepth is the detector's current interval residency across its
	// queues; QueueHighWater is the node-level peak — the most intervals
	// ever *concurrently* resident, not the sum of per-queue peaks (queues
	// peak at different times, so that sum overstates pressure).
	QueueDepth     int `json:"queueDepth"`
	QueueHighWater int `json:"queueHighWater"`
	// Repairs counts reattachments this node concluded as the orphan root
	// (adoptions plus partition give-ups).
	Repairs int `json:"repairs"`
	// ChildDrops counts child queues this node dropped because the child
	// was confirmed dead.
	ChildDrops int `json:"childDrops"`
	// Heartbeats counts heartbeat messages this node handled (distributed
	// mode only; single-process beacons are timestamps, not messages).
	Heartbeats int `json:"heartbeats"`
	// BadFrames counts transport frames addressed to this node that failed
	// wire decoding and were dropped (distributed mode only).
	BadFrames int `json:"badFrames"`
	// BatchFlushes counts drain-end flushes this node sent its parent
	// (Config.AdaptiveFlush only); MsgsOut counts each flush as one
	// message, so reports-per-flush is the coalescing win.
	BatchFlushes int `json:"batchFlushes"`
	// MailboxDepth is the node's current mailbox shard depth;
	// MailboxHighWater is the deepest the shard has been — the backpressure
	// signals of the sharded delivery plane.
	MailboxDepth     int `json:"mailboxDepth"`
	MailboxHighWater int `json:"mailboxHighWater"`
}

// NodeMetrics pairs a node id with its Metrics snapshot — the
// iteration-stable form of the per-node metrics (Cluster.MetricsByNode).
type NodeMetrics struct {
	ID int `json:"id"`
	Metrics
}

// nodeMetrics is the atomic backing store for Metrics. Gauges are written
// only on the node's goroutine; everything may be read from anywhere.
type nodeMetrics struct {
	msgsIn, msgsOut atomic.Int64
	stale           atomic.Int64
	duplicates      atomic.Int64
	reseqBuffered   atomic.Int64
	reseqHigh       atomic.Int64
	detections      atomic.Int64
	intervalsIn     atomic.Int64
	pruned          atomic.Int64
	eliminated      atomic.Int64
	vecCmps         atomic.Int64
	queueDepth      atomic.Int64
	queueHigh       atomic.Int64
	repairs         atomic.Int64
	childDrops      atomic.Int64
	heartbeats      atomic.Int64
	badFrames       atomic.Int64
	batchFlushes    atomic.Int64
	fdTimeout       atomic.Int64 // ns: the largest timeout among the watched links, as of the last tick
	fdPauses        atomic.Int64 // ticks that came too late to judge anyone's silence
}

// gaugeReseq republishes the resequencer-depth gauges after a queue changed.
// Runs on the node's goroutine, the only writer of reseq and the gauges.
func (ln *liveNode) gaugeReseq() {
	buffered, dropped := 0, 0
	for _, q := range ln.reseq {
		buffered += q.Buffered()
		dropped += q.Dropped()
	}
	ln.m.reseqBuffered.Store(int64(buffered))
	if int64(buffered) > ln.m.reseqHigh.Load() {
		ln.m.reseqHigh.Store(int64(buffered))
	}
	ln.m.duplicates.Store(int64(dropped))
}

// syncCoreStats mirrors the detector's own counters (worker-confined inside
// core.Node) into the node's atomics so scrapes and snapshots can read them
// from any goroutine, and emits one IntervalPruned event for the heads the
// drain's detections deleted. Runs on the node's worker once per mailbox
// drain (runNode), before the drain's credits return: a scrape shows the
// counters as of the node's last drain, and after Drain or Close they are
// exact. After every detector call it was 3.4 % of a saturated run's CPU.
func (ln *liveNode) syncCoreStats() {
	st := ln.node.Stats()
	ln.m.intervalsIn.Store(int64(st.IntervalsIn))
	ln.m.eliminated.Store(int64(st.Eliminated))
	ln.m.pruned.Store(int64(st.Pruned))
	ln.m.vecCmps.Store(int64(st.VecComparisons))
	depth, high := ln.node.QueueSizes()
	ln.m.queueDepth.Store(int64(depth))
	ln.m.queueHigh.Store(int64(high))
	if d := st.Pruned - ln.lastPruned; d > 0 {
		ln.lastPruned = st.Pruned
		ln.c.emitEvent(obsv.Event{Kind: obsv.IntervalPruned, Node: ln.id, Peer: obsv.NoPeer, Count: d})
	}
}

// snapshot reads the counters.
func (m *nodeMetrics) snapshot() Metrics {
	return Metrics{
		MsgsIn:         int(m.msgsIn.Load()),
		MsgsOut:        int(m.msgsOut.Load()),
		StaleReports:   int(m.stale.Load()),
		Duplicates:     int(m.duplicates.Load()),
		ReseqBuffered:  int(m.reseqBuffered.Load()),
		ReseqHighWater: int(m.reseqHigh.Load()),
		Detections:     int(m.detections.Load()),
		IntervalsIn:    int(m.intervalsIn.Load()),
		Pruned:         int(m.pruned.Load()),
		Eliminated:     int(m.eliminated.Load()),
		VecComparisons: int(m.vecCmps.Load()),
		QueueDepth:     int(m.queueDepth.Load()),
		QueueHighWater: int(m.queueHigh.Load()),
		Repairs:        int(m.repairs.Load()),
		ChildDrops:     int(m.childDrops.Load()),
		Heartbeats:     int(m.heartbeats.Load()),
		BadFrames:      int(m.badFrames.Load()),
		BatchFlushes:   int(m.batchFlushes.Load()),
	}
}

// Metrics returns a snapshot of every node's runtime counters, keyed by
// node id. Safe to call at any time, including after Stop. Map iteration
// order is random; use MetricsByNode for a stable order.
func (c *Cluster) Metrics() map[int]Metrics {
	out := make(map[int]Metrics, len(c.nodes))
	for id, ln := range c.nodes {
		out[id] = ln.snapshotMetrics()
	}
	return out
}

// MetricsByNode returns the same snapshots as Metrics in iteration-stable
// form: one NodeMetrics per hosted node, ascending by id.
func (c *Cluster) MetricsByNode() []NodeMetrics {
	out := make([]NodeMetrics, 0, len(c.nodes))
	for _, id := range c.NodeIDs() {
		out = append(out, NodeMetrics{ID: id, Metrics: c.nodes[id].snapshotMetrics()})
	}
	return out
}

func (ln *liveNode) snapshotMetrics() Metrics {
	m := ln.m.snapshot()
	m.MailboxDepth, m.MailboxHighWater = ln.mb.depths()
	return m
}

// NodeIDs returns the cluster's process ids, ascending — the stable
// iteration order for Metrics.
func (c *Cluster) NodeIDs() []int {
	out := make([]int, 0, len(c.nodes))
	for id := range c.nodes {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// ClusterMetrics is an aggregate snapshot across every plane of one cluster:
// detector nodes (sums, plus maxima where a sum would mislead), the
// scheduler (worker pool and mailbox shards), the timer wheel, and the
// lifecycle ledger. Field order is fixed and every field is tagged, so the
// JSON encoding is stable across runs and releases — a scrape-once document
// for dashboards and test assertions.
type ClusterMetrics struct {
	Nodes   int `json:"nodes"`
	Workers int `json:"workers"`

	MsgsIn         int64 `json:"msgsIn"`
	MsgsOut        int64 `json:"msgsOut"`
	IntervalsIn    int64 `json:"intervalsIn"`
	Detections     int64 `json:"detections"`
	Pruned         int64 `json:"pruned"`
	Eliminated     int64 `json:"eliminated"`
	Duplicates     int64 `json:"duplicates"`
	StaleReports   int64 `json:"staleReports"`
	Repairs        int64 `json:"repairs"`
	ChildDrops     int64 `json:"childDrops"`
	Heartbeats     int64 `json:"heartbeats"`
	BadFrames      int64 `json:"badFrames"`
	BatchFlushes   int64 `json:"batchFlushes"`
	ReseqBuffered  int64 `json:"reseqBuffered"`
	ReseqHighWater int64 `json:"reseqHighWater"` // max across nodes

	QueueDepth     int64 `json:"queueDepth"`     // sum of current detector residencies
	QueueHighWater int64 `json:"queueHighWater"` // max node-level peak across nodes

	// Comparisons Algorithm 1 enumerated across every detector, and the
	// single worst node's share — the hot-spot the hierarchy is supposed to
	// flatten.
	VecComparisons int64 `json:"vecComparisons"`
	WorstNodeCmps  int64 `json:"worstNodeCmps"` // max VecComparisons across nodes

	MailboxDepth     int `json:"mailboxDepth"`     // sum of current depths
	MailboxHighWater int `json:"mailboxHighWater"` // max across nodes
	WorkersBusy      int `json:"workersBusy"`
	RunqDepth        int `json:"runqDepth"`

	// DetectFanouts and DetectInlines always read 0: every comparison round
	// runs on the worker draining its node. They stay until the next
	// benchmark-only change (ROADMAP item 1(d)) because bench/ reads them.
	DetectFanouts int64 `json:"detectFanouts"`
	DetectInlines int64 `json:"detectInlines"`

	Drains          int64 `json:"drains"`
	MessagesDrained int64 `json:"messagesDrained"`

	WheelEntries  int   `json:"wheelEntries"`
	WheelLagNanos int64 `json:"wheelLagNanos"`

	PendingCredits  int `json:"pendingCredits"`
	KilledProcesses int `json:"killedProcesses"`

	// Observe→SolutionFound latency: how long after an interval entered the
	// cluster the detection its cascade completed was recorded, estimated
	// from the hierdet_latency_observe_to_solution_seconds histogram
	// (quantiles are bucket-interpolated; see obsv.Histogram.Quantile).
	// Count is observations; the quantiles are in seconds and NaN-free
	// (zero when the histogram is empty). Stamps do not cross a transport,
	// so in distributed mode this covers the in-process pipeline only.
	LatencyCount int64   `json:"latencyCount"`
	LatencyP50   float64 `json:"latencyP50Seconds"`
	LatencyP99   float64 `json:"latencyP99Seconds"`

	// Events counts every lifecycle event emitted so far by kind name
	// (counted whether or not an Events sink is installed). encoding/json
	// sorts map keys, so the encoding stays stable.
	Events map[string]int64 `json:"events"`
}

// ClusterMetrics aggregates a snapshot of the whole cluster. Safe at any
// time, including concurrently with Observe, Kill, repair and Stop.
func (c *Cluster) ClusterMetrics() ClusterMetrics {
	out := ClusterMetrics{
		Nodes:   len(c.nodes),
		Workers: c.sched.workers,
	}
	for _, ln := range c.nodes {
		m := ln.snapshotMetrics()
		out.MsgsIn += int64(m.MsgsIn)
		out.MsgsOut += int64(m.MsgsOut)
		out.IntervalsIn += int64(m.IntervalsIn)
		out.Detections += int64(m.Detections)
		out.Pruned += int64(m.Pruned)
		out.Eliminated += int64(m.Eliminated)
		out.Duplicates += int64(m.Duplicates)
		out.StaleReports += int64(m.StaleReports)
		out.Repairs += int64(m.Repairs)
		out.ChildDrops += int64(m.ChildDrops)
		out.Heartbeats += int64(m.Heartbeats)
		out.BadFrames += int64(m.BadFrames)
		out.BatchFlushes += int64(m.BatchFlushes)
		out.ReseqBuffered += int64(m.ReseqBuffered)
		if int64(m.ReseqHighWater) > out.ReseqHighWater {
			out.ReseqHighWater = int64(m.ReseqHighWater)
		}
		out.QueueDepth += int64(m.QueueDepth)
		if int64(m.QueueHighWater) > out.QueueHighWater {
			out.QueueHighWater = int64(m.QueueHighWater)
		}
		out.VecComparisons += int64(m.VecComparisons)
		if int64(m.VecComparisons) > out.WorstNodeCmps {
			out.WorstNodeCmps = int64(m.VecComparisons)
		}
		out.MailboxDepth += m.MailboxDepth
		if m.MailboxHighWater > out.MailboxHighWater {
			out.MailboxHighWater = m.MailboxHighWater
		}
	}
	out.WorkersBusy = int(c.busyWorkers.Load())
	out.RunqDepth = c.seat.depth()
	out.Drains = c.drains.Load()
	out.MessagesDrained = c.drained.Load()
	out.WheelEntries = c.sched.wheel.entries()
	out.WheelLagNanos = c.sched.wheel.lagNanos.Load()
	c.mu.Lock()
	out.PendingCredits = c.pending
	out.KilledProcesses = len(c.killed)
	c.mu.Unlock()
	if h := c.latHist; h != nil {
		out.LatencyCount = h.Count()
		if out.LatencyCount > 0 {
			out.LatencyP50 = h.Quantile(0.50)
			out.LatencyP99 = h.Quantile(0.99)
		}
	}
	out.Events = make(map[string]int64, len(c.evCounts))
	for k, ctr := range c.evCounts {
		if ctr != nil {
			out.Events[obsv.EventKind(k).String()] = ctr.Value()
		}
	}
	return out
}

// Registry returns the cluster's metrics registry — every plane's families,
// ready for Prometheus exposition (obsv.Registry.Handler) or programmatic
// reads. The registry is created in New and stays valid after Stop.
func (c *Cluster) Registry() *obsv.Registry { return c.reg }

// emitEvent counts e and hands it to the configured sink, if any. Callers
// emit from the goroutine that owns the event's node, which is what gives
// the stream its per-node causal order.
func (c *Cluster) emitEvent(e obsv.Event) {
	if ctr := c.evCounts[e.Kind]; ctr != nil {
		ctr.Inc()
	}
	if c.cfg.Events != nil {
		c.cfg.Events(e)
	}
}

// registerFamilies populates the cluster's registry: per-node counters and
// gauges (func-backed — the scrape reads the same atomics the snapshots do,
// no hot-path double bookkeeping), the scheduler plane, the timer wheel, the
// lifecycle ledger and the per-kind event counts. Called once from New.
func (c *Cluster) registerFamilies() {
	ids := c.NodeIDs()
	labels := make([]string, len(ids))
	for i, id := range ids {
		labels[i] = strconv.Itoa(id)
	}
	perNode := func(name, help string, kind obsv.Kind, get func(ln *liveNode) float64) {
		c.reg.Func(name, help, kind, []string{"node"}, func(emit func(float64, ...string)) {
			for i, id := range ids {
				emit(get(c.nodes[id]), labels[i])
			}
		})
	}
	perNode("hierdet_node_msgs_in_total", "Network messages handled by this node.", obsv.KindCounter,
		func(ln *liveNode) float64 { return float64(ln.m.msgsIn.Load()) })
	perNode("hierdet_node_msgs_out_total", "Network messages sent by this node.", obsv.KindCounter,
		func(ln *liveNode) float64 { return float64(ln.m.msgsOut.Load()) })
	perNode("hierdet_node_intervals_in_total", "Intervals accepted into the detector's queues, as of the node's last drain.", obsv.KindCounter,
		func(ln *liveNode) float64 { return float64(ln.m.intervalsIn.Load()) })
	perNode("hierdet_node_detections_total", "Solution sets found at this node.", obsv.KindCounter,
		func(ln *liveNode) float64 { return float64(ln.m.detections.Load()) })
	perNode("hierdet_node_pruned_total", "Queue heads deleted by the repeated-detection rule (Eq. 10), as of the node's last drain.", obsv.KindCounter,
		func(ln *liveNode) float64 { return float64(ln.m.pruned.Load()) })
	perNode("hierdet_node_eliminated_total", "Queue heads deleted by the elimination loop, as of the node's last drain.", obsv.KindCounter,
		func(ln *liveNode) float64 { return float64(ln.m.eliminated.Load()) })
	perNode("hierdet_node_vec_comparisons_total", "Vector-clock comparisons enumerated by Algorithm 1 at this node, as of its last drain.", obsv.KindCounter,
		func(ln *liveNode) float64 { return float64(ln.m.vecCmps.Load()) })
	perNode("hierdet_node_duplicates_total", "Reports discarded by resequencers as redeliveries.", obsv.KindCounter,
		func(ln *liveNode) float64 { return float64(ln.m.duplicates.Load()) })
	perNode("hierdet_node_stale_reports_total", "Reports dropped because the sender is no longer a child.", obsv.KindCounter,
		func(ln *liveNode) float64 { return float64(ln.m.stale.Load()) })
	perNode("hierdet_node_repairs_total", "Reattachments this node concluded as the orphan root.", obsv.KindCounter,
		func(ln *liveNode) float64 { return float64(ln.m.repairs.Load()) })
	perNode("hierdet_node_child_drops_total", "Child queues dropped after a confirmed death.", obsv.KindCounter,
		func(ln *liveNode) float64 { return float64(ln.m.childDrops.Load()) })
	perNode("hierdet_node_heartbeats_total", "Heartbeat messages handled (distributed mode).", obsv.KindCounter,
		func(ln *liveNode) float64 { return float64(ln.m.heartbeats.Load()) })
	perNode("hierdet_node_bad_frames_total", "Transport frames that failed wire decoding.", obsv.KindCounter,
		func(ln *liveNode) float64 { return float64(ln.m.badFrames.Load()) })
	perNode("hierdet_node_batch_flushes_total", "Coalesced report flushes sent to the parent.", obsv.KindCounter,
		func(ln *liveNode) float64 { return float64(ln.m.batchFlushes.Load()) })
	perNode("hierdet_fd_timeout_seconds", "Longest silence this node would currently wait out before suspecting a tree neighbour: how long a crash next to it goes unnoticed.", obsv.KindGauge,
		func(ln *liveNode) float64 { return float64(ln.m.fdTimeout.Load()) / 1e9 })
	perNode("hierdet_fd_local_pauses_total", "Heartbeat ticks that arrived too late to judge a neighbour's silence: the silence was this node's own.", obsv.KindCounter,
		func(ln *liveNode) float64 { return float64(ln.m.fdPauses.Load()) })
	perNode("hierdet_node_reseq_buffered", "Reports held back by resequencers awaiting a gap.", obsv.KindGauge,
		func(ln *liveNode) float64 { return float64(ln.m.reseqBuffered.Load()) })
	perNode("hierdet_node_reseq_high_water", "Deepest the node's resequencers have been.", obsv.KindGauge,
		func(ln *liveNode) float64 { return float64(ln.m.reseqHigh.Load()) })
	perNode("hierdet_node_mailbox_depth", "Current depth of the node's mailbox shard.", obsv.KindGauge,
		func(ln *liveNode) float64 { d, _ := ln.mb.depths(); return float64(d) })
	perNode("hierdet_node_mailbox_high_water", "Deepest the node's mailbox shard has been.", obsv.KindGauge,
		func(ln *liveNode) float64 { _, h := ln.mb.depths(); return float64(h) })
	perNode("hierdet_node_queue_depth", "Intervals resident across the detector's queues as of the node's last drain.", obsv.KindGauge,
		func(ln *liveNode) float64 { return float64(ln.m.queueDepth.Load()) })
	perNode("hierdet_node_queue_high_water", "Peak concurrent interval residency at this node (not the sum of per-queue peaks), as of its last drain.", obsv.KindGauge,
		func(ln *liveNode) float64 { return float64(ln.m.queueHigh.Load()) })

	// Scheduler plane: pool size and bound are fixed gauges; occupancy and
	// throughput are func-backed reads of the pool's atomics.
	c.reg.Gauge("hierdet_sched_workers", "Size of the worker pool draining the mailbox shards.").Set(float64(c.sched.workers))
	c.reg.Gauge("hierdet_sched_mailbox_bound", "Mailbox bound applied to external producers.").Set(float64(c.bound))
	c.reg.Func("hierdet_sched_workers_busy", "Workers currently draining a shard (utilization = busy/workers).",
		obsv.KindGauge, nil, func(emit func(float64, ...string)) { emit(float64(c.busyWorkers.Load())) })
	c.reg.Func("hierdet_sched_runq_depth", "Nodes queued for a worker.",
		obsv.KindGauge, nil, func(emit func(float64, ...string)) { emit(float64(c.seat.depth())) })
	c.reg.Func("hierdet_sched_drains_total", "Mailbox shard drains executed by the pool.",
		obsv.KindCounter, nil, func(emit func(float64, ...string)) { emit(float64(c.drains.Load())) })
	c.reg.Func("hierdet_sched_messages_handled_total", "Messages handled across all shard drains.",
		obsv.KindCounter, nil, func(emit func(float64, ...string)) { emit(float64(c.drained.Load())) })
	c.drainHist = c.reg.Histogram("hierdet_sched_drain_batch_size",
		"Messages handled per shard drain (batching efficiency of the pool).",
		obsv.ExponentialBuckets(1, 2, 10))

	// Observe→SolutionFound latency. Buckets span 1µs to ~2s: the floor is
	// below any real pipeline traversal and the ceiling absorbs a saturated
	// batched plane on a loaded box, so the p99 almost never clamps.
	c.latHist = c.reg.Histogram("hierdet_latency_observe_to_solution_seconds",
		"Latency from an interval entering the cluster (Observe) to the recording of the detection its cascade completed. In-process hops only: stamps do not cross a transport.",
		obsv.ExponentialBuckets(1e-6, 2, 22))

	// Timer wheel: lag is how far behind its deadline the last advance ran
	// — the single number that says whether delayed delivery is keeping up.
	c.reg.Gauge("hierdet_wheel_tick_seconds", "The wheel's quantization tick.").Set(c.sched.wheel.tick.Seconds())
	c.reg.Func("hierdet_wheel_lag_seconds", "How far past its deadline the last wheel advance ran.",
		obsv.KindGauge, nil, func(emit func(float64, ...string)) {
			emit(float64(c.sched.wheel.lagNanos.Load()) / 1e9)
		})
	c.reg.Func("hierdet_wheel_entries", "Timer entries currently queued on the wheel.",
		obsv.KindGauge, nil, func(emit func(float64, ...string)) { emit(float64(c.sched.wheel.entries())) })
	c.reg.Func("hierdet_wheel_ticks_total", "Wheel slots expired (occupied ones; empty slots are slept or stepped over).",
		obsv.KindCounter, nil, func(emit func(float64, ...string)) { emit(float64(c.sched.wheel.ticksTotal.Load())) })

	// Lifecycle ledger.
	c.reg.Gauge("hierdet_cluster_nodes", "Detector nodes hosted by this cluster.").Set(float64(len(c.nodes)))
	c.reg.Func("hierdet_cluster_pending_credits", "Outstanding message credits (0 = quiescent).",
		obsv.KindGauge, nil, func(emit func(float64, ...string)) {
			c.mu.Lock()
			p := c.pending
			c.mu.Unlock()
			emit(float64(p))
		})
	c.reg.Func("hierdet_cluster_killed_processes", "Processes crash-stopped so far.",
		obsv.KindGauge, nil, func(emit func(float64, ...string)) {
			c.mu.Lock()
			k := len(c.killed)
			c.mu.Unlock()
			emit(float64(k))
		})

	// Per-kind event counts — maintained on every emitEvent whether or not
	// a sink is installed, so the exposition shows lifecycle volume even
	// for consumers that never subscribe.
	ev := c.reg.CounterVec("hierdet_events_total", "Lifecycle events emitted, by kind.", "kind")
	for _, k := range obsv.EventKinds() {
		c.evCounts[k] = ev.With(k.String())
	}
}
