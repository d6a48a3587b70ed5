package livenet

import (
	"runtime"
	"testing"
	"unsafe"

	"hierdet/internal/core"
	"hierdet/internal/interval"
	"hierdet/internal/transport/tcptransport"
	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// TestDetectionPathAllocBudget holds the bytes a detection costs on its way
// from the detector to Detections() to a budget: every round is global, so
// every interval fed is a detection logged, reported (leaves and inner nodes)
// and returned. Measured, in bytes per interval, around feed + Close +
// Detections with the clusters already built. Clock storage, solution sets,
// records and the harness's own round trip are in the figure too, so the
// budgets sit 8 % above what the runs measure. With each node's round
// scratch, spare mailbox arrays and doubling log chunks (4 to 64 entries) of
// its own they measured ≈ 920 and ≈ 618; with a 112-byte copy of every
// member in each solution set and queue slot ≈ 1 125 and ≈ 750; with
// per-node clock chunks, solution slabs and 160-byte log entries copied again
// at Close ≈ 1 440 and ≈ 1 250; before the 112-byte Interval and the shared
// span ≈ 1 720 and ≈ 1 570; before per-node logs and the detector-owned
// result buffer ≈ 2 760 and ≈ 2 060.
//
//	one p=127 cluster, 200 rounds       ≈ 880. One log of 200 per node, what
//	                                    the deep_saturate workload does in a
//	                                    fifth of a pass
//	64 p=63 clusters, 40 rounds each    ≈ 591. 4 032 logs of 40 on one
//	                                    substrate (the tenant_fanout shape): a
//	                                    node costs the chunks its detections
//	                                    fill, carved from its worker's slab
func TestDetectionPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is handed and every allocation carries shadow state: not the bytes this budget is about")
	}
	for _, tc := range []struct {
		name             string
		clusters, height int
		rounds, window   int    // fed round-major, window rounds in flight (steadyFeed)
		budget           uint64 // bytes per interval
	}{
		{"one p=127 cluster", 1, 6, 200, 16, 950},
		{"64 p=63 clusters on one substrate", 64, 5, 40, 64, 638},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo := tree.Balanced(2, tc.height)
			n := topo.N()
			e := workload.Generate(workload.Config{Topology: topo, Rounds: tc.rounds, Seed: 5, PGlobal: 1})
			sched := NewSharedScheduler(SharedSchedulerConfig{})
			defer sched.Close()
			feed := newSteadyFeed(topo, tc.window)
			clusters := make([]*Cluster, tc.clusters)
			for i := range clusters {
				clusters[i] = New(Config{Topology: topo, Seed: int64(i + 1), AdaptiveFlush: true,
					Scheduler: sched, Events: feed.sink})
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			feed.run(clusters, e)
			found := 0
			for _, c := range clusters {
				c.Close()
				found += len(c.Detections())
			}
			runtime.ReadMemStats(&after)
			intervals := tc.clusters * n * tc.rounds
			if found != intervals {
				t.Fatalf("%d detections for %d intervals: the run is not the one budgeted", found, intervals)
			}
			per := (after.TotalAlloc - before.TotalAlloc) / uint64(intervals)
			t.Logf("%d B per interval (budget %d)", per, tc.budget)
			if per > tc.budget {
				t.Fatalf("detection path allocates %d B per interval, budget %d", per, tc.budget)
			}
		})
	}
}

// TestRemoteReportAllocBudget is the same budget for a report that crosses a
// socket: the p=127 tree hosted by two clusters split by depth parity over
// loopback TCP, so each of its 126 edges is a wire frame — encoded through a
// pooled buffer, copied by Send into a recycled one, read in place out of the
// connection's buffer and decoded into a recycled batch whose clocks come out
// of a pooled store, each report moved into a home beside them, the spans a
// frame repeats shared. 500 rounds, 16 in flight: one pass of the benchmark's
// tcp_split workload. Measured ≈ 2 010 B and 0.25 allocations per interval;
// ≈ 2 070 B when every clock cost at least a byte per component on the wire
// (the transport's send buffers and log hold frames, TestRemoteReportBytes);
// ≈ 2 080 B and 0.32 before acknowledgements (below), ≈ 2 330 B and 0.34–0.44, the count spread by the pools' garbage-collection drops alike with
// and without references (≈ 2 320 when each solution set held a copy of the
// decoded report instead of a reference to its home; ≈ 2 560 and 1.2 with a
// span per decoded report and per-node chunks and logs; ≈ 2 780 and 1.7 with
// the 152-byte
// Interval and a span per aggregate); was ≈ 3 370 B and 4.3 with a copy per
// Send, a payload per read, a result slice per frame and two clocks per report
// each allocated on its own.
// What remains over the in-process figure above is mostly the decoded clocks
// (≈ 1 000 B: the other process's clocks have to exist here too). A Send
// takes a buffer a peer's acknowledgement gave back, so the transport keeps
// only the frames in flight (tcptransport's
// TestSendAllocatesNothingInSteadyState); the 64-frame redelivery ring per
// destination that acknowledgements replaced filled 63 × 64 slots, two
// thirds of the frames a run this short sends.
func TestRemoteReportAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("see TestDetectionPathAllocBudget")
	}
	const budget, allocBudget = 2180, 0.5
	pass := remoteReportPass(t)
	per := pass.allocBytes / uint64(pass.intervals)
	allocs := float64(pass.mallocs) / float64(pass.intervals)
	t.Logf("%d B and %.2f allocations per interval (budget %d B, %.2f)", per, allocs, budget, allocBudget)
	if per > budget || allocs > allocBudget {
		t.Fatalf("a report over TCP allocates %d B in %.2f allocations per interval, budget %d in %.2f", per, allocs, budget, allocBudget)
	}
}

// TestRemoteReportBytes holds what the same pass puts on the sockets to a
// budget. Every report crosses one in a batch frame; the first of a frame
// carries its Lo absolute, ≈ 250 B on this tree, and every other report is
// chained to its predecessor's Hi with each clock in the shorter of the
// codec's two forms. How many frames a pass takes depends on how busy the
// box keeps the coalescing (5 300–9 800 frames on two vCPUs, 14 000–18 000
// under the race detector), so each frame is charged 256 B and the rest is
// held to 50 B an interval: measured 38.8–40.5 either way, 255–258 when every
// clock cost at least a byte per component. All in, that is 62–80 B an
// interval on the wire (97–122 under the race detector) against 286–291.
func TestRemoteReportBytes(t *testing.T) {
	const perFrame, budget = 256, 50
	pass := remoteReportPass(t)
	bytes, frames := 0, 0
	for _, st := range pass.stats {
		bytes += st.BytesOut
		frames += st.FramesOut
	}
	per := float64(bytes-perFrame*frames) / float64(pass.intervals)
	t.Logf("%.1f B on the wire per interval, %d frames; %.1f B each beyond %d B a frame (budget %d)",
		float64(bytes)/float64(pass.intervals), frames, per, perFrame, budget)
	if per > budget {
		t.Fatalf("a report over TCP costs %.1f B on the wire per interval beyond %d B a frame, budget %d", per, perFrame, budget)
	}
}

// remotePass is what remoteReportPass measured.
type remotePass struct {
	intervals           int
	allocBytes, mallocs uint64 // from the first Observe to Detections
	stats               [2]tcptransport.Stats
}

// remoteReportPass runs the p=127 tree hosted by two clusters split by depth
// parity over loopback TCP, 500 rounds with 16 in flight (one pass of the
// benchmark's tcp_split workload), and checks it is that run: every interval
// detected, one dial per direction.
func remoteReportPass(t *testing.T) remotePass {
	const rounds, window = 500, 16
	topo := tree.Balanced(2, 6)
	n := topo.N()
	e := workload.Generate(workload.Config{Topology: topo, Rounds: rounds, Seed: 5, PGlobal: 1})
	host := make([]int, n)
	var local [2][]int
	for v := 0; v < n; v++ {
		for p := topo.Parent(v); p != tree.None; p = topo.Parent(p) {
			host[v] ^= 1
		}
		local[host[v]] = append(local[host[v]], v)
	}
	var trs [2]*tcptransport.Transport
	for i := range trs {
		tr, err := tcptransport.New(tcptransport.Config{Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
	}
	for i, tr := range trs {
		peers := make(map[int]string)
		for _, v := range local[1-i] {
			peers[v] = trs[1-i].Addr()
		}
		tr.SetPeers(peers)
	}
	feed := newSteadyFeed(topo, window)
	var cs [2]*Cluster
	for i := range cs {
		cs[i] = New(Config{Topology: topo.Clone(), Seed: int64(i + 1), AdaptiveFlush: true,
			Transport: trs[i], LocalNodes: local[i], Events: feed.sink})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r, round := range e.Rounds {
		if len(round.Groups) == 1 && len(round.Groups[0]) == n {
			<-feed.tokens
		}
		for p := range e.Streams {
			cs[host[p]].Observe(p, e.Streams[p][r])
		}
	}
	// Close does not see frames inside a connection: every round's token back
	// means every round reached the root, and so every node below it.
	for i := 0; i < window; i++ {
		<-feed.tokens
	}
	found := 0
	for _, c := range cs {
		c.Close()
		found += len(c.Detections())
	}
	runtime.ReadMemStats(&after)
	if found != n*rounds {
		t.Fatalf("%d detections for %d intervals: the run is not the one budgeted", found, n*rounds)
	}
	pass := remotePass{intervals: n * rounds, allocBytes: after.TotalAlloc - before.TotalAlloc, mallocs: after.Mallocs - before.Mallocs}
	for i, tr := range trs {
		pass.stats[i] = tr.Stats()
	}
	if dials := pass.stats[0].Dials + pass.stats[1].Dials; dials != 2 {
		t.Fatalf("%d dials between two processes, want one per direction", dials)
	}
	return pass
}

// TestShortLivedNodesAllocateWhatDetectionsKeep holds the tenant_fanout shape —
// 64 p=63 clusters on one substrate, 40 global rounds, so 4 032 nodes that
// find 40 detections each — to what its detections keep: the 112-byte home of
// every observed interval, and, counted from the run's per-node detection
// counts, an 8-byte reference per solution-set member, a bounds pair of 8n
// bytes per inner node's detection, a 144-byte record and a 24-byte entry per
// detection, and its 24-byte slot in the list Close returns. Everything else —
// rings, mailbox arrays, the harness — must stay within a twentieth of that.
// The log's chunks are fixed, 8 entries, carved from the worker's slab, so 40
// detections fill five exactly: it measures 1.026 × the need. When a node's
// log grew in chunks doubling from 4 to 64 entries — 60 entries and a chunk
// list for 40 detections — beside its own mailbox spares it was 1.070 ×; when
// a set held a 112-byte copy of each member 0.92 × (1.07 × its own, which
// counted the copies). Per-node clock chunks, solution slabs and log chunks
// allocated 1.5–1.7 × what 40 items need, and the log's 160-byte entries
// were copied again at Close: 1.8 × the need in all. The first round is left
// out, as the clusters' construction is: it sizes every mailbox shard and
// queue ring.
func TestShortLivedNodesAllocateWhatDetectionsKeep(t *testing.T) {
	if raceEnabled {
		t.Skip("see TestDetectionPathAllocBudget")
	}
	const tenants, rounds, window = 64, 40, 64
	topo := tree.Balanced(2, 5)
	n := topo.N()
	e := workload.Generate(workload.Config{Topology: topo, Rounds: rounds, Seed: 5, PGlobal: 1})
	sched := NewSharedScheduler(SharedSchedulerConfig{})
	defer sched.Close()
	feed := newSteadyFeed(topo, window)
	clusters := make([]*Cluster, tenants)
	for i := range clusters {
		clusters[i] = New(Config{Topology: topo, Seed: int64(i + 1), AdaptiveFlush: true,
			Scheduler: sched, Events: feed.sink})
	}
	// need is what the detections found so far keep, and how many there are.
	need := func() (bytes, found uint64) {
		for _, c := range clusters {
			c.Drain()
			for _, m := range c.MetricsByNode() {
				members := 1 + len(topo.Children(m.ID))
				per := unsafe.Sizeof(core.Detection{}) + unsafe.Sizeof(Detection{}) +
					uintptr(members)*unsafe.Sizeof((*interval.Interval)(nil))
				if members > 1 {
					per += uintptr(8 * n)
				}
				bytes += uint64(m.Detections) * uint64(per)
				found += uint64(m.Detections)
			}
		}
		return bytes, found
	}
	feed.run(clusters, roundsOf(e, 0, 1))
	warm, _ := need()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	feed.run(clusters, roundsOf(e, 1, rounds))
	all, found := need()
	observed := uint64(tenants * n * (rounds - 1))
	kept := all - warm + found*uint64(unsafe.Sizeof(Detection{})) + // and the list Close returns
		observed*uint64(unsafe.Sizeof(interval.Interval{}))
	for _, c := range clusters {
		c.Close()
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d B allocated for %d B kept: %.3f", got, kept, float64(got)/float64(kept))
	if float64(got) > 1.05*float64(kept) {
		t.Fatalf("short-lived nodes allocate %d B for the %d B their detections keep: more than a twentieth over", got, kept)
	}
}

// roundsOf is rounds [lo, hi) of e, for feeding a run in parts.
func roundsOf(e *workload.Execution, lo, hi int) *workload.Execution {
	part := &workload.Execution{N: e.N, Rounds: e.Rounds[lo:hi], Streams: make([][]interval.Interval, len(e.Streams))}
	for p := range e.Streams {
		part.Streams[p] = e.Streams[p][lo:hi]
	}
	return part
}
