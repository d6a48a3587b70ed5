package livenet

import (
	"bufio"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"hierdet/internal/obsv"
	"hierdet/internal/tree"
	"hierdet/internal/workload"
)

// TestMessageFootprint: every hop copies a message into the wheel or the
// mailbox, so a message is one cache line and a wheel entry a line and a
// half. A field added to either belongs behind message.ext.
func TestMessageFootprint(t *testing.T) {
	if got := unsafe.Sizeof(message{}); got > 64 {
		t.Errorf("message is %d bytes, want at most 64", got)
	}
	if got := unsafe.Sizeof(wheelEntry{}); got > 96 {
		t.Errorf("wheelEntry is %d bytes, want at most 96", got)
	}
}

// drainHistogram scrapes the cluster's hierdet_sched_drain_batch_size count
// and sum.
func drainHistogram(t *testing.T, c *Cluster) (count, sum int64) {
	t.Helper()
	var sb strings.Builder
	if err := c.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	found := 0
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		name, value, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		var dst *int64
		switch name {
		case "hierdet_sched_drain_batch_size_count":
			dst = &count
		case "hierdet_sched_drain_batch_size_sum":
			dst = &sum
		default:
			continue
		}
		v, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			t.Fatalf("%s = %q: %v", name, value, err)
		}
		*dst = v
		found++
	}
	if found != 2 {
		t.Fatal("exposition lacks hierdet_sched_drain_batch_size_count or _sum")
	}
	return count, sum
}

// TestDrainAccountingAgrees: the substrate counts each cluster's drains
// under the lock that charges them, once for ClusterMetrics and the
// histogram alike. After Close the two agree, nothing is busy, the ledger is
// empty, and — with no timers in play — the messages drained are exactly
// the intervals fed plus the network messages the nodes handled. Two tenants
// on one substrate each count only their own drains.
func TestDrainAccountingAgrees(t *testing.T) {
	topo := tree.Balanced(2, 3)
	check := func(name string, c *Cluster, fed int) {
		t.Helper()
		m := c.ClusterMetrics()
		count, sum := drainHistogram(t, c)
		if m.Drains != count || m.MessagesDrained != sum {
			t.Errorf("%s: ClusterMetrics drains %d, messages %d; histogram count %d, sum %d",
				name, m.Drains, m.MessagesDrained, count, sum)
		}
		if m.WorkersBusy != 0 || m.PendingCredits != 0 {
			t.Errorf("%s: after Close %d workers busy, %d credits pending, want 0 and 0", name, m.WorkersBusy, m.PendingCredits)
		}
		if want := int64(fed) + m.MsgsIn; m.MessagesDrained != want {
			t.Errorf("%s: %d messages drained, want %d intervals fed + %d handled network messages = %d",
				name, m.MessagesDrained, fed, m.MsgsIn, want)
		}
		if m.Drains == 0 {
			t.Errorf("%s: no drains counted", name)
		}
	}
	run := func(c *Cluster, rounds int) int {
		e := workload.Generate(workload.Config{Topology: topo, Rounds: rounds, Seed: int64(rounds), PGlobal: 1})
		feed(c, e, topo)
		c.Close()
		return rounds * topo.N()
	}

	alone := New(Config{Topology: topo, Seed: 3, AdaptiveFlush: true})
	check("standalone", alone, run(alone, 20))

	s := NewSharedScheduler(SharedSchedulerConfig{Workers: 2})
	defer s.Close()
	a := New(Config{Topology: topo, Seed: 4, AdaptiveFlush: true, Scheduler: s})
	b := New(Config{Topology: topo, Seed: 5, Scheduler: s})
	fedA := make(chan int)
	go func() { fedA <- run(a, 30) }()
	fedB := run(b, 7)
	check("tenant a", a, <-fedA)
	check("tenant b", b, fedB)
}

// TestFlushFromCreditlessDrain: a report emitted in a drain of failure-
// detector timers only — a parent dropping its killed child on a heartbeat
// tick or deadline check, which unblocks what its other child sent — holds no
// ledger credit of the drain's, so its flush takes one first. The report
// still reaches the root, and Close finds every detection with the ledger
// empty.
func TestFlushFromCreditlessDrain(t *testing.T) {
	topo := tree.Balanced(2, 2) // 1 has leaves 3 and 4
	e := workload.Generate(workload.Config{Topology: topo, Rounds: 1, Seed: 7, PGlobal: 1})
	rootSpans := make(chan int, 4) // more than the one root detection there can be: the sink never blocks a worker
	c := New(Config{Topology: topo, Seed: 9, Verify: true,
		AdaptiveFlush: true, HbEvery: 2 * time.Millisecond,
		Events: func(ev obsv.Event) {
			if ev.Kind == obsv.SolutionFound && ev.AtRoot {
				rootSpans <- len(ev.Agg.Span)
			}
		}})
	for p := range e.Streams {
		if p != 4 {
			c.Observe(p, e.Streams[p][0])
		}
	}
	c.Drain() // node 1 holds its own and 3's intervals, waiting for 4's
	if m := c.Metrics()[1]; m.BatchFlushes != 0 {
		t.Fatalf("node 1 flushed %d times before its child died, want 0", m.BatchFlushes)
	}
	c.Kill(4)
	select {
	case span := <-rootSpans:
		if span != topo.N()-1 {
			t.Errorf("root detection spans %d processes, want the %d survivors", span, topo.N()-1)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the report node 1 sent after dropping its dead child never reached the root")
	}
	c.Close()
	roots := 0
	for _, d := range c.Detections() {
		if d.AtRoot {
			roots++
		}
	}
	if roots != 1 {
		t.Errorf("%d root detections after Close, want 1", roots)
	}
	if m := c.ClusterMetrics(); m.PendingCredits != 0 || m.ChildDrops != 1 {
		t.Errorf("after Close: %d credits pending and %d child drops, want 0 and 1", m.PendingCredits, m.ChildDrops)
	}
	if m := c.Metrics()[1]; m.BatchFlushes != 1 {
		t.Errorf("node 1 flushed %d times, want the one after the drop", m.BatchFlushes)
	}
}
