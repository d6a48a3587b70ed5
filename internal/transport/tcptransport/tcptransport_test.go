package tcptransport

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"
)

// pair builds two connected transports on loopback.
func pair(t *testing.T) (a, b *Transport) {
	t.Helper()
	a = mustNew(t, Config{Listen: "127.0.0.1:0"})
	b = mustNew(t, Config{Listen: "127.0.0.1:0"})
	a.cfg.Peers = map[int]string{1: b.Addr()}
	b.cfg.Peers = map[int]string{0: a.Addr()}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func mustNew(t *testing.T, cfg Config) *Transport {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// collector gathers received frames.
type collector struct {
	mu     sync.Mutex
	frames [][]byte
	tos    []int
}

func (c *collector) recv(to int, frame []byte) {
	c.mu.Lock()
	c.frames = append(c.frames, append([]byte(nil), frame...))
	c.tos = append(c.tos, to)
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

// payloads returns the distinct payloads seen, by their trailing u32 tag.
func (c *collector) distinct() map[uint32]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[uint32]int)
	for _, f := range c.frames {
		out[binary.BigEndian.Uint32(f[len(f)-4:])]++
	}
	return out
}

func frame(tag uint32) []byte {
	buf := make([]byte, 12)
	binary.BigEndian.PutUint32(buf[8:], tag)
	return buf
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSendReceive(t *testing.T) {
	a, b := pair(t)
	var got collector
	if err := a.Start(func(int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(got.recv); err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		a.Send(1, frame(uint32(i)))
	}
	waitFor(t, "all frames", func() bool { return len(got.distinct()) == n })
	for _, to := range got.tos {
		if to != 1 {
			t.Fatalf("frame addressed to %d, want 1", to)
		}
	}
	// Coalescing: 200 sends racing one writer must not take 200 flushes.
	if st := a.Stats(); st.Flushes >= st.FramesOut {
		t.Logf("flushes %d for %d frames (no coalescing observed; timing-dependent)", st.Flushes, st.FramesOut)
	}
}

// TestLazyDialAndBackoffThenRecover: sends to a peer that is not listening
// yet queue and are delivered once the peer appears — the lazy-dial plus
// exponential-backoff path.
func TestLazyDialAndBackoffThenRecover(t *testing.T) {
	a := mustNew(t, Config{Listen: "127.0.0.1:0", DialBackoff: 2 * time.Millisecond, DialBackoffMax: 20 * time.Millisecond})
	t.Cleanup(func() { a.Close() })
	if err := a.Start(func(int, []byte) {}); err != nil {
		t.Fatal(err)
	}

	// Reserve an address nobody listens on yet.
	probe := mustNew(t, Config{Listen: "127.0.0.1:0"})
	addr := probe.Addr()
	probe.Close()
	a.cfg.Peers = map[int]string{7: addr}

	for i := 0; i < 10; i++ {
		a.Send(7, frame(uint32(i)))
	}
	time.Sleep(30 * time.Millisecond) // let several dial attempts fail

	b := mustNew(t, Config{Listen: addr})
	t.Cleanup(func() { b.Close() })
	var got collector
	if err := b.Start(got.recv); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "queued frames after late listen", func() bool { return len(got.distinct()) == 10 })
}

// TestDisconnectMidStreamRedelivers is the transport half of the
// reconnect-redelivery contract: a hard connection reset mid-stream loses
// kernel-buffered frames, the writer reconnects with backoff and replays the
// frames the receiver had not acknowledged, and every payload still arrives.
// Some arrive twice — the receiver's resequencer owns deduplication, see
// livenet's redelivery test — but only frames the log held at the reset.
func TestDisconnectMidStreamRedelivers(t *testing.T) {
	a, b := pair(t)
	a.cfg.DialBackoff = time.Millisecond
	a.cfg.DialBackoffMax = 10 * time.Millisecond
	var got collector
	if err := a.Start(func(int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(got.recv); err != nil {
		t.Fatal(err)
	}

	const total = 400
	unackedAtReset := 0
	for i := 0; i < total; i++ {
		a.Send(1, frame(uint32(i)))
		if i == 100 {
			waitFor(t, "first frames", func() bool { return got.count() > 0 })
			a.DisconnectPeer(1)
			// Whatever the reset connection still delivers was handed
			// to it, so it is in the log now: acks stopped with the reset.
			unackedAtReset = a.unackedFrames()
		}
		if i%50 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	waitFor(t, "every payload at least once", func() bool { return len(got.distinct()) == total })

	st := a.Stats()
	if st.Redials == 0 {
		t.Error("no redial recorded after forced disconnect")
	}
	dup := 0
	for _, n := range got.distinct() {
		if n > 1 {
			dup += n - 1
		}
	}
	if dup > unackedAtReset {
		t.Errorf("%d duplicates at the receiver, but the log held %d frames at the reset", dup, unackedAtReset)
	}
	t.Logf("redials=%d redelivered=%d unacked-at-reset=%d duplicates-at-receiver=%d", st.Redials, st.Redelivered, unackedAtReset, dup)
}

// TestBacklogBounded: frames to a peer that never listens stop accumulating
// at MaxBacklog.
func TestBacklogBounded(t *testing.T) {
	a := mustNew(t, Config{
		Listen: "127.0.0.1:0", MaxBacklog: 32,
		DialBackoff: time.Millisecond, DialBackoffMax: 5 * time.Millisecond,
	})
	t.Cleanup(func() { a.Close() })
	if err := a.Start(func(int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	probe := mustNew(t, Config{Listen: "127.0.0.1:0"})
	dead := probe.Addr()
	probe.Close()
	a.cfg.Peers = map[int]string{3: dead}
	for i := 0; i < 500; i++ {
		a.Send(3, frame(uint32(i)))
	}
	waitFor(t, "backlog drops", func() bool { return a.Stats().BacklogDropped > 0 })
}

// TestCorruptEnvelopeDropsConnection: a reader that sees an implausible
// length drops the stream instead of allocating it.
func TestCorruptEnvelopeDropsConnection(t *testing.T) {
	b := mustNew(t, Config{Listen: "127.0.0.1:0", MaxFrame: 1024})
	t.Cleanup(func() { b.Close() })
	var got collector
	if err := b.Start(got.recv); err != nil {
		t.Fatal(err)
	}
	a := mustNew(t, Config{Listen: "127.0.0.1:0"})
	t.Cleanup(func() { a.Close() })
	a.cfg.Peers = map[int]string{1: b.Addr()}
	if err := a.Start(func(int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, 4096) // over b's MaxFrame
	a.Send(1, huge)
	waitFor(t, "corrupt-frame rejection", func() bool { return b.Stats().CorruptFrames == 1 })
	if got.count() != 0 {
		t.Fatalf("corrupt frame delivered anyway (%d frames)", got.count())
	}
}

// TestCloseQuiesces: after Close returns, no recv runs and Sends are no-ops.
func TestCloseQuiesces(t *testing.T) {
	a, b := pair(t)
	var got collector
	if err := a.Start(func(int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(got.recv); err != nil {
		t.Fatal(err)
	}
	a.Send(1, frame(1))
	waitFor(t, "one frame", func() bool { return got.count() == 1 })
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	before := got.count()
	a.Send(1, frame(2))
	a.Send(1, frame(3))
	time.Sleep(20 * time.Millisecond)
	if got.count() != before {
		t.Fatalf("frames delivered after Close: %d -> %d", before, got.count())
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	a.Send(1, frame(4)) // must not panic
}

// TestManyPeers routes frames from one hub to many spokes by id.
func TestManyPeers(t *testing.T) {
	const spokes = 8
	hub := mustNew(t, Config{Listen: "127.0.0.1:0"})
	t.Cleanup(func() { hub.Close() })
	hub.cfg.Peers = make(map[int]string)
	cols := make([]*collector, spokes)
	for i := 0; i < spokes; i++ {
		sp := mustNew(t, Config{Listen: "127.0.0.1:0"})
		t.Cleanup(func() { sp.Close() })
		cols[i] = &collector{}
		if err := sp.Start(cols[i].recv); err != nil {
			t.Fatal(err)
		}
		hub.cfg.Peers[i] = sp.Addr()
	}
	if err := hub.Start(func(int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		for i := 0; i < spokes; i++ {
			hub.Send(i, frame(uint32(round)))
		}
	}
	for i, c := range cols {
		i, c := i, c
		waitFor(t, fmt.Sprintf("spoke %d", i), func() bool { return c.count() == 20 })
	}
}
