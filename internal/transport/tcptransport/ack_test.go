package tcptransport

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"
)

// gatedCollector is a collector whose callback blocks until open is called,
// as a receiving process that has fallen behind would.
type gatedCollector struct {
	collector
	gate chan struct{}
	once sync.Once
}

func newGatedCollector() *gatedCollector { return &gatedCollector{gate: make(chan struct{})} }

func (g *gatedCollector) recv(to int, frame []byte) {
	<-g.gate
	g.collector.recv(to, frame)
}

func (g *gatedCollector) open() { g.once.Do(func() { close(g.gate) }) }

// bigFrame is a size-byte frame tagged, like frame, in its last four bytes.
func bigFrame(tag uint32, size int) []byte {
	buf := make([]byte, size)
	binary.BigEndian.PutUint32(buf[size-4:], tag)
	return buf
}

// waitCount waits for count to reach want, failing with the last count when
// it does not.
func waitCount(t *testing.T, what string, want int, count func() int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for n := count(); n != want; n = count() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d, want %d", what, n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResetReplaysEverythingUnread: a receiver that has stopped reading holds
// megabytes in the two kernels' buffers. A hard reset loses all of it; the
// sender has had no acknowledgement for any of it, so it replays every frame
// on the next connection and nothing is lost.
func TestResetReplaysEverythingUnread(t *testing.T) {
	const total, size = 3000, 1024 // below MaxBacklog: nothing may be dropped
	a, b := pair(t)
	a.cfg.DialBackoff = time.Millisecond
	a.cfg.DialBackoffMax = 10 * time.Millisecond
	got := newGatedCollector()
	t.Cleanup(got.open) // Close waits for readers parked in the callback
	if err := a.Start(func(int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(got.recv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		a.Send(1, bigFrame(uint32(i), size))
	}
	// Let the writer hand what the kernels will take to the connection.
	waitFor(t, "the first write", func() bool { return a.Stats().Flushes > 0 })
	time.Sleep(50 * time.Millisecond)
	a.DisconnectPeer(1)
	got.open()
	waitCount(t, "distinct frames after the reset", total, func() int { return len(got.distinct()) })
	st := a.Stats()
	if st.BacklogDropped != 0 {
		t.Fatalf("%d frames dropped from the backlog", st.BacklogDropped)
	}
	if st.Redials != 1 {
		t.Fatalf("%d redials after one reset, want 1", st.Redials)
	}
	t.Logf("redelivered=%d frames-in=%d", st.Redelivered, b.Stats().FramesIn)
}

// TestRejectedFrameIsNotReplayed: a frame over the peer's MaxFrame is
// refused once — the reader acknowledges it before dropping the connection,
// so the sender's replay does not carry it again — and the frames behind it
// all arrive after one reconnect.
func TestRejectedFrameIsNotReplayed(t *testing.T) {
	const good = 200
	b := mustNew(t, Config{Listen: "127.0.0.1:0", MaxFrame: 1024})
	a := mustNew(t, Config{
		Listen: "127.0.0.1:0", Peers: map[int]string{1: b.Addr()},
		DialBackoff: time.Millisecond, DialBackoffMax: 10 * time.Millisecond,
	})
	t.Cleanup(func() { a.Close(); b.Close() })
	var got collector
	if err := a.Start(func(int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(got.recv); err != nil {
		t.Fatal(err)
	}
	a.Send(1, bigFrame(1<<31, 4096)) // over b's MaxFrame
	for i := 0; i < good; i++ {
		a.Send(1, frame(uint32(i)))
	}
	waitCount(t, "distinct good frames", good, func() int { return len(got.distinct()) })
	time.Sleep(50 * time.Millisecond) // room for a replay loop to show
	if n := b.Stats().CorruptFrames; n != 1 {
		t.Fatalf("%d frames rejected, want the one oversize frame once", n)
	}
	if n := a.Stats().Redials; n > 1 {
		t.Fatalf("%d redials, want at most 1", n)
	}
	if _, ok := got.distinct()[1<<31]; ok {
		t.Fatal("the oversize frame was delivered")
	}
}

// FuzzAckStream: whatever bytes arrive on the reverse direction of a
// connection, the ack reader neither panics nor lets the log go of a frame
// the connection was not handed. It applies acknowledgements up to the first
// malformed one (behind its predecessor, past what was written, or cut
// short), then drops the connection.
func FuzzAckStream(f *testing.F) {
	acks := func(counts ...uint64) []byte {
		var b []byte
		for _, n := range counts {
			b = binary.BigEndian.AppendUint64(b, n)
		}
		return b
	}
	f.Add(acks(1, 3, 5), uint8(8), uint8(5))
	f.Add(acks(2, 2, 4), uint8(4), uint8(4))
	f.Add(acks(3, 2), uint8(8), uint8(8))
	f.Add(acks(9), uint8(8), uint8(8))
	f.Add(append(acks(1), 0, 0, 0), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, stream []byte, logged, written uint8) {
		// A link whose log holds `logged` frames, each tagged with its
		// place, the first `written` of them handed to the connection.
		w := uint64(min(written, logged))
		l := newLink(&Transport{}, "fuzz", 0)
		d := &dest{id: 1, link: l}
		for i := 0; i < int(logged); i++ {
			l.log = append(l.log, outFrame{d, []byte{byte(i)}})
		}
		near, far := net.Pipe()
		s := &session{conn: near, written: w, done: make(chan struct{})}
		l.sess = s
		l.t.writers.Add(1)
		go l.readAcks(s)
		go func() {
			far.Write(stream) // fails once the reader has dropped the connection
			far.Close()
		}()
		<-s.done

		var want uint64
		for rest := stream; len(rest) >= ackSize; rest = rest[ackSize:] {
			n := binary.BigEndian.Uint64(rest)
			if n < want || n > w {
				break
			}
			want = n
		}
		if s.acked != want || s.acked > w {
			t.Fatalf("acked %d, want %d (written %d)", s.acked, want, w)
		}
		if got := l.unackedLocked(); got != int(logged)-int(want) {
			t.Fatalf("log holds %d frames, want %d", got, int(logged)-int(want))
		}
		if l.unackedLocked() > 0 && l.log[l.logHead].data[0] != byte(want) {
			t.Fatalf("log starts at frame %d, want %d", l.log[l.logHead].data[0], want)
		}
		if l.sess != nil {
			t.Fatal("the dropped connection is still the link's")
		}
	})
}
