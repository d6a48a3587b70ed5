package tcptransport

import (
	"encoding/binary"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hierdet/internal/obsv"
	"hierdet/internal/wire"
)

// destFrame is a 12-byte opaque frame naming its destination and its place
// in that destination's stream.
func destFrame(to, seq int) []byte {
	buf := make([]byte, 12)
	binary.BigEndian.PutUint32(buf[4:], uint32(to))
	binary.BigEndian.PutUint32(buf[8:], uint32(seq))
	return buf
}

// destLog records, per destination id, the sequence numbers received in
// arrival order, and fails the test if a frame arrives under another
// destination's envelope.
type destLog struct {
	t   *testing.T
	mu  sync.Mutex
	got map[int][]int
}

func (l *destLog) recv(to int, frame []byte) {
	if named := int(binary.BigEndian.Uint32(frame[4:])); named != to {
		l.t.Errorf("frame for %d delivered to %d", named, to)
	}
	l.mu.Lock()
	if l.got == nil {
		l.got = make(map[int][]int)
	}
	l.got[to] = append(l.got[to], int(binary.BigEndian.Uint32(frame[8:])))
	l.mu.Unlock()
}

func (l *destLog) total() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, seqs := range l.got {
		n += len(seqs)
	}
	return n
}

// TestManyDestinationsShareOneLink: forty destination ids behind one address
// are one link — one dial, one connection — with FIFO order per destination,
// and a reset replays every frame of every destination that the peer had not
// acknowledged, and none that it had.
func TestManyDestinationsShareOneLink(t *testing.T) {
	const dests, perDest = 40, 50
	b := mustNew(t, Config{Listen: "127.0.0.1:0"})
	peers := make(map[int]string, dests)
	for to := 0; to < dests; to++ {
		peers[100+to] = b.Addr()
	}
	a := mustNew(t, Config{
		Listen: "127.0.0.1:0", Peers: peers,
		DialBackoff: time.Millisecond, DialBackoffMax: 10 * time.Millisecond,
	})
	t.Cleanup(func() { a.Close(); b.Close() })
	reg := obsv.NewRegistry()
	var redials []obsv.Event
	var evMu sync.Mutex
	a.Instrument(reg, func(ev obsv.Event) {
		evMu.Lock()
		redials = append(redials, ev)
		evMu.Unlock()
	})
	// The receiver holds every frame past the first perDest of a
	// destination in its callback until release: nothing past them is
	// acknowledged.
	hold := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(hold) }) }
	t.Cleanup(release)
	log := &destLog{t: t}
	if err := a.Start(func(int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(func(to int, frame []byte) {
		if binary.BigEndian.Uint32(frame[8:]) >= perDest {
			<-hold
		}
		log.recv(to, frame)
	}); err != nil {
		t.Fatal(err)
	}

	// Round-robin over the destinations from several goroutines, each owning
	// a slice of them, so the link's queue interleaves destinations.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seq := 0; seq < perDest; seq++ {
				for to := g; to < dests; to += 4 {
					a.Send(100+to, destFrame(100+to, seq))
				}
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, "every frame", func() bool { return log.total() == dests*perDest })

	if st := a.Stats(); st.Dials != 1 || st.Redials != 0 {
		t.Fatalf("%d destinations behind one address took %d dials (%d redials), want 1", dests, st.Dials, st.Redials)
	}
	log.mu.Lock()
	for to, seqs := range log.got {
		for i, seq := range seqs {
			if seq != i {
				t.Fatalf("destination %d: frame %d arrived at position %d", to, seq, i)
			}
		}
	}
	log.mu.Unlock()
	// The reader acknowledges once it runs dry, a moment after the last
	// delivery.
	waitFor(t, "every frame acknowledged", func() bool {
		return scrapeGauge(t, reg, "hierdet_transport_unacked_frames") == 0
	})
	if links := scrapeGauge(t, reg, "hierdet_transport_peers"); links != 1 {
		t.Fatalf("peers gauge %v, want 1 link", links)
	}

	// One more frame to every destination, held by the receiver, then
	// sever the connection (through any destination: they share it).
	for to := 0; to < dests; to++ {
		a.Send(100+to, destFrame(100+to, perDest))
	}
	waitFor(t, "the held frames in the log", func() bool {
		return scrapeGauge(t, reg, "hierdet_transport_unacked_frames") == dests
	})
	a.DisconnectPeer(100 + 7)
	waitFor(t, "the redial", func() bool { return a.Stats().Redials == 1 })
	release()
	waitFor(t, "the held frames", func() bool {
		log.mu.Lock()
		defer log.mu.Unlock()
		for to := 100; to < 100+dests; to++ {
			if len(log.got[to]) <= perDest {
				return false
			}
		}
		return true
	})
	waitFor(t, "the replay acknowledged", func() bool {
		return scrapeGauge(t, reg, "hierdet_transport_unacked_frames") == 0
	})

	if st := a.Stats(); st.Dials != 2 || st.Redials != 1 || st.Redelivered != dests {
		t.Fatalf("after one reset: %d dials, %d redials, %d frames replayed; want 2, 1 and the %d unacknowledged",
			st.Dials, st.Redials, st.Redelivered, dests)
	}
	log.mu.Lock()
	for to := 100; to < 100+dests; to++ {
		// The first perDest were acknowledged: exactly once each, in
		// order. The held frame arrives once from the replay and at most
		// once more out of the reset connection's receive buffer.
		seqs := log.got[to]
		for i, seq := range seqs {
			if want := min(i, perDest); seq != want {
				t.Fatalf("destination %d: position %d is frame %d, want %d", to, i, seq, want)
			}
		}
		if extra := len(seqs) - perDest; extra < 1 || extra > 2 {
			t.Fatalf("destination %d: the held frame arrived %d times, want 1 or 2", to, extra)
		}
	}
	log.mu.Unlock()
	evMu.Lock()
	defer evMu.Unlock()
	if len(redials) != 1 || redials[0].Kind != obsv.TransportRedial || redials[0].Node < 100 || redials[0].Node >= 100+dests {
		t.Fatalf("redial events %+v, want one TransportRedial naming a destination of the link", redials)
	}
}

// scrapeGauge reads one unlabelled gauge out of the registry's exposition.
func scrapeGauge(t *testing.T, reg *obsv.Registry, name string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("gauge line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("gauge %s not exposed", name)
	return 0
}

// TestBacklogBoundIsPerDestination: behind an address nobody listens on, a
// chatty destination overflows its own MaxBacklog and loses its own oldest
// frames; the quiet destination sharing the link loses nothing.
func TestBacklogBoundIsPerDestination(t *testing.T) {
	const backlog, chatty, quiet = 32, 500, 5
	probe := mustNew(t, Config{Listen: "127.0.0.1:0"})
	addr := probe.Addr()
	probe.Close()
	a := mustNew(t, Config{
		Listen: "127.0.0.1:0", Peers: map[int]string{1: addr, 2: addr}, MaxBacklog: backlog,
		DialBackoff: time.Millisecond, DialBackoffMax: 5 * time.Millisecond,
	})
	t.Cleanup(func() { a.Close() })
	if err := a.Start(func(int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < quiet; seq++ {
		a.Send(1, destFrame(1, seq))
	}
	for seq := 0; seq < chatty; seq++ {
		a.Send(2, destFrame(2, seq))
	}
	// Frames the writer holds across a failed dial rejoin the queue's front
	// and are bounded then, so the count settles a moment after the sends.
	waitFor(t, "the chatty destination's overflow", func() bool { return a.Stats().BacklogDropped == chatty-backlog })

	b := mustNew(t, Config{Listen: addr})
	t.Cleanup(func() { b.Close() })
	log := &destLog{t: t}
	if err := b.Start(log.recv); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the surviving frames", func() bool { return log.total() == quiet+backlog })
	log.mu.Lock()
	defer log.mu.Unlock()
	for i, seq := range log.got[1] {
		if seq != i {
			t.Fatalf("quiet destination got frame %d at position %d", seq, i)
		}
	}
	for i, seq := range log.got[2] {
		if seq != chatty-backlog+i {
			t.Fatalf("chatty destination got frame %d at position %d, want its last %d in order", seq, i, backlog)
		}
	}
}

// TestReparentedOriginStartsItsOwnChain: an origin whose reports go to one
// parent and then — after a repair — to another behind the same address must
// not have its first report to the new parent encoded against the old
// parent's chain: the receiver keys its bases by destination and would find
// none, which drops the connection. Both chains then keep running side by
// side (reports in flight to the old parent across the repair).
func TestReparentedOriginStartsItsOwnChain(t *testing.T) {
	b := mustNew(t, Config{Listen: "127.0.0.1:0"})
	a := mustNew(t, Config{Listen: "127.0.0.1:0", Peers: map[int]string{1: b.Addr(), 2: b.Addr()}})
	t.Cleanup(func() { a.Close(); b.Close() })
	sink := &reportSink{t: t}
	var tos sync.Map // seq → destination it arrived under
	if err := a.Start(func(int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(func(to int, frame []byte) {
		if rep, err := wire.DecodeReport(frame); err == nil {
			tos.Store(rep.Iv.Seq, to)
		}
		sink.recv(to, frame)
	}); err != nil {
		t.Fatal(err)
	}
	stream := reportStream(3, 60, 16)
	parent := func(i int) int {
		switch {
		case i < 20:
			return 1
		case i < 40:
			return 2
		default:
			return 1 + i%2 // stragglers to the old parent among the new one's
		}
	}
	absolute := 0
	for i, rep := range stream {
		frame := wire.EncodeReportV2(rep)
		absolute += len(frame)
		a.Send(parent(i), frame)
	}
	waitFor(t, "all reports", func() bool { return sink.have(3, len(stream)) })
	sink.check(t, stream)
	for i := range stream {
		if to, _ := tos.Load(i); to != parent(i) {
			t.Fatalf("report %d arrived under destination %v, want %d", i, to, parent(i))
		}
	}
	if st := b.Stats(); st.CorruptFrames != 0 {
		t.Fatalf("receiver rejected %d frames", st.CorruptFrames)
	}
	st := a.Stats()
	if st.Dials != 1 || st.Redials != 0 {
		t.Fatalf("connection dropped: %d dials, %d redials", st.Dials, st.Redials)
	}
	if st.BytesOut >= absolute/2 {
		t.Fatalf("wire payload %d bytes of %d absolute: the per-destination chains did not engage", st.BytesOut, absolute)
	}
}

// TestSendAllocatesNothingInSteadyState: bursts of frames between 300 B and
// 5 KiB to forty destinations behind one link. Once the link's stock of
// buffers covers what is in flight, and each buffer the largest frame, a Send
// takes a buffer an acknowledgement gave back: neither Send, the writer, the
// reader nor the acknowledgements allocate per frame.
func TestSendAllocatesNothingInSteadyState(t *testing.T) {
	a, b := pair(t)
	const dests = 40
	const base = 70000 // not one of the small integers the runtime boxes for free
	for i := 0; i < dests; i++ {
		a.cfg.Peers[base+i] = b.Addr()
	}
	if err := a.Start(func(int, []byte) {}); err != nil {
		t.Fatal(err)
	}
	var delivered sync.WaitGroup
	if err := b.Start(func(int, []byte) { delivered.Done() }); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	frames := make([][]byte, 997)
	for i := range frames {
		frames[i] = make([]byte, 300+rng.Intn(5<<10-300+1))
	}
	next := 0
	burst := func() {
		delivered.Add(dests)
		for i := 0; i < dests; i++ {
			a.Send(base+i, frames[next%len(frames)])
			next++
		}
		delivered.Wait()
	}
	for i := 0; i < 200; i++ {
		burst() // dial, grow the stock and its buffers, the queues and the scratch buffers
	}
	if allocs := testing.AllocsPerRun(100, burst); allocs > 0 {
		t.Fatalf("%v allocations per burst of %d Sends in steady state, want 0", allocs, dests)
	}
}
