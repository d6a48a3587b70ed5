// Package tcptransport runs the detector's message plane over real TCP
// sockets: one listener per OS process, one lazily-dialed outbound
// connection per peer process. It implements transport.Transport, so a
// livenet cluster configured with it exchanges the same wire-encoded frames
// as the in-memory runtime — but across process (and machine) boundaries,
// which is the deployment model the paper assumes ("large-scale networks")
// and the repository's north star requires.
//
// # Addressing
//
// A peer is an address, not a destination id. Config.Peers maps every remote
// node id to the "host:port" of the process hosting it; all ids behind one
// address share one link — one queue drained by one writer goroutine over
// one connection — and the envelope's `to` field says which node each frame
// is for. Two processes hosting hundreds of nodes each talk over two
// connections (one per direction), and a burst of reports from many nodes to
// many parents costs one write.
//
// # Framing
//
// Connections carry length-prefixed envelopes (big endian):
//
//	envelope := payloadLen u32 | to u32 | payload [payloadLen]byte
//
// `to` is the destination node id — the transport's own addressing, kept
// outside the wire formats so one listener can host several detector nodes.
// payload is one internal/wire frame (report, heartbeat or attach). A reader
// that sees an implausible length (> MaxFrame) treats the stream as corrupt
// and drops the connection; the peer redials.
//
// The reverse direction of each connection carries acknowledgements:
//
//	ack := consumed u64
//
// consumed is how many envelopes the reader has handed to the receive
// callback or rejected on this connection, cumulative. The reader writes it
// when its buffer runs dry, just before it would block for more, so an ack
// costs at most one small write per read syscall. This is a wire change: both
// ends of a connection must run a version that speaks it.
//
// # Reliability
//
// Sends are asynchronous: Send copies the frame into a recycled buffer,
// enqueues it and returns; the link's writer goroutine dials lazily on first
// use and reconnects with exponential backoff (plus jitter) after failures.
// All frames queued at write time are written in one buffered flush — write
// coalescing, so a burst of reports costs one syscall. A TCP write() success
// does not mean delivery (data buffered in either kernel dies with a reset
// connection), so each link keeps a log of the frames it has handed to the
// current connection, in write order, until the peer acknowledges them; an
// acknowledgement returns their buffers to Send. A reconnect replays the
// whole log ahead of new traffic. Every frame the receiving process has not
// read therefore survives any number of resets; receivers absorb the
// duplicates (report streams are deduplicated by the per-link resequencers,
// and the repair protocol is idempotent by request id). A frame the reader
// rejects (over MaxFrame, or undecodable stream state) is acknowledged before
// the connection drops, so it is never replayed.
//
// The log needs no bound of its own: frames enter it only as they are
// written, and the writer blocks in write() once both kernels' buffers are
// full, so TCP flow control caps it at what the two kernels and the reader's
// buffer hold, plus one flush. What still loses frames: a receiving process that crashes loses
// whatever it had read but not yet handed on, and frames to a destination
// whose process stays unreachable accumulate up to MaxBacklog *per
// destination id* and then drop oldest-first — messages to a crashed process
// are lost by the model, and the cap keeps a dead peer from holding the
// sender's memory. The bound is per destination so that sharing a link does
// not weaken it: a chatty node cannot push a quiet one's queued frames out of
// the backlog. Per-destination FIFO holds; frames to different destinations
// may overtake each other, which the contract (transport.Transport) allows.
//
// Received frames are handed to the receive callback in the reader's own
// buffer: the callback must decode or copy before it returns.
package tcptransport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hierdet/internal/obsv"
)

// readBufSize is the buffered reader's size. Frames up to this long are
// delivered in place out of the read buffer; longer ones (none the detector
// produces below thousands of processes) get storage of their own.
const readBufSize = 64 << 10

// maxFreeFrames bounds a link's stock of recycled frame buffers. In steady
// state buffers cycle — Send takes one, the writer files it in the link's
// log, the peer's acknowledgement brings it back — and the stock stays at
// what is in flight; the bound is for the aftermath of a drained backlog,
// which would otherwise stay allocated for good.
const maxFreeFrames = 256

// ackSize is the length of an acknowledgement on the reverse direction of a
// connection, and ackTimeout how long a reader waits to write one before it
// drops the connection (a peer that does not read its acks).
const (
	ackSize    = 8
	ackTimeout = 5 * time.Second
)

// Config parameterizes a TCP transport.
type Config struct {
	// Listen is the local listen address ("127.0.0.1:0" picks a free
	// port; read the result back with Addr).
	Listen string
	// Peers is the address book: node id → "host:port" of the process
	// hosting it. Ids that share an address share one connection. Ids
	// hosted by this process itself need no entry (livenet never routes
	// local traffic through the transport).
	Peers map[int]string
	// DialBackoff is the first reconnect delay after a failed dial or a
	// broken connection; it doubles per consecutive failure up to
	// DialBackoffMax. Defaults: 10ms and 1s.
	DialBackoff, DialBackoffMax time.Duration
	// MaxBacklog caps the frames queued per destination id; beyond it the
	// oldest are dropped (default 4096).
	MaxBacklog int
	// MaxFrame caps the payload length a reader accepts before declaring
	// the stream corrupt (default 1<<24).
	MaxFrame int
	// Seed drives the reconnect jitter (0 seeds from the listen address).
	Seed int64
}

// Stats is a point-in-time snapshot of the transport's counters.
type Stats struct {
	// FramesOut and FramesIn count frames written and delivered
	// (redeliveries included).
	FramesOut, FramesIn int
	// Redelivered counts frames replayed from a link's log of
	// unacknowledged frames after a reconnect.
	Redelivered int
	// Dials counts successful dials — one per peer address in a run without
	// failures; Redials the reconnects among them.
	Dials, Redials int
	// BacklogDropped counts frames dropped because a destination's queue
	// overflowed MaxBacklog.
	BacklogDropped int
	// CorruptFrames counts envelopes rejected by a reader.
	CorruptFrames int
	// Flushes counts coalesced writes (one flush may carry many frames).
	Flushes int
	// BytesOut counts payload bytes written (envelope headers excluded),
	// after cross-frame delta compression — the transport's actual wire
	// volume, which the byte-cost experiments compare against the
	// fixed-width v1 framing.
	BytesOut int
	// BytesIn counts payload bytes read (envelope headers excluded, before
	// delta reconstruction) — the inbound counterpart of BytesOut.
	BytesIn int
	// AcksOut counts acknowledgements written back to peers, ackSize (8)
	// bytes each and not in BytesOut.
	AcksOut int
}

// Transport is a running TCP transport. Create with New, wire into a
// cluster (livenet calls Start), tear down with Close.
type Transport struct {
	cfg Config
	ln  net.Listener

	// routes maps a destination id to its *dest once the first Send to it
	// has resolved the id's address to a link: the per-frame path reads it
	// without taking mu.
	routes sync.Map

	mu    sync.Mutex
	links map[string]*link  // address → outbound link
	conns map[net.Conn]bool // accepted connections, for teardown
	recv  func(to int, frame []byte)
	// closed is written under mu (so whoever holds mu sees it settled) and
	// read without it by the readers, once per frame.
	closed atomic.Bool

	readers sync.WaitGroup
	writers sync.WaitGroup

	framesOut, framesIn, redelivered atomic.Int64
	dials, redials                   atomic.Int64
	backlogDropped, corruptFrames    atomic.Int64
	flushes, bytesOut, bytesIn       atomic.Int64
	acksOut                          atomic.Int64

	// events is the cluster's lifecycle sink, installed by Instrument before
	// Start; nil when the transport runs unobserved. Guarded by mu.
	events func(obsv.Event)
}

// New binds the listener immediately (so Addr is valid before Start) but
// accepts no traffic until Start.
func New(cfg Config) (*Transport, error) {
	if cfg.DialBackoff <= 0 {
		cfg.DialBackoff = 10 * time.Millisecond
	}
	if cfg.DialBackoffMax <= 0 {
		cfg.DialBackoffMax = time.Second
	}
	if cfg.MaxBacklog <= 0 {
		cfg.MaxBacklog = 4096
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = 1 << 24
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("tcptransport: listen %s: %w", cfg.Listen, err)
	}
	if cfg.Seed == 0 {
		for _, b := range []byte(ln.Addr().String()) {
			cfg.Seed = cfg.Seed*131 + int64(b)
		}
	}
	return &Transport{
		cfg:   cfg,
		ln:    ln,
		links: make(map[string]*link),
		conns: make(map[net.Conn]bool),
	}, nil
}

// Addr returns the bound listen address (useful with "host:0").
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// SetPeers installs (or replaces) the address book. It exists for
// deployments whose listen addresses are only known after every participant
// has bound ("host:0"): bind all transports with New, exchange Addr values,
// then SetPeers before the first Send. Ids that have been sent to already
// keep the address they resolved to then.
func (t *Transport) SetPeers(peers map[int]string) {
	t.mu.Lock()
	t.cfg.Peers = peers
	t.mu.Unlock()
}

// Start implements transport.Transport: begin accepting and delivering.
func (t *Transport) Start(recv func(to int, frame []byte)) error {
	t.mu.Lock()
	if t.recv != nil {
		t.mu.Unlock()
		return errors.New("tcptransport: Start called twice")
	}
	t.recv = recv
	t.mu.Unlock()
	t.readers.Add(1)
	go t.acceptLoop()
	return nil
}

// Send implements transport.Transport: enqueue on the link to the process
// hosting `to`. Frames to ids the address book does not know are dropped,
// like messages to the dead.
func (t *Transport) Send(to int, frame []byte) {
	if d := t.route(to); d != nil {
		d.link.enqueue(d, frame)
	}
}

// route returns the destination record for id, resolving its address and
// starting the link's writer the first time; nil for an unknown id or a
// closed transport.
func (t *Transport) route(to int) *dest {
	if d, ok := t.routes.Load(to); ok {
		return d.(*dest)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() {
		return nil
	}
	if d, ok := t.routes.Load(to); ok {
		return d.(*dest) // another Send resolved it meanwhile
	}
	addr, ok := t.cfg.Peers[to]
	if !ok {
		return nil
	}
	l := t.links[addr]
	if l == nil {
		l = newLink(t, addr, to)
		t.links[addr] = l
		t.writers.Add(1)
		go l.writeLoop()
	}
	d := &dest{id: to, link: l}
	t.routes.Store(to, d)
	return d
}

// Stats snapshots the counters.
func (t *Transport) Stats() Stats {
	return Stats{
		FramesOut:      int(t.framesOut.Load()),
		FramesIn:       int(t.framesIn.Load()),
		Redelivered:    int(t.redelivered.Load()),
		Dials:          int(t.dials.Load()),
		Redials:        int(t.redials.Load()),
		BacklogDropped: int(t.backlogDropped.Load()),
		CorruptFrames:  int(t.corruptFrames.Load()),
		Flushes:        int(t.flushes.Load()),
		BytesOut:       int(t.bytesOut.Load()),
		BytesIn:        int(t.bytesIn.Load()),
		AcksOut:        int(t.acksOut.Load()),
	}
}

// DisconnectPeer severs the current outbound connection to the process
// hosting `to` — the link every id behind that address shares — with a hard
// reset, as a failing network would. The link notices at once, reconnects
// with backoff and replays every frame the peer had not acknowledged.
// A fault-injection hook for tests; harmless in production.
func (t *Transport) DisconnectPeer(to int) {
	if d, ok := t.routes.Load(to); ok {
		d.(*dest).link.abortConn()
	}
}

// Close implements transport.Transport.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed.Load() {
		t.mu.Unlock()
		return nil
	}
	t.closed.Store(true)
	links := t.snapshotLinksLocked()
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()

	t.ln.Close()
	for _, l := range links {
		l.close()
	}
	for _, c := range conns {
		c.Close()
	}
	t.writers.Wait()
	t.readers.Wait()
	return nil
}

// --- inbound path ---

func (t *Transport) acceptLoop() {
	defer t.readers.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed.Load() {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = true
		t.readers.Add(1)
		recv := t.recv // set before the accept loop started
		t.mu.Unlock()
		go t.readLoop(conn, recv)
	}
}

func (t *Transport) readLoop(conn net.Conn, recv func(to int, frame []byte)) {
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
		t.readers.Done()
	}()
	ack := &acker{t: t, conn: conn}
	br := bufio.NewReaderSize(ack, readBufSize)
	var hdr [8]byte
	var ub unbaser // per-connection delta state, mirroring the sender's
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		size := int(binary.BigEndian.Uint32(hdr[:4]))
		to := int(binary.BigEndian.Uint32(hdr[4:]))
		if size > t.cfg.MaxFrame {
			ack.reject()
			return // stream corrupt: drop the connection, peer redials
		}
		// The payload is handed on where it lies in the read buffer, valid
		// until the Discard below; nothing downstream keeps it (the unbaser
		// copies what it stashes, the receive callback decodes).
		var payload []byte
		var err error
		inPlace := size <= br.Size()
		if inPlace {
			payload, err = br.Peek(size)
		} else {
			payload = make([]byte, size)
			_, err = io.ReadFull(br, payload)
		}
		if err != nil {
			return
		}
		t.bytesIn.Add(int64(size))
		if !t.deliver(recv, to, payload, &ub, ack) {
			return
		}
		if inPlace {
			br.Discard(size) // cannot fail: Peek buffered that much
		}
	}
}

// deliver runs one frame through the connection's delta state and hands it to
// the receive callback, returning false when the connection must drop
// (corrupt stream state or transport closed).
func (t *Transport) deliver(recv func(to int, frame []byte), to int, frame []byte, ub *unbaser, ack *acker) bool {
	frame, err := ub.undelta(to, frame)
	if err != nil {
		// Undecodable stream state (e.g. a basis-relative frame whose basis
		// was lost): same remedy as corruption — drop the connection; the
		// peer redials with reset bases and replays what followed.
		ack.reject()
		return false
	}
	if t.closed.Load() {
		return false
	}
	t.framesIn.Add(1)
	recv(to, frame)
	ack.consumed++
	return true
}

// acker is the reverse direction of an accepted connection. The reader's
// bufio.Reader reads through it, so it sees the moment the buffer runs dry
// and acknowledges what the reader consumed before blocking for more.
type acker struct {
	t        *Transport
	conn     net.Conn
	consumed uint64 // envelopes handed to the receive callback or rejected
	acked    uint64 // the count last written back
	buf      [ackSize]byte
}

// Read implements io.Reader for the connection's bufio.Reader, which calls it
// only when its buffer cannot serve the next read.
func (a *acker) Read(p []byte) (int, error) {
	if err := a.flush(); err != nil {
		return 0, err
	}
	return a.conn.Read(p)
}

// flush writes the consumed count if it moved since the last ack. A peer
// that does not take it within ackTimeout fails the write, and with it the
// connection. (A deadline that cannot be set means a closed connection,
// which the write reports.)
func (a *acker) flush() error {
	if a.consumed == a.acked {
		return nil
	}
	binary.BigEndian.PutUint64(a.buf[:], a.consumed)
	a.conn.SetWriteDeadline(time.Now().Add(ackTimeout))
	if _, err := a.conn.Write(a.buf[:]); err != nil {
		return err
	}
	a.acked = a.consumed
	a.t.acksOut.Add(1)
	return nil
}

// reject counts a refused envelope as consumed and acknowledges it before the
// reader drops the connection, so the sender's log lets go of it instead of
// replaying it into every connection that follows.
func (a *acker) reject() {
	a.t.corruptFrames.Add(1)
	a.consumed++
	a.flush() // the connection drops either way; without the ack the next one refuses the frame again
}

// --- outbound path ---

// dest is one destination id behind a link. The link moves its frames; the
// MaxBacklog bound the transport promises per destination is kept here.
type dest struct {
	id   int
	link *link

	queue  [][]byte // frames awaiting a write, oldest first; guarded by link.mu
	queued bool     // on link.ready; guarded by link.mu
}

// outFrame is one frame of a write: the bytes and the destination they are
// for.
type outFrame struct {
	dst  *dest
	data []byte
}

// session is one outbound connection, from its dial until the goroutine
// reading its acknowledgements exits.
type session struct {
	conn net.Conn
	// written counts the envelopes handed to conn and acked those the peer
	// has acknowledged: the link's log starts at envelope acked, and its
	// first written-acked frames went out on this connection. Guarded by
	// link.mu.
	written, acked uint64
	done           chan struct{} // closed when the ack reader exits
}

// link is the outbound half of one process pair: the queues of every
// destination id behind one address, the log of frames the peer has not
// acknowledged, and the writer goroutine that owns the connection.
type link struct {
	t     *Transport
	addr  string
	first int // the id whose Send opened the link: names it in TransportRedial

	mu     sync.Mutex
	cond   *sync.Cond
	ready  []*dest  // destinations with frames queued, in the order they became so
	depth  int      // frames queued across all destinations
	free   [][]byte // recycled frame buffers (see maxFreeFrames)
	closed bool
	done   chan struct{} // closed with the link, wakes backoff sleeps
	sess   *session      // the live connection; nil until the writer (re)dials

	// log[logHead:] are the frames handed to a connection and not yet
	// acknowledged, in write order: what a reconnect replays. Entries
	// before logHead are spent, reused once they are half the array.
	log     []outFrame
	logHead int

	rng *rand.Rand

	// Write-path scratch, owned by writeLoop: the per-connection delta
	// encoder (reset on every dial, so replayed absolute frames restart the
	// chains), the frames of the write in progress and the coalescing
	// buffer reused across flushes.
	reb   rebaser
	batch []outFrame
	wbuf  []byte
}

func newLink(t *Transport, addr string, first int) *link {
	l := &link{
		t: t, addr: addr, first: first,
		done: make(chan struct{}),
		rng:  rand.New(rand.NewSource(t.cfg.Seed ^ int64(first)<<13)),
	}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// enqueue copies frame into a recycled buffer and queues it for d.
func (l *link) enqueue(d *dest, frame []byte) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	var buf []byte
	if n := len(l.free); n > 0 {
		buf, l.free = l.free[n-1], l.free[:n-1]
	}
	d.queue = append(d.queue, append(buf[:0], frame...))
	l.depth++
	if over := len(d.queue) - l.t.cfg.MaxBacklog; over > 0 {
		for _, f := range d.queue[:over] {
			l.recycleLocked(f)
		}
		d.queue = d.queue[over:]
		l.depth -= over
		l.t.backlogDropped.Add(int64(over))
	}
	if !d.queued {
		d.queued = true
		l.ready = append(l.ready, d)
	}
	l.cond.Signal()
	l.mu.Unlock()
}

// recycleLocked returns a frame buffer to the free stock, up to its bound.
func (l *link) recycleLocked(buf []byte) {
	if len(l.free) < maxFreeFrames {
		l.free = append(l.free, buf)
	}
}

// unackedLocked is the log's length.
func (l *link) unackedLocked() int { return len(l.log) - l.logHead }

func (l *link) close() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.done)
	}
	if l.sess != nil {
		l.sess.conn.Close()
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// abortConn hard-resets the current connection (SO_LINGER 0 ⇒ RST), so even
// kernel-buffered data is lost — the failure mode the log exists for.
func (l *link) abortConn() {
	l.mu.Lock()
	s := l.sess
	l.mu.Unlock()
	if s == nil {
		return
	}
	if tc, ok := s.conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	s.conn.Close()
}

// writeLoop owns the link's connections: dial lazily with backoff, replay
// the log on every new connection, and move the destinations' queues through
// the log onto the wire in coalesced flushes.
func (l *link) writeLoop() {
	defer l.t.writers.Done()
	var failures int
	dialed := false
	for {
		l.mu.Lock()
		// Wake for queued frames, or for frames a dead connection left in
		// the log: those are replayed without waiting for the next Send.
		for !l.closed && len(l.ready) == 0 && (l.sess != nil || l.unackedLocked() == 0) {
			l.cond.Wait()
		}
		if l.closed {
			l.mu.Unlock()
			return
		}
		s := l.sess
		l.mu.Unlock()

		if s == nil {
			conn, err := net.DialTimeout("tcp", l.addr, time.Second)
			if err != nil {
				if l.sleepBackoff(&failures) {
					return
				}
				continue
			}
			s = &session{conn: conn, done: make(chan struct{})}
			l.mu.Lock()
			if l.closed {
				l.mu.Unlock()
				conn.Close()
				return
			}
			l.sess = s
			replay := l.unackedLocked()
			l.t.writers.Add(1)
			l.mu.Unlock()
			go l.readAcks(s)
			l.t.dials.Add(1)
			l.reb.reset() // new connection, new stream: bases start over
			if dialed {
				l.t.redials.Add(1)
				l.t.emitRedial(l.first)
			}
			dialed = true
			l.t.redelivered.Add(int64(replay))
		}

		batch := l.take(s)
		if len(batch) == 0 {
			continue // the connection died first: redial
		}
		if err := l.writeBatch(s.conn, batch); err != nil {
			// The batch stays in the log. Let the ack reader take in what
			// the peer acknowledged before the failure, so the replay
			// carries nothing it already consumed; then redial.
			s.conn.SetReadDeadline(time.Now().Add(ackTimeout))
			<-s.done
			if l.sleepBackoff(&failures) {
				return
			}
			continue
		}
		failures = 0
		l.t.flushes.Add(1)
		l.t.framesOut.Add(int64(len(batch)))
	}
}

// take files everything queued at the log's tail, destination by
// destination — each destination's frames stay in order and next to each
// other — and returns the log's frames s has not been handed yet: on a
// fresh connection, the whole log. Nil when s is no longer the link's
// connection.
func (l *link) take(s *session) []outFrame {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sess != s {
		return nil
	}
	for _, d := range l.ready {
		for _, f := range d.queue {
			if len(l.log) == cap(l.log) && l.logHead >= len(l.log)/2 {
				n := copy(l.log, l.log[l.logHead:])
				clear(l.log[n:])
				l.log, l.logHead = l.log[:n], 0
			}
			l.log = append(l.log, outFrame{d, f})
		}
		clear(d.queue)
		d.queue, d.queued = d.queue[:0], false
	}
	l.ready, l.depth = l.ready[:0], 0
	l.batch = append(l.batch[:0], l.log[l.logHead+int(s.written-s.acked):]...)
	s.written += uint64(len(l.batch))
	return l.batch
}

// readAcks reads s's acknowledgements until the connection fails or carries
// a malformed one, then closes it and, if s is still the link's connection,
// clears it and wakes the writer, which redials at once if the log holds
// frames to replay.
func (l *link) readAcks(s *session) {
	defer l.t.writers.Done()
	br := bufio.NewReaderSize(s.conn, 32*ackSize)
	buf := make([]byte, ackSize)
	for {
		if _, err := io.ReadFull(br, buf); err != nil || !l.ack(s, binary.BigEndian.Uint64(buf)) {
			break
		}
	}
	s.conn.Close()
	l.mu.Lock()
	if l.sess == s {
		l.sess = nil
		l.cond.Signal()
	}
	l.mu.Unlock()
	close(s.done)
}

// ack applies an acknowledgement read from s: the peer has consumed the
// connection's first `consumed` envelopes, so the log lets go of them and
// their buffers go back to Send. It returns false, and trims nothing, for a
// malformed ack — behind the last one or past what was written — and for
// one from a connection the link has moved on from.
func (l *link) ack(s *session, consumed uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sess != s || consumed < s.acked || consumed > s.written {
		return false
	}
	done := l.log[l.logHead : l.logHead+int(consumed-s.acked)]
	for _, f := range done {
		l.recycleLocked(f.data)
	}
	clear(done)
	l.logHead += len(done)
	s.acked = consumed
	if l.logHead == len(l.log) {
		l.log, l.logHead = l.log[:0], 0
	}
	return true
}

// sleepBackoff waits the current exponential backoff (with jitter),
// returning true if the link closed meanwhile.
func (l *link) sleepBackoff(failures *int) bool {
	d := l.t.cfg.DialBackoff << uint(min(*failures, 20))
	if d > l.t.cfg.DialBackoffMax || d <= 0 {
		d = l.t.cfg.DialBackoffMax
	}
	*failures++
	timer := time.NewTimer(d + time.Duration(l.rng.Int63n(int64(d)/4+1)))
	defer timer.Stop()
	select {
	case <-timer.C:
		return false
	case <-l.done:
		return true
	}
}

// writeBatch writes every frame of a batch through one buffered flush,
// delta-rebasing report frames against the connection's stream bases on the
// way. Every frame travels in its own envelope, tenant-tagged or not. The
// coalescing buffer is reused across flushes; the batch itself (the absolute
// originals) is untouched, so the log always holds frames any fresh
// connection can decode.
func (l *link) writeBatch(conn net.Conn, batch []outFrame) error {
	buf := l.wbuf[:0]
	var hdr [8]byte
	payloadBytes := 0
	for _, of := range batch {
		to := of.dst.id
		f := l.reb.rebase(to, of.data)
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(f)))
		binary.BigEndian.PutUint32(hdr[4:], uint32(to))
		buf = append(buf, hdr[:]...)
		buf = append(buf, f...)
		payloadBytes += len(f)
	}
	l.wbuf = buf
	_, err := conn.Write(buf)
	if err == nil {
		l.t.bytesOut.Add(int64(payloadBytes))
	}
	return err
}
