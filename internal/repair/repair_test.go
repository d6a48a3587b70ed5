package repair

import (
	"reflect"
	"testing"

	"hierdet/internal/interval"
	"hierdet/internal/vclock"
)

// --- Resequencer ---

func rep(seq int) Report {
	lo, hi := vclock.New(1), vclock.New(1)
	return Report{Iv: interval.New(0, seq, lo, hi), LinkSeq: seq}
}

func seqs(rs []Report) []int {
	out := []int{}
	for _, r := range rs {
		out = append(out, r.LinkSeq)
	}
	return out
}

func TestResequencerOrdersAndFillsGaps(t *testing.T) {
	q := NewResequencer[Report]()
	if got := seqs(q.Accept(rep(2))); len(got) != 0 {
		t.Fatalf("early 2 delivered %v", got)
	}
	if got := seqs(q.Accept(rep(0))); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("0 delivered %v", got)
	}
	if got := seqs(q.Accept(rep(1))); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("1 delivered %v, want [1 2]", got)
	}
	if q.Buffered() != 0 {
		t.Fatalf("buffered = %d", q.Buffered())
	}
}

func TestResequencerDropsDuplicates(t *testing.T) {
	q := NewResequencer[Report]()
	// Duplicate of a buffered (not yet delivered) report: seq >= next.
	q.Accept(rep(1))
	if got := seqs(q.Accept(rep(1))); len(got) != 0 {
		t.Fatalf("buffered duplicate delivered %v", got)
	}
	if q.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", q.Dropped())
	}
	// Filling the gap delivers each seq exactly once.
	if got := seqs(q.Accept(rep(0))); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("delivered %v, want [0 1]", got)
	}
	// Duplicate below the frontier.
	if got := seqs(q.Accept(rep(1))); len(got) != 0 {
		t.Fatalf("late duplicate delivered %v", got)
	}
	if q.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", q.Dropped())
	}
}

// TestResequencerRedeliveryStream hammers a random redelivery pattern and
// asserts the delivered stream is exactly 0..n-1, duplicate-free, in order.
func TestResequencerRedeliveryStream(t *testing.T) {
	q := NewResequencer[Report]()
	// Every seq delivered twice, second copies interleaved out of order.
	arrivals := []int{1, 1, 0, 0, 3, 2, 3, 2, 4, 4, 1, 0}
	var delivered []int
	for _, s := range arrivals {
		delivered = append(delivered, seqs(q.Accept(rep(s)))...)
	}
	if !reflect.DeepEqual(delivered, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("delivered %v, want [0 1 2 3 4]", delivered)
	}
}

// --- Epochs ---

func TestEpochsStampAndBump(t *testing.T) {
	e := NewEpochs()
	if e.Stamp() != 0 {
		t.Fatal("fresh tracker should stamp epoch 0")
	}
	e.Bump()
	e.Bump() // coalesces
	if e.Stamp() != 1 {
		t.Fatal("one reconfiguration burst should advance the epoch once")
	}
	if e.Stamp() != 1 {
		t.Fatal("stamp must be stable between reconfigurations")
	}
}

func TestEpochsObserve(t *testing.T) {
	e := NewEpochs()
	if e.Observe(7, 0) {
		t.Fatal("first report from a source is the baseline, not a restart")
	}
	if e.Observe(7, 0) {
		t.Fatal("same epoch is not a restart")
	}
	if !e.Observe(7, 1) {
		t.Fatal("epoch advance must report a restart")
	}
	// The restart bumps this node's own output epoch.
	if e.Stamp() != 1 {
		t.Fatal("observed restart must cascade into the output epoch")
	}
	e.Forget(7)
	if e.Observe(7, 5) {
		t.Fatal("after Forget the next epoch is a fresh baseline")
	}
}

// --- Seeker/Adopter over an in-memory host ---

// memNet wires Seekers and Adopters of a toy node set directly to each
// other, recording timer requests instead of scheduling them, so tests
// single-step the protocol deterministically.
type memNet struct {
	t     *testing.T
	nodes map[int]*memNode
	reqID int
}

type memNode struct {
	net     *memNet
	id      int
	seeker  *Seeker
	adopter *Adopter

	parent      int // -1 = root
	children    map[int]bool
	candidates  []int
	covered     []int
	timeouts    []int // armed reqIDs, in order
	backoffs    []int
	attached    []int // granters successfully attached to
	partitioned bool
	cycleWith   map[int]bool // granters TryAttach must refuse
	rootSeeking bool
}

func newMemNet(t *testing.T, ids ...int) *memNet {
	n := &memNet{t: t, nodes: make(map[int]*memNode)}
	for _, id := range ids {
		mn := &memNode{net: n, id: id, parent: -1, children: make(map[int]bool), cycleWith: make(map[int]bool)}
		mn.seeker = NewSeeker(id, mn)
		mn.adopter = NewAdopter(id, mn)
		n.nodes[id] = mn
	}
	return n
}

func (m *memNode) Candidates() []int { return m.candidates }
func (m *memNode) Covered() []int    { return m.covered }
func (m *memNode) NextReqID() int    { m.net.reqID++; return m.net.reqID }
func (m *memNode) ArmTimeout(reqID int) {
	m.timeouts = append(m.timeouts, reqID)
}
func (m *memNode) ArmBackoff(round int) {
	m.backoffs = append(m.backoffs, round)
}
func (m *memNode) TryAttach(granter int) bool {
	if m.cycleWith[granter] {
		return false
	}
	m.parent = granter
	return true
}
func (m *memNode) Attached(granter int)     { m.attached = append(m.attached, granter) }
func (m *memNode) Partitioned()             { m.partitioned = true }
func (m *memNode) HasSource(child int) bool { return m.children[child] }
func (m *memNode) Adopt(child int, _ []int) { m.children[child] = true }
func (m *memNode) Unadopt(child int)        { delete(m.children, child) }

// Send delivers synchronously — the protocol must tolerate that degenerate
// (zero-delay, FIFO) schedule too.
func (m *memNode) Send(to int, msg Msg) {
	dst := m.net.nodes[to]
	if dst == nil {
		return
	}
	switch msg.Type {
	case Req:
		dst.adopter.OnRequest(m.id, msg, dst.seeker.Seeking(), dst.rootSeeking)
	case Grant:
		dst.seeker.OnGrant(m.id, msg)
	case Confirm:
		dst.adopter.OnConfirm(msg)
	case Abort:
		dst.adopter.OnAbort(msg)
	}
}

func TestSeekerAdoptsFirstWillingCandidate(t *testing.T) {
	net := newMemNet(t, 1, 2)
	s, c := net.nodes[1], net.nodes[2]
	s.candidates = []int{2}
	s.covered = []int{1}
	s.seeker.Start()
	if s.parent != 2 || len(s.attached) != 1 {
		t.Fatalf("seeker did not attach: parent=%d attached=%v", s.parent, s.attached)
	}
	if !c.children[1] {
		t.Fatal("candidate did not keep the adopted child")
	}
	if c.adopter.Reserved() != 0 {
		t.Fatal("confirm must clear the reservation")
	}
	if s.seeker.Seeking() {
		t.Fatal("seeker still seeking after adoption")
	}
}

func TestCandidateInsideCoveredSetRefuses(t *testing.T) {
	net := newMemNet(t, 1, 2)
	s, c := net.nodes[1], net.nodes[2]
	s.candidates = []int{2}
	s.covered = []int{1, 2} // candidate is in the seeker's own subtree
	s.seeker.Start()
	if s.parent != -1 || c.children[1] {
		t.Fatal("covered candidate must reject by silence")
	}
	if len(s.timeouts) != 1 {
		t.Fatalf("timeouts armed = %v, want one", s.timeouts)
	}
	// The timeout advances the seeker; the list is exhausted → backoff.
	s.seeker.OnTimeout(s.timeouts[0])
	if len(s.backoffs) != 1 {
		t.Fatalf("backoffs = %v, want one", s.backoffs)
	}
}

func TestSeekerPartitionsAfterMaxRounds(t *testing.T) {
	net := newMemNet(t, 1)
	s := net.nodes[1]
	s.candidates = nil // nobody to ask
	s.seeker.Start()
	for i := 0; !s.partitioned; i++ {
		if i > 2*MaxSeekRounds {
			t.Fatal("seeker never partitioned")
		}
		if len(s.backoffs) == 0 {
			t.Fatal("no backoff armed while not partitioned")
		}
		round := s.backoffs[len(s.backoffs)-1]
		s.seeker.OnBackoff(round)
	}
	if s.seeker.Seeking() {
		t.Fatal("partitioned seeker still seeking")
	}
}

func TestSimultaneousSeekersSmallestAnchors(t *testing.T) {
	net := newMemNet(t, 1, 2)
	a, b := net.nodes[1], net.nodes[2]
	a.candidates, a.covered = []int{2}, []int{1}
	b.candidates, b.covered = []int{1}, []int{2}
	// Both orphans seek: mark both seeking before any request lands by
	// starting with empty candidate lists... instead, start b first so its
	// request reaches a while a is idle, then start a.
	// To model *simultaneous* seeking, force both into seeking state:
	a.seeker.Start() // a asks 2: b not yet seeking, b adopts a? No — start order matters.
	// a attached under b already (b was idle). Reset and do the real check:
	// a seeking, then b seeking, then b's request hits a.
	net = newMemNet(t, 1, 2)
	a, b = net.nodes[1], net.nodes[2]
	a.candidates, a.covered = []int{9}, []int{1} // 9 does not exist: a stays seeking
	b.candidates, b.covered = []int{1}, []int{2}
	a.seeker.Start()
	if !a.seeker.Seeking() {
		t.Fatal("a should be stuck seeking")
	}
	b.seeker.Start() // b asks a; a seeking with smaller id ⇒ a adopts b
	if b.parent != 1 {
		t.Fatalf("b.parent = %d, want 1 (smallest orphan anchors)", b.parent)
	}
	// Mirror case: the larger-id seeker must refuse.
	net = newMemNet(t, 1, 2)
	a, b = net.nodes[1], net.nodes[2]
	a.candidates, a.covered = []int{2}, []int{1}
	b.candidates, b.covered = []int{9}, []int{2}
	b.seeker.Start()
	a.seeker.Start() // a asks b; b seeking with larger id ⇒ silence
	if a.parent != -1 {
		t.Fatalf("a attached under %d; larger-id seeker must refuse", a.parent)
	}
}

func TestRootSeekingCandidateRefuses(t *testing.T) {
	net := newMemNet(t, 1, 2)
	s, c := net.nodes[1], net.nodes[2]
	s.candidates, s.covered = []int{2}, []int{1}
	c.rootSeeking = true
	s.seeker.Start()
	if s.parent != -1 || c.children[1] {
		t.Fatal("candidate in a dangling tree must refuse")
	}
}

func TestStaleGrantAborted(t *testing.T) {
	net := newMemNet(t, 1, 2)
	s, c := net.nodes[1], net.nodes[2]
	c.adopter.OnRequest(1, Msg{Type: Req, ReqID: 42, Covered: []int{1}}, false, false)
	// The grant was sent synchronously to node 1, whose seeker is idle — a
	// stale grant. It must have been answered with an abort that released
	// the reservation.
	if c.adopter.Reserved() != 0 {
		t.Fatal("stale grant's reservation not released")
	}
	if c.children[1] {
		t.Fatal("aborted adoption left the child queue behind")
	}
	_ = s
}

func TestAbortOvertakesRequest(t *testing.T) {
	net := newMemNet(t, 1, 2)
	c := net.nodes[2]
	c.adopter.OnAbort(Msg{Type: Abort, ReqID: 7})
	c.adopter.OnRequest(1, Msg{Type: Req, ReqID: 7, Covered: []int{1}}, false, false)
	if c.children[1] || c.adopter.Reserved() != 0 {
		t.Fatal("request whose abort overtook it must be rejected")
	}
}

func TestCycleValidationAbortsAndMovesOn(t *testing.T) {
	net := newMemNet(t, 1, 2, 3)
	s := net.nodes[1]
	s.candidates, s.covered = []int{2, 3}, []int{1}
	s.cycleWith[2] = true // the mirror says attaching under 2 would cycle
	s.seeker.Start()
	if s.parent != 3 {
		t.Fatalf("seeker attached under %d, want 3 after aborting the cyclic grant", s.parent)
	}
	if net.nodes[2].children[1] {
		t.Fatal("aborted granter kept the child queue")
	}
	if !net.nodes[3].children[1] {
		t.Fatal("second candidate lost the child queue")
	}
}
