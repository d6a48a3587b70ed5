package tenantplane

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hierdet/internal/transport"
	"hierdet/internal/wire"
)

// Mux multiplexes many tenants' detection traffic over one shared
// transport.Transport. Each tenant gets a virtual transport (Port) that the
// tenant's cluster uses exactly like a private one; on the way out the port
// stamps the tenant's wire id onto every frame — reports are tagged inline
// (so per-tenant delta chaining in tcptransport stays intact), everything
// else rides in a tenant envelope — and on the way in the mux routes each
// frame to the port its tag names. Tenant 0 is the compatibility lane: its
// frames travel bare, byte-identical to single-tenant traffic, and bare
// inbound frames route to it.
type Mux struct {
	inner transport.Transport

	mu      sync.RWMutex
	started bool
	closed  bool
	ports   map[uint32]*muxPort // wire tenant id → registered port

	dropped atomic.Uint64 // inbound frames with no registered port, or undecodable tags
}

// NewMux wraps inner. The caller hands ownership of inner to the mux: Close
// closes it, and nothing else may Start or Send on it.
func NewMux(inner transport.Transport) *Mux {
	if inner == nil {
		panic("tenantplane: NewMux requires a transport")
	}
	return &Mux{inner: inner, ports: make(map[uint32]*muxPort)}
}

// Start begins delivery on the shared transport. It is idempotent and may
// also happen implicitly when the first port starts; a Multiplexer calls it
// eagerly so a listen failure surfaces at NewMultiplexer, not at a tenant's
// registration.
func (m *Mux) Start() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.startLocked()
}

func (m *Mux) startLocked() error {
	if m.started {
		return nil
	}
	if m.closed {
		return fmt.Errorf("tenantplane: mux is closed")
	}
	if err := m.inner.Start(m.route); err != nil {
		return err
	}
	m.started = true
	return nil
}

// Close tears down the shared transport. Ports become no-ops.
func (m *Mux) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	return m.inner.Close()
}

// Dropped returns the number of inbound frames discarded because no port was
// registered for their tenant (or their tenant tag failed to decode).
func (m *Mux) Dropped() uint64 { return m.dropped.Load() }

// Port returns the virtual transport for the given wire tenant id. Each id
// can be claimed once at a time; the port frees the id again on Close.
func (m *Mux) Port(tenant uint32) (transport.Transport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("tenantplane: mux is closed")
	}
	if _, dup := m.ports[tenant]; dup {
		return nil, fmt.Errorf("tenantplane: wire tenant id %d already claimed", tenant)
	}
	p := &muxPort{m: m, tenant: tenant}
	m.ports[tenant] = p
	return p, nil
}

// route is the shared transport's receive callback: classify the frame's
// tenant and hand it to that tenant's port.
func (m *Mux) route(to int, frame []byte) {
	var tenant uint32
	switch {
	case wire.IsTenantEnvelope(frame):
		tn, inner, err := wire.DecodeTenantEnvelope(frame)
		if err != nil {
			m.dropped.Add(1)
			return
		}
		tenant, frame = tn, inner
	case wire.IsReportV2(frame):
		// Tagged reports route by their tag but are delivered as-is: the
		// receiving cluster's decoder reads through the tenant field.
		tn, err := wire.ReportTenantV2(frame)
		if err != nil {
			m.dropped.Add(1)
			return
		}
		tenant = tn
	default:
		// v1 frames and batch frames arrive enveloped when tagged; bare
		// ones belong to the default tenant.
	}
	m.mu.RLock()
	p := m.ports[tenant]
	m.mu.RUnlock()
	if p == nil {
		m.dropped.Add(1)
		return
	}
	p.deliver(to, frame)
}

// muxPort is one tenant's view of the shared transport. It satisfies
// transport.Transport so a livenet.Cluster can use it unchanged.
type muxPort struct {
	m      *Mux
	tenant uint32

	mu     sync.RWMutex
	recv   func(to int, frame []byte)
	closed bool
}

// Start registers the tenant's receive callback and makes sure the shared
// transport is running. Per the transport contract it is called once.
func (p *muxPort) Start(recv func(to int, frame []byte)) error {
	p.m.mu.Lock()
	if err := p.m.startLocked(); err != nil {
		p.m.mu.Unlock()
		return err
	}
	p.m.mu.Unlock()
	p.mu.Lock()
	p.recv = recv
	p.mu.Unlock()
	return nil
}

// deliver hands an inbound frame to the tenant's cluster. The frame may
// alias the shared transport's buffer; the cluster's onFrame decodes
// synchronously without retaining it, which is the same contract the shared
// transport already imposes on its own callback.
func (p *muxPort) deliver(to int, frame []byte) {
	p.mu.RLock()
	recv := p.recv
	p.mu.RUnlock()
	if recv == nil {
		p.m.dropped.Add(1)
		return
	}
	recv(to, frame)
}

// Send stamps the tenant onto the frame and ships it through the shared
// transport. Tenant 0 frames pass through byte-identical.
func (p *muxPort) Send(to int, frame []byte) {
	p.mu.RLock()
	closed := p.closed
	p.mu.RUnlock()
	if closed {
		return
	}
	if p.tenant == 0 {
		p.m.inner.Send(to, frame)
		return
	}
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	if wire.IsReportV2(frame) {
		tagged, err := wire.TagReportTenant((*buf)[:0], p.tenant, frame)
		if err != nil {
			// Already tagged (a cluster never produces these) — drop
			// rather than double-tag.
			return
		}
		*buf = tagged
	} else {
		*buf = wire.AppendTenantEnvelope((*buf)[:0], p.tenant, frame)
	}
	p.m.inner.Send(to, *buf)
}

// Close detaches the tenant from the mux. The shared transport stays up for
// the other tenants; Mux.Close owns its teardown.
func (p *muxPort) Close() error {
	p.mu.Lock()
	p.closed = true
	p.recv = nil
	p.mu.Unlock()
	p.m.mu.Lock()
	if p.m.ports[p.tenant] == p {
		delete(p.m.ports, p.tenant)
	}
	p.m.mu.Unlock()
	return nil
}
