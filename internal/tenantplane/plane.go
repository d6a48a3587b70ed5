package tenantplane

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hierdet/internal/interval"
	"hierdet/internal/livenet"
	"hierdet/internal/obsv"
	"hierdet/internal/transport"
)

// Config parameterizes a Multiplexer — the per-fleet-member state shared by
// every tenant it hosts.
type Config struct {
	// Transport, when set, is the shared message plane: every tenant's
	// cluster sends through it, demultiplexed by wire tenant id. The
	// Multiplexer owns it (Close closes it). Nil means every tenant runs
	// non-distributed in this process.
	Transport transport.Transport
	// LocalNodes is the topology subset this process hosts, shared by all
	// tenants (distributed mode only).
	LocalNodes []int
	// Events receives the plane's lifecycle stream: TenantRegistered and
	// TenantEvicted, LeaseAcquired/LeaseLost from the fleet monitor, and
	// every hosted cluster's own events annotated with Event.Tenant. Same
	// contract as livenet's sink: concurrent calls, keep it quick.
	Events func(obsv.Event)

	// Workers sizes the plane's shared worker pool: one pool drains every
	// tenant's mailbox shards, with deficit-round-robin fairness across
	// tenants, so the plane's steady-state goroutine count is independent of
	// the tenant count. Zero means GOMAXPROCS.
	Workers int

	// Monitor names this process in the active/active monitor fleet and,
	// together with Leases, enables bucket ownership: the plane runs one
	// Monitor competing for leases on the shared table. Empty disables
	// ownership (every Handle reports Owned() == false).
	Monitor string
	// Leases is the fleet's shared lease table (required when Monitor is
	// set). Fleets in one process share the *LeaseTable directly; a
	// multi-process fleet puts the same semantics behind its coordination
	// service.
	Leases *LeaseTable
}

// Spec describes one tenant's predicate: its spanning tree plus the
// per-cluster knobs the tenant wants. It is the cluster configuration a
// standalone cluster takes, so zero values inherit livenet's defaults and
// Spec{Topology: topo} is a complete registration. Three fields belong to
// the plane — Scheduler (its shared pool), Transport (a port on its shared
// transport) and LocalNodes (Config.LocalNodes) — and a spec that sets one is
// refused. Events, when set, receives this tenant's cluster events (annotated
// with Event.Tenant) in addition to the plane-level Config.Events sink.
type Spec = livenet.Config

// Handle is one registered tenant: the live cluster plus its plane identity.
type Handle struct {
	p      *Multiplexer
	name   string
	wire   uint32
	bucket int
	c      *livenet.Cluster

	closeMu sync.Mutex
	closed  bool
	dets    []livenet.Detection
}

// Name returns the tenant id the predicate was registered under.
func (h *Handle) Name() string { return h.name }

// Wire returns the tenant's wire id (its tag on shared-transport frames).
func (h *Handle) Wire() uint32 { return h.wire }

// Bucket returns the ownership bucket the tenant id hashes to.
func (h *Handle) Bucket() int { return h.bucket }

// Cluster exposes the tenant's underlying live cluster — metrics, Kill,
// Drain and the rest of the single-tenant API.
func (h *Handle) Cluster() *livenet.Cluster { return h.c }

// Owned reports whether this plane's monitor currently holds the lease on
// the tenant's bucket — i.e. whether this fleet member owns the tenant.
// Without a monitor it is always false.
func (h *Handle) Owned() bool {
	return h.p.mon != nil && h.p.mon.Owns(h.bucket)
}

// Observe feeds one interval to the tenant's cluster.
func (h *Handle) Observe(p int, iv interval.Interval) { h.c.Observe(p, iv) }

// ObserveBatch feeds a batch of process p's intervals to the tenant's
// cluster.
func (h *Handle) ObserveBatch(p int, ivs []interval.Interval) { h.c.ObserveBatch(p, ivs) }

// Close unregisters the tenant — closes its cluster, frees its wire id and
// emits TenantEvicted — and keeps the tenant's detections readable through
// Detections. Idempotent, never fails; every call returns only once the
// tenant is down. The cluster is exported through Cluster(), so it may
// already have been closed behind the handle's back; that Close then waits
// for the same teardown.
func (h *Handle) Close() error {
	h.closeMu.Lock()
	defer h.closeMu.Unlock()
	if !h.closed {
		h.c.Close()
		h.dets = h.c.Detections()
		h.closed = true
		h.p.forget(h)
	}
	return nil
}

// Detections returns the tenant's final detection list once Close has
// returned; nil before.
func (h *Handle) Detections() []livenet.Detection {
	h.closeMu.Lock()
	defer h.closeMu.Unlock()
	return h.dets
}

// Multiplexer is the per-process face of the tenant plane: one shared
// transport, one monitor-fleet membership, N tenants' clusters.
type Multiplexer struct {
	cfg   Config
	mux   *Mux // nil without a shared transport
	reg   *obsv.Registry
	mon   *Monitor // nil without lease ownership
	sched *livenet.SharedScheduler

	mu      sync.Mutex
	tenants map[string]*Handle
	byWire  map[uint32]string
	closed  bool                           // no registration after Close began
	final   map[string][]livenet.Detection // set once by teardown

	closeOnce sync.Once

	// subs holds the Events subscribers as a copy-on-write slice: emit — the
	// plane-wide fan-out point, on hot worker goroutines — loads it with one
	// atomic read, while Events/cancel rebuild it under subMu.
	subMu sync.Mutex
	subs  atomic.Pointer[[]*eventSub]

	registered *obsv.Counter
	evicted    *obsv.Counter
}

// eventSub is one Events subscription; its identity is the cancel token.
type eventSub struct{ fn func(obsv.Event) }

// NewMultiplexer builds the plane and starts its shared transport (so a
// listen failure is an error here, not a panic inside the first tenant's
// cluster construction) and, when configured, its fleet monitor.
func NewMultiplexer(cfg Config) (*Multiplexer, error) {
	if cfg.Monitor != "" && cfg.Leases == nil {
		return nil, fmt.Errorf("tenantplane: Config.Monitor %q set without Config.Leases", cfg.Monitor)
	}
	p := &Multiplexer{
		cfg:     cfg,
		reg:     obsv.NewRegistry(),
		tenants: make(map[string]*Handle),
		byWire:  make(map[uint32]string),
	}
	// The shared scheduler substrate: one worker pool, one timer wheel and
	// one region per worker for every tenant this plane will host. Its
	// wheel-lag histogram lives in the plane registry from the start, so the
	// first tenant's ticks are already observed.
	wheelLag := p.reg.Histogram("hierdet_plane_wheel_lag_seconds",
		"How far past its deadline each shared-wheel advance ran.",
		obsv.ExponentialBuckets(1e-6, 4, 10))
	p.sched = livenet.NewSharedScheduler(livenet.SharedSchedulerConfig{
		Workers:      cfg.Workers,
		WheelLagSink: wheelLag.Observe,
	})
	if cfg.Transport != nil {
		p.mux = NewMux(cfg.Transport)
		if err := p.mux.Start(); err != nil {
			p.sched.Close()
			return nil, fmt.Errorf("tenantplane: starting shared transport: %w", err)
		}
		if in, ok := cfg.Transport.(interface {
			Instrument(*obsv.Registry, func(obsv.Event))
		}); ok {
			in.Instrument(p.reg, p.emit)
		}
	}
	p.registerFamilies()
	if cfg.Monitor != "" {
		p.mon = NewMonitor(MonitorConfig{
			ID:     cfg.Monitor,
			Table:  cfg.Leases,
			Events: p.emit,
		})
		p.mon.Start()
	}
	return p, nil
}

// Registry returns the plane's metric registry: per-tenant families, lease
// state, shared-transport families and mux drops.
func (p *Multiplexer) Registry() *obsv.Registry { return p.reg }

// Monitor returns the plane's fleet monitor, or nil when ownership is off.
func (p *Multiplexer) Monitor() *Monitor { return p.mon }

// emit forwards a plane-level event to the configured sink and every Events
// subscriber. This is the plane's single fan-out point: every hosted
// cluster's events (tenant-annotated), the monitor's lease events and the
// plane's own registration lifecycle all pass through here.
func (p *Multiplexer) emit(e obsv.Event) {
	if p.cfg.Events != nil {
		p.cfg.Events(e)
	}
	if subs := p.subs.Load(); subs != nil {
		for _, s := range *subs {
			s.fn(e)
		}
	}
}

// Events subscribes sink to the plane's full lifecycle stream — exactly what
// a Config.Events sink set at construction sees: every tenant cluster's
// events annotated with Event.Tenant, TenantRegistered/TenantEvicted, and
// the monitor's LeaseAcquired/LeaseLost — without having had to be present
// at construction. It is the tenant-plane mirror of LiveConfig.Events, and
// the one tap point a recorder needs for either plane. The sink runs on
// runtime goroutines under livenet's sink contract (concurrent calls, keep
// it quick, never tear the plane down from inside it). The returned cancel
// removes the subscription; events already in flight may still arrive while
// cancel returns.
func (p *Multiplexer) Events(sink func(obsv.Event)) (cancel func()) {
	sub := &eventSub{fn: sink}
	p.subMu.Lock()
	old := p.subs.Load()
	var next []*eventSub
	if old != nil {
		next = append(next, *old...)
	}
	next = append(next, sub)
	p.subs.Store(&next)
	p.subMu.Unlock()
	return func() {
		p.subMu.Lock()
		defer p.subMu.Unlock()
		cur := p.subs.Load()
		if cur == nil {
			return
		}
		rebuilt := make([]*eventSub, 0, len(*cur))
		for _, s := range *cur {
			if s != sub {
				rebuilt = append(rebuilt, s)
			}
		}
		p.subs.Store(&rebuilt)
	}
}

// RegisterPredicate instantiates a detection tree for the tenant over the
// shared fleet and returns its handle. The tenant id must be unique on this
// plane, and its wire id (WireID) must not collide with a registered
// tenant's. A refused registration reserves nothing.
func (p *Multiplexer) RegisterPredicate(tenantID string, spec Spec) (*Handle, error) {
	if err := p.checkSpec(tenantID, spec); err != nil {
		return nil, err
	}
	wid := WireID(tenantID)

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("tenantplane: multiplexer is closed")
	}
	if _, dup := p.tenants[tenantID]; dup {
		p.mu.Unlock()
		return nil, fmt.Errorf("tenantplane: tenant %q already registered", tenantID)
	}
	if other, dup := p.byWire[wid]; dup {
		p.mu.Unlock()
		return nil, fmt.Errorf("tenantplane: tenant %q wire id %d collides with tenant %q", tenantID, wid, other)
	}
	// Reserve both names before building the cluster so a concurrent
	// registration cannot race the same wire id.
	h := &Handle{p: p, name: tenantID, wire: wid, bucket: BucketOf(tenantID)}
	p.tenants[tenantID] = h
	p.byWire[wid] = tenantID
	p.mu.Unlock()

	cfg := spec
	cfg.Scheduler = p.sched
	cfg.LocalNodes = p.cfg.LocalNodes
	if p.mux != nil {
		port, err := p.mux.Port(wid)
		if err != nil {
			p.forget(h)
			return nil, err
		}
		cfg.Transport = port
	}
	cfg.Events = func(e obsv.Event) {
		e.Tenant = tenantID
		if spec.Events != nil {
			spec.Events(e)
		}
		p.emit(e)
	}
	c, err := livenet.Open(cfg)
	if err != nil {
		if cfg.Transport != nil {
			cfg.Transport.Close() // a port never started: gives the wire id back
		}
		p.forget(h)
		return nil, fmt.Errorf("tenantplane: tenant %q: %w", tenantID, err)
	}
	h.c = c

	p.registered.Inc()
	p.emit(obsv.Event{
		Kind: obsv.TenantRegistered, Tenant: tenantID, Node: h.bucket,
		Peer: obsv.NoPeer, Count: 1, Monitor: p.ownerOf(h.bucket),
	})
	return h, nil
}

// checkSpec refuses, before anything is reserved, a spec without a topology
// or that sets a field the plane fills in; livenet.Open judges the rest.
func (p *Multiplexer) checkSpec(tenantID string, spec Spec) error {
	switch {
	case tenantID == "":
		return fmt.Errorf("tenantplane: empty tenant id")
	case spec.Topology == nil:
		return fmt.Errorf("tenantplane: tenant %q: Spec.Topology is required", tenantID)
	case spec.Scheduler != nil:
		return fmt.Errorf("tenantplane: tenant %q: Spec.Scheduler is the plane's shared pool; leave it nil", tenantID)
	case spec.Transport != nil:
		return fmt.Errorf("tenantplane: tenant %q: Spec.Transport is a port on the plane's transport; leave it nil", tenantID)
	case spec.LocalNodes != nil:
		return fmt.Errorf("tenantplane: tenant %q: Spec.LocalNodes is the plane's Config.LocalNodes; leave it nil", tenantID)
	}
	return nil
}

// ownerOf returns the bucket's current lease holder, if ownership is on.
func (p *Multiplexer) ownerOf(bucket int) string {
	if p.cfg.Leases == nil {
		return ""
	}
	return p.cfg.Leases.Owner(bucket)
}

// Tenant returns the handle registered under tenantID, or nil.
func (p *Multiplexer) Tenant(tenantID string) *Handle {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tenants[tenantID]
}

// Tenants returns the registered tenant ids, sorted.
func (p *Multiplexer) Tenants() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.tenants))
	for name := range p.tenants {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// forget removes a closed tenant from the plane's maps and emits
// TenantEvicted. The handle's cluster is already closed (its mux port
// closed with it).
func (p *Multiplexer) forget(h *Handle) {
	p.mu.Lock()
	evict := p.tenants[h.name] == h
	if evict {
		delete(p.tenants, h.name)
		delete(p.byWire, h.wire)
	}
	p.mu.Unlock()
	if evict && h.c != nil {
		p.evicted.Inc()
		p.emit(obsv.Event{
			Kind: obsv.TenantEvicted, Tenant: h.name, Node: h.bucket,
			Peer: obsv.NoPeer, Count: 1, Monitor: p.ownerOf(h.bucket),
		})
	}
}

// Close closes every remaining tenant, then the monitor and the shared
// transport, and keeps each of those tenants' detections readable through
// Detections. Idempotent, never fails (the error return matches the package
// family's lifecycle signature, see livenet.Cluster.Close): the teardown runs
// once and every call returns only after it has finished. A closed plane
// never reopens.
func (p *Multiplexer) Close() error {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		handles := p.snapshot()
		out := make(map[string][]livenet.Detection, len(handles))
		for _, h := range handles {
			h.Close()
			out[h.name] = h.Detections()
		}
		p.teardown(out)
	})
	return nil
}

// Detections returns the final detections of every tenant Close closed, keyed
// by tenant id, once Close has returned; nil before.
func (p *Multiplexer) Detections() map[string][]livenet.Detection {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.final
}

// teardown dismantles the shared planes after every tenant has closed and
// publishes the final detections.
func (p *Multiplexer) teardown(out map[string][]livenet.Detection) {
	if p.mon != nil {
		p.mon.Stop()
	}
	if p.mux != nil {
		p.mux.Close()
	} else if p.cfg.Transport != nil {
		p.cfg.Transport.Close()
	}
	// Every tenant cluster has stopped and detached, so the substrate's
	// wheel and pools are idle and can come down last.
	p.sched.Close()
	p.mu.Lock()
	p.final = out
	p.mu.Unlock()
}

// snapshot returns the live handles, sorted by tenant id, for scrapes.
func (p *Multiplexer) snapshot() []*Handle {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Handle, 0, len(p.tenants))
	for _, h := range p.tenants {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// registerFamilies wires the plane's metric families: tenant counts, a
// per-tenant breakdown of the headline cluster counters, lease-ownership
// state and the mux's drop counter.
func (p *Multiplexer) registerFamilies() {
	p.registered = p.reg.Counter("hierdet_tenants_registered_total",
		"Predicates registered on this plane since start.")
	p.evicted = p.reg.Counter("hierdet_tenants_evicted_total",
		"Tenants evicted (stopped and unregistered) since start.")
	p.reg.Func("hierdet_tenants", "Tenants currently registered.",
		obsv.KindGauge, nil, func(emit func(float64, ...string)) {
			p.mu.Lock()
			n := len(p.tenants)
			p.mu.Unlock()
			emit(float64(n))
		})

	// Scheduler-plane families: the shared substrate every tenant rides.
	// (Its wheel-lag histogram is registered in NewMultiplexer, before the
	// substrate starts.)
	p.reg.Func("hierdet_plane_workers", "Size of the shared worker pool draining every tenant's mailbox shards.",
		obsv.KindGauge, nil, func(emit func(float64, ...string)) {
			emit(float64(p.sched.Workers()))
		})
	p.reg.Func("hierdet_plane_busy_workers", "Shared workers currently draining a tenant's shard.",
		obsv.KindGauge, nil, func(emit func(float64, ...string)) {
			emit(float64(p.sched.Busy()))
		})
	p.reg.Func("hierdet_plane_wheel_entries", "Live entries on the shared timer wheel, across all tenants.",
		obsv.KindGauge, nil, func(emit func(float64, ...string)) {
			emit(float64(p.sched.WheelEntries()))
		})
	p.reg.Func("hierdet_plane_wheel_ticks_total", "Shared timer wheel slots expired (occupied ones; empty slots are slept or stepped over).",
		obsv.KindCounter, nil, func(emit func(float64, ...string)) {
			emit(float64(p.sched.WheelTicks()))
		})

	perTenant := []struct {
		name, help string
		get        func(livenet.ClusterMetrics) float64
	}{
		{"hierdet_tenant_detections_total", "Solution sets found, by tenant.",
			func(m livenet.ClusterMetrics) float64 { return float64(m.Detections) }},
		{"hierdet_tenant_intervals_in_total", "Intervals observed, by tenant.",
			func(m livenet.ClusterMetrics) float64 { return float64(m.IntervalsIn) }},
		{"hierdet_tenant_msgs_in_total", "Messages delivered, by tenant.",
			func(m livenet.ClusterMetrics) float64 { return float64(m.MsgsIn) }},
		{"hierdet_tenant_msgs_out_total", "Messages sent, by tenant.",
			func(m livenet.ClusterMetrics) float64 { return float64(m.MsgsOut) }},
		{"hierdet_tenant_repairs_total", "Reattachments concluded, by tenant.",
			func(m livenet.ClusterMetrics) float64 { return float64(m.Repairs) }},
	}
	p.reg.Func("hierdet_tenant_mailbox_high_water", "Deepest mailbox shard seen since start, by tenant.",
		obsv.KindGauge, []string{"tenant"}, func(emit func(float64, ...string)) {
			for _, h := range p.snapshot() {
				emit(float64(h.c.ClusterMetrics().MailboxHighWater), h.name)
			}
		})
	for _, fam := range perTenant {
		get := fam.get
		p.reg.Func(fam.name, fam.help, obsv.KindCounter, []string{"tenant"},
			func(emit func(float64, ...string)) {
				for _, h := range p.snapshot() {
					emit(get(h.c.ClusterMetrics()), h.name)
				}
			})
	}
	p.reg.Func("hierdet_tenant_owned", "Whether this plane's monitor owns the tenant's bucket, by tenant.",
		obsv.KindGauge, []string{"tenant"}, func(emit func(float64, ...string)) {
			for _, h := range p.snapshot() {
				v := 0.0
				if h.Owned() {
					v = 1
				}
				emit(v, h.name)
			}
		})

	if p.cfg.Monitor != "" {
		p.reg.Func("hierdet_lease_buckets_owned", "Ownership buckets this monitor holds leases on.",
			obsv.KindGauge, []string{"monitor"}, func(emit func(float64, ...string)) {
				if p.mon != nil {
					emit(float64(len(p.mon.Owned())), p.cfg.Monitor)
				}
			})
		p.reg.Func("hierdet_lease_monitors_live", "Monitors with a current liveness record in the fleet.",
			obsv.KindGauge, nil, func(emit func(float64, ...string)) {
				emit(float64(len(p.cfg.Leases.Live())))
			})
	}
	if p.mux != nil {
		p.reg.Func("hierdet_mux_dropped_total", "Inbound frames dropped by the tenant mux (unknown or undecodable tenant).",
			obsv.KindCounter, nil, func(emit func(float64, ...string)) {
				emit(float64(p.mux.Dropped()))
			})
	}
}
