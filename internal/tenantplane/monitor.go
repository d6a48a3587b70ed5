package tenantplane

import (
	"sync"
	"time"

	"hierdet/internal/obsv"
)

// MonitorConfig parameterizes one fleet monitor.
type MonitorConfig struct {
	// ID names this monitor in the lease table (required, unique per fleet).
	ID string
	// Table is the fleet's shared lease table (required).
	Table *LeaseTable
	// Events receives LeaseAcquired/LeaseLost (Monitor = ID, Node = bucket).
	Events func(obsv.Event)
}

// Monitor is one member of the active/active fleet: it keeps its liveness
// record fresh and steers its bucket holdings toward the fleet's fair share
// — acquiring unheld and expired buckets, shedding surplus when new monitors
// join. Drive it manually with Tick (deterministic tests) or let Start run
// it on a background goroutine.
type Monitor struct {
	cfg MonitorConfig

	mu     sync.Mutex
	owned  [BucketCount]bool
	nOwned int

	startOnce, stopOnce sync.Once
	stop, done          chan struct{}
}

// NewMonitor builds a monitor. It holds nothing until the first Tick.
func NewMonitor(cfg MonitorConfig) *Monitor {
	if cfg.ID == "" {
		panic("tenantplane: MonitorConfig.ID is required")
	}
	if cfg.Table == nil {
		panic("tenantplane: MonitorConfig.Table is required")
	}
	return &Monitor{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
}

// ID returns the monitor's fleet name.
func (m *Monitor) ID() string { return m.cfg.ID }

// Owns reports whether this monitor currently holds bucket's lease.
func (m *Monitor) Owns(bucket int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.owned[bucket]
}

// Owned returns the buckets this monitor holds, ascending.
func (m *Monitor) Owned() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, 0, m.nOwned)
	for b, own := range m.owned {
		if own {
			out = append(out, b)
		}
	}
	return out
}

// Tick runs one renewal-and-rebalance sweep: beat, reconcile holdings the
// table no longer agrees with (a peer took an expired lease), acquire
// toward the fair share from the unheld/expired buckets, shed surplus above
// it. Scanning bucket order is deterministic — acquisition walks up from 0,
// shedding walks down from 255 — so a fleet converges to a stable partition
// instead of thrashing.
func (m *Monitor) Tick() {
	t := m.cfg.Table
	t.Beat(m.cfg.ID)
	live := len(t.Live())
	fair := (BucketCount + live - 1) / live // live ≥ 1: we just beat

	m.mu.Lock()
	defer m.mu.Unlock()
	for b := 0; b < BucketCount; b++ {
		if m.owned[b] && t.Owner(b) != m.cfg.ID {
			m.dropLocked(b)
		}
	}
	for b := 0; b < BucketCount && m.nOwned < fair; b++ {
		if !m.owned[b] && t.Owner(b) == "" && t.Acquire(b, m.cfg.ID) {
			m.owned[b] = true
			m.nOwned++
			m.notifyLocked(b, true)
		}
	}
	for b := BucketCount - 1; b >= 0 && m.nOwned > fair; b-- {
		if m.owned[b] {
			t.Release(b, m.cfg.ID)
			m.dropLocked(b)
		}
	}
}

// dropLocked records the loss of a bucket and notifies. Caller holds mu.
func (m *Monitor) dropLocked(b int) {
	m.owned[b] = false
	m.nOwned--
	m.notifyLocked(b, false)
}

// notifyLocked emits the lease event. It runs under mu, so the event stream
// is ordered with the owned set Owns reads.
func (m *Monitor) notifyLocked(b int, acquired bool) {
	kind := obsv.LeaseLost
	if acquired {
		kind = obsv.LeaseAcquired
	}
	if m.cfg.Events != nil {
		m.cfg.Events(obsv.Event{Kind: kind, Node: b, Peer: obsv.NoPeer, Count: 1, Monitor: m.cfg.ID})
	}
}

// Start runs Tick on a background goroutine every quarter of the table's TTL
// until Stop: several renewals fit inside one TTL, so a single missed tick
// cannot expire a healthy monitor, and an expired peer's buckets are picked
// up within one TTL. The first tick runs immediately, so a freshly started
// monitor joins the fleet without waiting a period.
func (m *Monitor) Start() {
	m.startOnce.Do(func() {
		go func() {
			defer close(m.done)
			ticker := time.NewTicker(m.cfg.Table.TTL() / 4)
			defer ticker.Stop()
			m.Tick()
			for {
				select {
				case <-m.stop:
					return
				case <-ticker.C:
					m.Tick()
				}
			}
		}()
	})
}

// Stop ends the background goroutine (if Start ran), releases every held
// bucket and retires the liveness record, so the rest of the fleet re-owns
// the buckets on its next tick instead of waiting out the TTL.
func (m *Monitor) Stop() {
	m.stopOnce.Do(func() {
		close(m.stop)
		m.startOnce.Do(func() { close(m.done) }) // never started: nothing to wait for
		<-m.done
		m.mu.Lock()
		for b := 0; b < BucketCount; b++ {
			if m.owned[b] {
				m.cfg.Table.Release(b, m.cfg.ID)
				m.dropLocked(b)
			}
		}
		m.mu.Unlock()
		m.cfg.Table.Retire(m.cfg.ID)
	})
}
