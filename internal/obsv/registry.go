// Package obsv is the runtime's unified observability layer: a
// dependency-free metrics registry (atomic counters, gauges and histograms,
// optionally labeled, plus scrape-time func-backed families), Prometheus
// text exposition over any io.Writer or http handler, and the typed event
// stream every plane of the detector reports its lifecycle through.
//
// The registry is built for the detector's concurrency model: instruments
// are plain atomics (an Add on a hot path costs one uncontended atomic
// add), families registered with Func are sampled only at scrape time (so
// state that already lives in the runtime's own atomics — per-node
// counters, mailbox depths, wheel lag — is exposed without double
// bookkeeping on the hot path), and every read path is safe concurrently
// with every write path, including while the cluster is being killed,
// repaired or stopped.
package obsv

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's exposition type.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Registry holds metric families. The zero value is not usable; create with
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric: help, type and its labeled series.
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	buckets    []float64 // histograms only, sorted ascending, +Inf implicit

	mu     sync.Mutex
	series map[string]*series

	// collect, when set, makes this a func-backed family: at scrape time it
	// is invoked with an emit callback instead of reading stored series.
	collect func(emit func(value float64, labelValues ...string))
	// collectHist, when set, makes this a func-backed histogram (FuncHistogram).
	collectHist func() (counts []int64, sum float64)
}

// series is one labeled instance of a family. Counters store int64 counts;
// gauges store float64 bits; histograms use the bucket arrays.
type series struct {
	labelValues []string
	count       atomic.Int64  // counters
	gauge       atomic.Uint64 // gauges: math.Float64bits

	// histograms: per-bucket cumulative-at-scrape counts (stored
	// non-cumulative, summed at exposition), observation count and sum.
	bucketCounts []atomic.Int64
	hcount       atomic.Int64
	hsum         atomic.Uint64 // math.Float64bits, CAS-added
}

const seriesKeySep = "\x1f"

// lookup returns (creating if needed) the family name with the given shape,
// panicking on a redefinition with a different shape — mixed types under one
// name would corrupt the exposition.
func (r *Registry) lookup(name, help string, kind Kind, labelNames []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("obsv: metric %q redefined with a different type or label set", name))
		}
		for i := range labelNames {
			if f.labelNames[i] != labelNames[i] {
				panic(fmt.Sprintf("obsv: metric %q redefined with a different label set", name))
			}
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labelNames: append([]string(nil), labelNames...),
		buckets:    append([]float64(nil), buckets...),
	}
	r.families[name] = f
	return f
}

// with returns (creating if needed) the series for the given label values.
func (f *family) with(labelValues []string) *series {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("obsv: metric %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := strings.Join(labelValues, seriesKeySep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labelValues: append([]string(nil), labelValues...)}
	if f.kind == KindHistogram {
		s.bucketCounts = make([]atomic.Int64, len(f.buckets)+1)
	}
	if f.series == nil {
		f.series = make(map[string]*series) // a func-backed family never has one
	}
	f.series[key] = s
	return s
}

// Counter is a monotonically increasing count.
type Counter struct{ s *series }

// Add increments the counter by n (n must be ≥ 0).
func (c *Counter) Add(n int64) { c.s.count.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.s.count.Add(1) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.s.count.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ s *series }

// Set stores v.
func (g *Gauge) Set(v float64) { g.s.gauge.Store(math.Float64bits(v)) }

// Add adds d (negative to subtract) with a CAS loop.
func (g *Gauge) Add(d float64) {
	for {
		old := g.s.gauge.Load()
		if g.s.gauge.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.s.gauge.Load()) }

// Histogram accumulates observations into fixed buckets.
type Histogram struct {
	f *family
	s *series
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.f.buckets, v) // first bucket with bound ≥ v
	h.s.bucketCounts[i].Add(1)
	h.s.hcount.Add(1)
	for {
		old := h.s.hsum.Load()
		if h.s.hsum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 { return h.s.hcount.Load() }

// Sum returns the running sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.s.hsum.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts with
// Prometheus-style linear interpolation inside the target bucket. The first
// bucket interpolates from zero; a rank landing in the +Inf bucket returns
// the largest finite bound (the histogram cannot resolve beyond it). Returns
// NaN when the histogram is empty. The estimate reads the per-bucket atomics
// without a snapshot barrier, so concurrent Observe calls can skew a live
// read by a few observations — the same contract a Prometheus scrape has.
func (h *Histogram) Quantile(q float64) float64 {
	total := int64(0)
	counts := make([]int64, len(h.s.bucketCounts))
	for i := range h.s.bucketCounts {
		counts[i] = h.s.bucketCounts[i].Load()
		total += counts[i]
	}
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	for i, c := range counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.f.buckets) { // +Inf bucket: clamp to last finite bound
			if len(h.f.buckets) == 0 {
				return math.NaN()
			}
			return h.f.buckets[len(h.f.buckets)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.f.buckets[i-1]
		}
		hi := h.f.buckets[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(cum-c)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return h.f.buckets[len(h.f.buckets)-1]
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, KindCounter, nil, nil)
	return &Counter{s: f.with(nil)}
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, KindGauge, nil, nil)
	return &Gauge{s: f.with(nil)}
}

// Histogram registers (or finds) an unlabeled histogram with the given
// ascending bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.lookup(name, help, KindHistogram, nil, buckets)
	return &Histogram{f: f, s: f.with(nil)}
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, KindCounter, labelNames, nil)}
}

// With returns the counter for the given label values (created on first use).
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{s: v.f.with(labelValues)}
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, KindGauge, labelNames, nil)}
}

// With returns the gauge for the given label values (created on first use).
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{s: v.f.with(labelValues)}
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{f: r.lookup(name, help, KindHistogram, labelNames, buckets)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{f: v.f, s: v.f.with(labelValues)}
}

// Func registers a scrape-time family: at every exposition collect is called
// with an emit callback and contributes one sample per emit call. This is how
// state that already lives in the runtime's own atomics (per-node counters,
// queue depths, wheel lag) is exposed without any hot-path double
// bookkeeping. kind must be KindCounter or KindGauge; collect must be safe to
// call from any goroutine at any time.
func (r *Registry) Func(name, help string, kind Kind, labelNames []string, collect func(emit func(value float64, labelValues ...string))) {
	if kind == KindHistogram {
		panic("obsv: func-backed histograms are not supported")
	}
	f := r.lookup(name, help, kind, labelNames, nil)
	f.mu.Lock()
	f.collect = collect
	f.mu.Unlock()
}

// FuncHistogram registers a scrape-time histogram over the given ascending
// bucket bounds: at every exposition collect returns the observations per
// bucket — one count per bound, then the +Inf bucket; not cumulative — and
// their sum. It exposes a histogram the runtime already counts under a lock
// of its own, with no atomic copy on the hot path; collect must be safe to
// call from any goroutine at any time.
func (r *Registry) FuncHistogram(name, help string, buckets []float64, collect func() (counts []int64, sum float64)) {
	f := r.lookup(name, help, KindHistogram, nil, buckets)
	f.mu.Lock()
	f.collectHist = collect
	f.mu.Unlock()
}

// LinearBuckets returns count ascending bounds starting at start, step apart.
func LinearBuckets(start, step float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start + float64(i)*step
	}
	return out
}

// ExponentialBuckets returns count ascending bounds starting at start, each
// factor times the previous.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
