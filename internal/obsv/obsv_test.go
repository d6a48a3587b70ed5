package obsv

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	// Re-registering the same name returns the same series.
	if got := r.Counter("c_total", "a counter").Value(); got != 42 {
		t.Fatalf("re-registered counter = %d, want 42", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestVecSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("msgs_total", "by direction", "node", "dir")
	v.With("3", "in").Add(5)
	v.With("3", "out").Add(7)
	v.With("4", "in").Add(1)
	if got := v.With("3", "in").Value(); got != 5 {
		t.Fatalf(`series {3,in} = %d, want 5`, got)
	}
	if got := v.With("3", "out").Value(); got != 7 {
		t.Fatalf(`series {3,out} = %d, want 7`, got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lat_bucket{le="1"} 2`,  // 0.5 and 1 (le is inclusive)
		`lat_bucket{le="5"} 3`,  // + 3
		`lat_bucket{le="10"} 4`, // + 7
		`lat_bucket{le="+Inf"} 5`,
		`lat_sum 111.5`,
		`lat_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestFuncHistogramMatchesHistogram: a histogram whose counts come from a
// collect function is exposed exactly like a stored one with the same
// observations.
func TestFuncHistogramMatchesHistogram(t *testing.T) {
	bounds := []float64{1, 5, 10}
	stored, fn := NewRegistry(), NewRegistry()
	h := stored.Histogram("lat", "latency", bounds)
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	fn.FuncHistogram("lat", "latency", bounds, func() ([]int64, float64) {
		return []int64{2, 1, 1, 1}, 111.5
	})
	var want, got strings.Builder
	if err := stored.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if err := fn.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("func-backed exposition:\n%s\nwant, as stored:\n%s", got.String(), want.String())
	}
}

func TestRedefinitionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("redefining x as a gauge did not panic")
		}
	}()
	r.Gauge("x", "second")
}

func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "help with \\ backslash\nand newline").Add(3)
	v := r.GaugeVec("a_gauge", "labeled", "node")
	v.With("1").Set(0.25)
	v.With(`we"ird`).Set(math.Inf(1))
	r.Func("z_func", "func backed", KindGauge, []string{"shard"}, func(emit func(float64, ...string)) {
		emit(9, "s1")
		emit(4, "s0")
	})

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	// Families sorted by name: a_gauge before b_total before z_func.
	if !(strings.Index(out, "a_gauge") < strings.Index(out, "b_total") &&
		strings.Index(out, "b_total") < strings.Index(out, "z_func")) {
		t.Fatalf("families not sorted:\n%s", out)
	}
	for _, want := range []string{
		"# HELP b_total help with \\\\ backslash\\nand newline",
		"# TYPE b_total counter",
		"b_total 3",
		"# TYPE a_gauge gauge",
		`a_gauge{node="1"} 0.25`,
		`a_gauge{node="we\"ird"} +Inf`,
		`z_func{shard="s0"} 4`,
		`z_func{shard="s1"} 9`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Func family series sorted by label value.
	if strings.Index(out, `z_func{shard="s0"}`) > strings.Index(out, `z_func{shard="s1"}`) {
		t.Fatalf("func samples not sorted:\n%s", out)
	}
}

func TestHandlerServesScrape(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total", "x").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "served_total 1") {
		t.Fatalf("scrape body missing counter:\n%s", rec.Body.String())
	}
}

// TestConcurrentScrapeAndUpdate exercises every instrument from many
// goroutines while scraping — the -race guarantee the runtime leans on when
// /metrics is hit mid-run.
func TestConcurrentScrapeAndUpdate(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("ops_total", "x", "kind")
	g := r.Gauge("depth", "x")
	h := r.Histogram("size", "x", []float64{1, 10, 100})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				c.With("a").Inc()
				c.With("b").Add(2)
				g.Set(float64(j))
				h.Observe(float64(j % 200))
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestEventKindStrings(t *testing.T) {
	kinds := EventKinds()
	if len(kinds) != NumEventKinds-1 {
		t.Fatalf("got %d kinds, want %d", len(kinds), NumEventKinds-1)
	}
	if len(kinds) != 12 {
		t.Fatalf("got %d kinds, want 12", len(kinds))
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "invalid" || seen[s] {
			t.Fatalf("kind %d has bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
	if EventKind(0).String() != "invalid" || EventKind(200).String() != "invalid" {
		t.Fatal("out-of-range kinds must stringify as invalid")
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(0, 5, 3)
	if lin[0] != 0 || lin[1] != 5 || lin[2] != 10 {
		t.Fatalf("linear = %v", lin)
	}
	exp := ExponentialBuckets(1, 4, 3)
	if exp[0] != 1 || exp[1] != 4 || exp[2] != 16 {
		t.Fatalf("exponential = %v", exp)
	}
}
