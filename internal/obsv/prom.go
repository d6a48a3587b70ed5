package obsv

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus writes every family in Prometheus text exposition format
// (version 0.0.4): families sorted by name, series sorted by label values,
// HELP strings and label values escaped per the format. It is safe to call at
// any time, concurrently with every instrument update.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if err := f.write(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Handler returns an http.Handler serving the registry as a Prometheus
// scrape target (the conventional /metrics endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// sample is one exposition line's worth of data, collected under the family
// lock and formatted outside it.
type sample struct {
	labelValues []string
	value       float64

	// histogram series carry their full state instead of a single value.
	hist    bool
	buckets []int64 // one per bound, not cumulative (write sums them)
	inf     int64   // the +Inf bucket (== count)
	sum     float64
}

func (f *family) write(w *bufio.Writer) error {
	f.mu.Lock()
	var samples []sample
	if f.collect != nil {
		f.collect(func(value float64, labelValues ...string) {
			if len(labelValues) != len(f.labelNames) {
				panic(fmt.Sprintf("obsv: func metric %q emitted %d label values, want %d",
					f.name, len(labelValues), len(f.labelNames)))
			}
			samples = append(samples, sample{labelValues: append([]string(nil), labelValues...), value: value})
		})
	} else if f.collectHist != nil {
		counts, sum := f.collectHist()
		samples = append(samples, histSample(nil, counts, sum))
	} else {
		for _, s := range f.series {
			samples = append(samples, f.sampleOf(s))
		}
	}
	f.mu.Unlock()
	if len(samples) == 0 {
		return nil
	}
	sort.Slice(samples, func(i, j int) bool {
		return lessStrings(samples[i].labelValues, samples[j].labelValues)
	})

	fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
	for _, s := range samples {
		if !s.hist {
			w.WriteString(f.name)
			writeLabels(w, f.labelNames, s.labelValues, "", "")
			w.WriteByte(' ')
			w.WriteString(formatValue(s.value))
			w.WriteByte('\n')
			continue
		}
		cum := int64(0)
		for i, bound := range f.buckets {
			cum += s.buckets[i]
			w.WriteString(f.name + "_bucket")
			writeLabels(w, f.labelNames, s.labelValues, "le", formatValue(bound))
			fmt.Fprintf(w, " %d\n", cum)
		}
		w.WriteString(f.name + "_bucket")
		writeLabels(w, f.labelNames, s.labelValues, "le", "+Inf")
		fmt.Fprintf(w, " %d\n", s.inf)
		w.WriteString(f.name + "_sum")
		writeLabels(w, f.labelNames, s.labelValues, "", "")
		fmt.Fprintf(w, " %s\n", formatValue(s.sum))
		w.WriteString(f.name + "_count")
		writeLabels(w, f.labelNames, s.labelValues, "", "")
		fmt.Fprintf(w, " %d\n", s.inf)
	}
	return nil
}

// sampleOf snapshots one stored series. Caller holds f.mu (which only guards
// the series map — the values themselves are atomics).
func (f *family) sampleOf(s *series) sample {
	switch f.kind {
	case KindCounter:
		return sample{labelValues: s.labelValues, value: float64(s.count.Load())}
	case KindGauge:
		return sample{labelValues: s.labelValues, value: math.Float64frombits(s.gauge.Load())}
	default: // KindHistogram
		counts := make([]int64, len(s.bucketCounts))
		for i := range s.bucketCounts {
			counts[i] = s.bucketCounts[i].Load()
		}
		return histSample(s.labelValues, counts, math.Float64frombits(s.hsum.Load()))
	}
}

// histSample makes a histogram sample of per-bucket counts, one per bound
// and the +Inf bucket last.
func histSample(labelValues []string, counts []int64, sum float64) sample {
	out := sample{labelValues: labelValues, hist: true, buckets: counts[:len(counts)-1], sum: sum}
	for _, n := range counts {
		out.inf += n
	}
	return out
}

// writeLabels writes {k="v",...}, appending the optional extra pair (used for
// the histogram "le" label). Nothing is written when there are no pairs.
func writeLabels(w *bufio.Writer, names, values []string, extraName, extraValue string) {
	if len(names) == 0 && extraName == "" {
		return
	}
	w.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(n)
		w.WriteString(`="`)
		w.WriteString(escapeLabel(values[i]))
		w.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			w.WriteByte(',')
		}
		w.WriteString(extraName)
		w.WriteString(`="`)
		w.WriteString(extraValue)
		w.WriteByte('"')
	}
	w.WriteByte('}')
}

// formatValue renders a float the way Prometheus expects: integral values
// without an exponent, +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

func escapeHelp(s string) string  { return helpEscaper.Replace(s) }
func escapeLabel(s string) string { return labelEscaper.Replace(s) }

func lessStrings(a, b []string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
