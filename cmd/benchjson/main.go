// Command benchjson runs a benchmark suite and records the results in a
// machine-readable JSON file. Checked in and regenerated per change, each
// file is a benchmark trajectory: an append-only array with one entry per
// recorded run, so `git log -p BENCH_hotpath.json` — or just reading the
// file — shows how ns/op, B/op, allocs/op, bytes/frame and intervals/sec
// moved with every perf PR, without anyone re-running old commits.
//
// Usage:
//
//	go run ./cmd/benchjson -label "PR 4"    # hot-path suite → BENCH_hotpath.json
//	go run ./cmd/benchjson -suite scale -label "PR 6 post"  # → BENCH_scale.json
//	go run ./cmd/benchjson -short -label L  # quicker pass (CI)
//	go run ./cmd/benchjson -out F -label L  # write elsewhere
//	go run ./cmd/benchjson -suite scale -compare            # diff last two entries
//
// Every recorded entry must carry a unique, non-empty -label: the trajectory
// is the repo's perf ledger, and an unlabeled or duplicated entry is exactly
// the silent gap that makes a ledger unreadable months later, so benchjson
// refuses to append one instead of recording it quietly.
//
// -compare prints a benchstat-style table of the last two recorded entries
// (old → new ns/op and intervals/sec per benchmark, plus summary deltas)
// without running anything; CI attaches it next to the refreshed JSON.
//
// The hotpath suite covers the layers of the report hot path: vclock codec
// and comparisons, wire encode/decode (v1 vs v2, pooled), interval
// aggregation and queue, detector node work, TCP loopback, and the
// simulator's Figure 4/5 byte-volume sweeps. The scale suite runs the live
// runtime at p ∈ {127, 511, 1023} (BenchmarkLiveScale's one lane, parallel:
// the current path; older entries also carry the sharded, legacy and batched
// lanes since deleted) plus the batched report encode path, and summarizes
// each size — p=1023 parallel throughput and p99 latency are the gated
// headline.
//
// Files recorded in the old single-run format are migrated in place: the
// previous run becomes the trajectory's first entry.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// suite is one `go test -bench` invocation.
type suite struct {
	Pkg       string `json:"package"`
	Pattern   string `json:"pattern"`
	Benchtime string `json:"benchtime"`
	short     string // benchtime override under -short ("" keeps Benchtime)
}

var hotpathSuites = []suite{
	{Pkg: "./internal/vclock", Pattern: "BenchmarkCompareLess|BenchmarkAppendDelta|BenchmarkConsumeDelta|BenchmarkString|BenchmarkLess|BenchmarkMarshal", Benchtime: "20000x"},
	{Pkg: "./internal/wire", Pattern: "BenchmarkEncodeReport|BenchmarkDecodeReport", Benchtime: "20000x"},
	{Pkg: "./internal/interval", Pattern: "BenchmarkAggregate|BenchmarkOverlapAll|BenchmarkQueueCycle", Benchtime: "20000x"},
	{Pkg: "./internal/core", Pattern: "BenchmarkNodeDetection|BenchmarkNodeElimination", Benchtime: "200x", short: "50x"},
	{Pkg: "./internal/transport/tcptransport", Pattern: "BenchmarkLoopbackRoundTrip|BenchmarkRebase", Benchtime: "50000x", short: "5000x"},
	{Pkg: ".", Pattern: "BenchmarkFigure4_Messages|BenchmarkFigure5_Messages", Benchtime: "1x"},
}

var scaleSuites = []suite{
	{Pkg: "./internal/livenet", Pattern: "BenchmarkLiveScale", Benchtime: "16x", short: "2x"},
	{Pkg: "./internal/wire", Pattern: "BenchmarkAppendReportBatch|BenchmarkDecodeReportBatch", Benchtime: "20000x", short: "2000x"},
	{Pkg: "./internal/tenantplane", Pattern: "BenchmarkMultiTenant", Benchtime: "2x", short: "1x"},
}

// result is one benchmark line.
type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type suiteOut struct {
	suite
	Results []result `json:"results"`
}

// run is one trajectory entry: everything a single benchjson invocation
// measured.
type run struct {
	Label   string             `json:"label,omitempty"`
	Go      string             `json:"go"`
	GOARCH  string             `json:"goarch"`
	Suites  []suiteOut         `json:"suites"`
	Summary map[string]float64 `json:"summary"`
}

// trajectory is the on-disk document: a note plus the append-only run list.
type trajectory struct {
	Note       string `json:"note"`
	Trajectory []run  `json:"trajectory"`
}

func main() {
	suiteName := flag.String("suite", "hotpath", "suite to run: hotpath or scale")
	out := flag.String("out", "", "output file (default BENCH_<suite>.json)")
	label := flag.String("label", "", "unique annotation for this trajectory entry (required when recording)")
	short := flag.Bool("short", false, "shorter benchtimes for CI lanes")
	compare := flag.Bool("compare", false, "print a benchstat-style diff of the last two recorded entries and exit")
	maxRegress := flag.String("maxregress", "", "with -compare: comma-separated summary drift gates; key=pct fails when new < old*(1-pct/100) (throughput-style, bigger is better), key>pct fails when new > old*(1+pct/100) (latency-style, smaller is better)")
	flag.Parse()

	var suites []suite
	var summarize func([]suiteOut) map[string]float64
	switch *suiteName {
	case "hotpath":
		suites, summarize = hotpathSuites, summarizeHotpath
	case "scale":
		suites, summarize = scaleSuites, summarizeScale
	default:
		fmt.Fprintf(os.Stderr, "benchjson: unknown suite %q (want hotpath or scale)\n", *suiteName)
		os.Exit(2)
	}
	if *out == "" {
		*out = "BENCH_" + *suiteName + ".json"
	}

	if *compare {
		doc := load(*out)
		if len(doc.Trajectory) < 2 {
			fmt.Fprintf(os.Stderr, "benchjson: %s holds %d entries; -compare needs two\n", *out, len(doc.Trajectory))
			os.Exit(1)
		}
		old, new := doc.Trajectory[len(doc.Trajectory)-2], doc.Trajectory[len(doc.Trajectory)-1]
		printCompare(os.Stdout, old, new)
		if !checkDriftGates(os.Stdout, old, new, *maxRegress) {
			os.Exit(1)
		}
		return
	}

	if strings.TrimSpace(*label) == "" {
		fmt.Fprintln(os.Stderr, "benchjson: refusing to record an unlabeled trajectory entry — pass -label (e.g. -label \"PR 6 post\")")
		os.Exit(2)
	}

	entry := run{
		Label:  *label,
		Go:     runtime.Version(),
		GOARCH: runtime.GOARCH,
	}
	for _, s := range suites {
		bt := s.Benchtime
		if *short && s.short != "" {
			bt = s.short
		}
		fmt.Fprintf(os.Stderr, "benchjson: %s -bench %s -benchtime %s\n", s.Pkg, s.Pattern, bt)
		results, err := runSuite(s.Pkg, s.Pattern, bt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", s.Pkg, err)
			os.Exit(1)
		}
		s.Benchtime = bt
		entry.Suites = append(entry.Suites, suiteOut{suite: s, Results: results})
	}
	entry.Summary = summarize(entry.Suites)

	doc := load(*out)
	for _, prev := range doc.Trajectory {
		if prev.Label == *label {
			fmt.Fprintf(os.Stderr, "benchjson: %s already records an entry labeled %q — every trajectory entry needs a unique label\n", *out, *label)
			os.Exit(2)
		}
	}
	doc.Note = "trajectory of recorded runs, newest last; append with: go run ./cmd/benchjson -suite " + *suiteName + " -label <unique label>"
	doc.Trajectory = append(doc.Trajectory, entry)

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: appended run %d to %s\n", len(doc.Trajectory), *out)
}

// load reads an existing trajectory file. A file in the pre-trajectory
// format (one bare run object) is migrated: it becomes the first entry. A
// missing or unreadable file starts a fresh trajectory.
func load(path string) trajectory {
	data, err := os.ReadFile(path)
	if err != nil {
		return trajectory{}
	}
	var doc trajectory
	if err := json.Unmarshal(data, &doc); err == nil && doc.Trajectory != nil {
		return doc
	}
	var old struct {
		Go      string             `json:"go"`
		GOARCH  string             `json:"goarch"`
		Suites  []suiteOut         `json:"suites"`
		Summary map[string]float64 `json:"summary"`
	}
	if err := json.Unmarshal(data, &old); err == nil && old.Suites != nil {
		return trajectory{Trajectory: []run{{
			Label: "migrated from single-run format", Go: old.Go, GOARCH: old.GOARCH,
			Suites: old.Suites, Summary: old.Summary,
		}}}
	}
	return trajectory{}
}

func runSuite(pkg, pattern, benchtime string) ([]result, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", pattern,
		"-benchtime", benchtime, "-benchmem", "-count", "1", pkg)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w\n%s%s", err, stdout.String(), stderr.String())
	}
	var results []result
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if r, ok := parseLine(sc.Text()); ok {
			results = append(results, r)
		}
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark lines in output:\n%s", stdout.String())
	}
	return results, nil
}

// parseLine parses one `go test -bench` result line:
//
//	BenchmarkName[/sub][-P]  N  v1 unit1  v2 unit2 ...
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	name := fields[0]
	// Strip the trailing -GOMAXPROCS qualifier, keeping sub-benchmark paths.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, len(r.Metrics) > 0
}

// printCompare renders a benchstat-style diff of two trajectory entries: one
// row per benchmark and tracked unit with old value, new value and relative
// delta, followed by the summary keys the two runs share. Benchmarks present
// in only one entry are listed so a lane appearing or vanishing is visible
// rather than silently dropped.
func printCompare(w io.Writer, old, new run) {
	fmt.Fprintf(w, "old: %s\nnew: %s\n\n", entryTitle(old), entryTitle(new))
	oldRes, newRes := flattenResults(old), flattenResults(new)
	var names []string
	for name := range newRes {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tunit\told\tnew\tdelta")
	for _, name := range names {
		nr := newRes[name]
		or, ok := oldRes[name]
		if !ok {
			fmt.Fprintf(tw, "%s\t\t(absent)\t\tnew benchmark\n", name)
			continue
		}
		for _, unit := range [...]string{"ns/op", "intervals/sec", "B/op", "allocs/op", "bytes/frame", "worst-node-cmps/run", "latency-p50-ms", "latency-p99-ms"} {
			nv, okN := nr.Metrics[unit]
			ov, okO := or.Metrics[unit]
			if !okN || !okO || ov == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\n", name, unit, ov, nv, 100*(nv/ov-1))
		}
	}
	for name := range oldRes {
		if _, ok := newRes[name]; !ok {
			fmt.Fprintf(tw, "%s\t\t\t(absent)\tbenchmark removed\n", name)
		}
	}
	tw.Flush()
	var keys []string
	for k := range new.Summary {
		if _, ok := old.Summary[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) > 0 {
		sort.Strings(keys)
		fmt.Fprintln(w, "\nsummary")
		for _, k := range keys {
			ov, nv := old.Summary[k], new.Summary[k]
			if ov != 0 {
				fmt.Fprintf(w, "  %s: %.4g -> %.4g (%+.1f%%)\n", k, ov, nv, 100*(nv/ov-1))
			} else {
				fmt.Fprintf(w, "  %s: %.4g -> %.4g\n", k, ov, nv)
			}
		}
	}
}

// checkDriftGates enforces -maxregress: each gate is a summary key plus the
// largest tolerated regression in percent. `key=pct` guards a bigger-is-better
// headline (trips when the newer value falls more than pct below the older),
// `key>pct` guards a smaller-is-better one like a latency quantile (trips when
// the newer value rises more than pct above the older). A key missing from
// either entry trips its gate too — a gated headline silently vanishing from
// the trajectory is exactly the drift the gate exists to catch. Returns false
// when any gate tripped.
func checkDriftGates(w io.Writer, old, new run, spec string) bool {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return true
	}
	ok := true
	for _, gate := range strings.Split(spec, ",") {
		gate = strings.TrimSpace(gate)
		key, pctStr, found := strings.Cut(gate, "=")
		upward := false
		if !found {
			key, pctStr, found = strings.Cut(gate, ">")
			upward = true
		}
		pct, err := strconv.ParseFloat(pctStr, 64)
		if !found || err != nil || pct < 0 {
			fmt.Fprintf(w, "drift gate %q: malformed, want key=pct or key>pct\n", gate)
			ok = false
			continue
		}
		ov, okO := old.Summary[key]
		nv, okN := new.Summary[key]
		switch {
		case !okO || !okN:
			fmt.Fprintf(w, "drift gate %s: FAIL — key missing from %s entry\n",
				key, map[bool]string{true: "newer", false: "older"}[okO])
			ok = false
		case !upward && ov > 0 && nv < ov*(1-pct/100):
			fmt.Fprintf(w, "drift gate %s: FAIL — %.4g -> %.4g (%.1f%% drop, tolerance %.1f%%)\n",
				key, ov, nv, 100*(1-nv/ov), pct)
			ok = false
		case upward && ov > 0 && nv > ov*(1+pct/100):
			fmt.Fprintf(w, "drift gate %s: FAIL — %.4g -> %.4g (%.1f%% rise, tolerance %.1f%%)\n",
				key, ov, nv, 100*(nv/ov-1), pct)
			ok = false
		default:
			fmt.Fprintf(w, "drift gate %s: ok — %.4g -> %.4g (tolerance %.1f%%)\n", key, ov, nv, pct)
		}
	}
	return ok
}

func entryTitle(r run) string {
	if r.Label != "" {
		return r.Label
	}
	return "(unlabeled)"
}

// flattenResults indexes an entry's benchmark lines by name.
func flattenResults(r run) map[string]result {
	out := map[string]result{}
	for _, s := range r.Suites {
		for _, res := range s.Results {
			out[res.Name] = res
		}
	}
	return out
}

// metric finds one benchmark metric in a suite set.
func metric(suites []suiteOut, pkg, name, unit string) (float64, bool) {
	for _, s := range suites {
		if s.Pkg != pkg {
			continue
		}
		for _, r := range s.Results {
			if r.Name == name {
				v, ok := r.Metrics[unit]
				return v, ok
			}
		}
	}
	return 0, false
}

// summarizeHotpath derives the headline numbers the wire/hot-path acceptance
// criteria track.
func summarizeHotpath(suites []suiteOut) map[string]float64 {
	sum := map[string]float64{}
	v1F, ok1 := metric(suites, "./internal/wire", "BenchmarkEncodeReportV2/v1", "bytes/frame")
	absF, ok2 := metric(suites, "./internal/wire", "BenchmarkEncodeReportV2/absolute", "bytes/frame")
	dltF, ok3 := metric(suites, "./internal/wire", "BenchmarkEncodeReportV2/delta", "bytes/frame")
	if ok1 && ok2 && v1F > 0 {
		sum["frame_reduction_pct_v2_absolute"] = 100 * (1 - absF/v1F)
	}
	if ok1 && ok3 && v1F > 0 {
		sum["frame_reduction_pct_v2_delta"] = 100 * (1 - dltF/v1F)
	}
	if a, ok := metric(suites, "./internal/wire", "BenchmarkEncodeReportPooled", "allocs/op"); ok {
		sum["pooled_encode_allocs_per_op"] = a
	}
	if a, ok := metric(suites, "./internal/wire", "BenchmarkDecodeReportPooled/v2-delta", "allocs/op"); ok {
		sum["pooled_decode_allocs_per_op"] = a
	}
	// Simulated byte-volume reduction across the Figure 4/5 height sweeps
	// (worst sub-benchmark, i.e. the smallest saving).
	worst := -1.0
	for _, s := range suites {
		if s.Pkg != "." {
			continue
		}
		for _, r := range s.Results {
			v1b, ok1 := r.Metrics["bytes-v1/run"]
			v2b, ok2 := r.Metrics["bytes-v2/run"]
			if ok1 && ok2 && v1b > 0 {
				if red := 100 * (1 - v2b/v1b); worst < 0 || red < worst {
					worst = red
				}
			}
		}
	}
	if worst >= 0 {
		sum["sim_bytes_reduction_pct_min"] = worst
	}
	if v1, ok1 := metric(suites, "./internal/transport/tcptransport", "BenchmarkLoopbackRoundTrip/v1", "ns/op"); ok1 {
		if v2, ok2 := metric(suites, "./internal/transport/tcptransport", "BenchmarkLoopbackRoundTrip/v2", "ns/op"); ok2 && v2 > 0 {
			sum["loopback_v1_over_v2_speedup"] = v1 / v2
		}
	}
	return sum
}

// summarizeScale derives the scale-lane headlines: per-size throughput,
// latency quantiles, goroutine high-water marks and worst-node comparison
// counts of the parallel lane, and the batched encode path's allocation
// count.
func summarizeScale(suites []suiteOut) map[string]float64 {
	sum := map[string]float64{}
	for _, p := range []int{127, 511, 1023} {
		name := fmt.Sprintf("BenchmarkLiveScale/p=%d/parallel", p)
		if v, ok := metric(suites, "./internal/livenet", name, "intervals/sec"); ok {
			sum[fmt.Sprintf("p%d_parallel_intervals_per_sec", p)] = v
		}
		if v, ok := metric(suites, "./internal/livenet", name, "peak-goroutines"); ok {
			sum[fmt.Sprintf("p%d_parallel_peak_goroutines", p)] = v
		}
		if v, ok := metric(suites, "./internal/livenet", name, "worst-node-cmps/run"); ok {
			sum[fmt.Sprintf("p%d_parallel_worst_node_cmps", p)] = v
		}
		if v, ok := metric(suites, "./internal/livenet", name, "latency-p50-ms"); ok {
			sum[fmt.Sprintf("p%d_parallel_latency_p50_ms", p)] = v
		}
		if v, ok := metric(suites, "./internal/livenet", name, "latency-p99-ms"); ok {
			sum[fmt.Sprintf("p%d_parallel_latency_p99_ms", p)] = v
		}
	}
	if a, ok := metric(suites, "./internal/wire", "BenchmarkAppendReportBatch", "allocs/op"); ok {
		sum["batch_encode_allocs_per_op"] = a
	}
	for _, tenants := range []int{1, 16, 256} {
		name := fmt.Sprintf("BenchmarkMultiTenant/p=63/tenants=%d", tenants)
		if v, ok := metric(suites, "./internal/tenantplane", name, "intervals/sec"); ok {
			sum[fmt.Sprintf("tenants%d_intervals_per_sec", tenants)] = v
		}
		if v, ok := metric(suites, "./internal/tenantplane", name, "per-tenant-intervals/sec"); ok {
			sum[fmt.Sprintf("tenants%d_per_tenant_intervals_per_sec", tenants)] = v
		}
		if v, ok := metric(suites, "./internal/tenantplane", name, "goroutines"); ok {
			sum[fmt.Sprintf("tenants%d_goroutines", tenants)] = v
		}
		if v, ok := metric(suites, "./internal/tenantplane", name, "bytes/tenant"); ok {
			sum[fmt.Sprintf("tenants%d_bytes_per_tenant", tenants)] = v
		}
	}
	// Multiplexing overhead: how much total plane throughput costs relative
	// to running the same workload as one predicate.
	if base := sum["tenants1_intervals_per_sec"]; base > 0 {
		for _, tenants := range []int{16, 256} {
			if v := sum[fmt.Sprintf("tenants%d_intervals_per_sec", tenants)]; v > 0 {
				sum[fmt.Sprintf("tenants%d_throughput_vs_single", tenants)] = v / base
			}
		}
	}
	return sum
}
