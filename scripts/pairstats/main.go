// Command pairstats summarises the runs scripts/bench_pair.sh made: for every
// metric both sides reported it prints each side's median and quartiles, the
// change in the median, and how many pairs each side won — the form in which
// a claim of gain or of no movement has to be made on a noisy box (paired,
// alternating runs; a gain needs at least nine tenths of the pairs and a
// median shift larger than the parent's own quartile distance).
//
// Usage: pairstats BENCHMARK.json DIR WORKLOAD, where DIR holds
// parent-<i>/ and change-<i>/, each with the run's result record
// (result-WORKLOAD-trace0.json) and its standard output (stdout.json).
// With BENCHMARK.json alone it prints the workload names, one a line.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmark struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type record struct {
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
}

func main() {
	if len(os.Args) != 2 && len(os.Args) != 4 {
		fmt.Fprintln(os.Stderr, "usage: pairstats BENCHMARK.json [DIR WORKLOAD]")
		os.Exit(2)
	}
	var err error
	if len(os.Args) == 2 {
		err = listWorkloads(os.Args[1])
	} else {
		err = run(os.Args[1], os.Args[2], os.Args[3])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pairstats:", err)
		os.Exit(1)
	}
}

func listWorkloads(benchPath string) error {
	var bm benchmark
	if err := readJSON(benchPath, &bm); err != nil {
		return err
	}
	for _, w := range bm.Workloads {
		fmt.Println(w.Name)
	}
	return nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// lastResultLine parses the run's result line: the last line it wrote to
// standard output.
func lastResultLine(path string) (resultLine, error) {
	var line resultLine
	b, err := os.ReadFile(path)
	if err != nil {
		return line, err
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return line, fmt.Errorf("%s: %w", path, err)
	}
	return line, nil
}

func run(benchPath, dir, workload string) error {
	var bm benchmark
	if err := readJSON(benchPath, &bm); err != nil {
		return err
	}
	decls := map[string]metricDecl{}
	for _, d := range append(bm.PerLayer, bm.EndToEnd...) {
		decls[d.Name] = d
	}

	// values[side][metric][pair]; a pair counts only when both sides ran.
	values := map[string]map[string][]float64{"parent": {}, "change": {}}
	failed := map[string]resultLine{}
	pairs := 0
	for i := 0; ; i++ {
		recs := map[string]record{}
		for side := range values {
			var rec record
			sub := filepath.Join(dir, fmt.Sprintf("%s-%d", side, i))
			if err := readJSON(filepath.Join(sub, "result-"+workload+"-trace0.json"), &rec); err != nil {
				if os.IsNotExist(err) {
					break
				}
				return err
			}
			line, err := lastResultLine(filepath.Join(sub, "stdout.json"))
			if err != nil {
				return err
			}
			f := failed[side]
			f.Attempted += line.Attempted
			f.Failed += line.Failed
			failed[side] = f
			recs[side] = rec
		}
		if len(recs) < 2 {
			break
		}
		pairs++
		for side, rec := range recs {
			for name, m := range rec.Metrics {
				values[side][name] = append(values[side][name], m.Value)
			}
		}
	}
	if pairs == 0 {
		return fmt.Errorf("no complete pair under %s", dir)
	}

	var names []string
	for name, vs := range values["parent"] {
		if len(vs) == pairs && len(values["change"][name]) == pairs {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		gi, gj := decls[names[i]].Bound > 0, decls[names[j]].Bound > 0
		if gi != gj {
			return gi // the gated end-to-end metrics first
		}
		return names[i] < names[j]
	})

	fmt.Printf("%s: %d pairs (parent, change), seeds and order alternate per pair\n", workload, pairs)
	fmt.Printf("%-32s %-6s %-34s %-34s %8s  %-9s %s\n",
		"metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "Δmedian", "pairs won", "reading")
	for _, name := range names {
		p, c := values["parent"][name], values["change"][name]
		d := decls[name]
		pm, cm := median(p), median(c)
		pq1, pq3 := quartiles(p)
		cq1, cq3 := quartiles(c)
		won, lost := 0, 0
		for i := range p {
			switch {
			case c[i] == p[i]:
			case (c[i] > p[i]) == (d.Better == "higher"):
				won++
			default:
				lost++
			}
		}
		delta := math.NaN()
		if pm != 0 {
			delta = (cm - pm) / math.Abs(pm)
		}
		fmt.Printf("%-32s %-6s %-34s %-34s %+7.1f%%  %2d : %-4d %s\n", name, d.Unit,
			fmt.Sprintf("%.5g [%.5g, %.5g]", pm, pq1, pq3),
			fmt.Sprintf("%.5g [%.5g, %.5g]", cm, cq1, cq3),
			100*delta, won, lost, reading(d, pm, cm, math.Abs(pq3-pq1), math.Abs(cq3-cq1), won, lost, pairs))
	}
	for _, side := range []string{"parent", "change"} {
		fmt.Printf("%s: %d of %d expected detections missing or surplus\n", side, failed[side].Failed, failed[side].Attempted)
	}
	return nil
}

// reading applies the claim rule to one metric: a side is better only when it
// won nine tenths of the pairs and moved the median by more than the parent's
// quartile distance; for a gated metric, a median worse by more than its
// bound is called out whatever the pairs say, and where neither side is
// consistently ahead and either side's quartiles lie further apart than the
// bound, the metric is unresolved: the runs cannot show it stayed within it.
func reading(d metricDecl, pm, cm, parentIQR, changeIQR float64, won, lost, pairs int) string {
	if d.Better == "" {
		return ""
	}
	worse := cm - pm
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case d.Bound > 0 && worse > d.Bound*math.Abs(pm):
		return "WORSE than the bound allows"
	case 10*won >= 9*pairs && math.Abs(cm-pm) > parentIQR:
		return "better"
	case 10*lost >= 9*pairs && math.Abs(cm-pm) > parentIQR:
		return "worse"
	case won+lost == 0:
		return "identical"
	case d.Bound > 0 && math.Max(parentIQR, changeIQR) > d.Bound*math.Abs(pm):
		return "unresolved: the runs spread wider than the bound"
	default:
		return "no consistent side"
	}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles are Python's statistics.quantiles(xs, n=4), the method
// bench/stats.go and bench/AA.md use; NaN below two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}
