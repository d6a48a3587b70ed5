package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// runAA is the same-code A/A check: it makes two sets of n end-to-end runs
// of each workload, the workloads in rotation and the sets in alternation
// (A1 B1 of each workload in turn, then A2 B2 …), every run a fresh process
// with its own seed, and applies the acceptance rule the benchmark's
// bounds are stated under — each metric's interquartile spread within a set
// must stay inside its bound (setup_s excepted), and set B's median must not
// be worse than set A's by more than the bound. It prints a Markdown report
// (committed as AA.md) and fails if any pairing breaks the rule.
func runAA(only string, n int, o options) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("aa: %w", err)
	}
	list := workloads
	if only != "" {
		s, err := findWorkload(only)
		if err != nil {
			return err
		}
		list = []spec{s}
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "# A/A check: two sets of %d runs of the same code, %.0f s each\n\n", n, o.seconds)
	fmt.Fprintf(out, "%s, %d CPUs, %s, commit %s. The workloads take turns (run 1 A and B of each, then run 2 …); run i of both sets uses seed %d+i.\n", cpuModel(), runtime.NumCPU(), runtime.Version(), gitCommit(), o.seed)
	fmt.Fprintf(out, "`spread` is (Q3−Q1)/median over a set's runs, quartiles as Python's `statistics.quantiles(n=4)`; `gap` is how much worse B's median is than A's (negative: better). A spread or gap above the bound fails; `setup_s` is exempt from the spread rule.\n\n")
	// Round-robin over the workloads, as a driver may order its runs: what a
	// run leaves behind in the kernel's scheduler reaches the next run, so a
	// workload measured only after itself looks steadier than it is.
	sets := make([][2]map[string][]float64, len(list))
	for w := range sets {
		sets[w] = [2]map[string][]float64{{}, {}}
	}
	for i := 0; i < n; i++ {
		for w, s := range list {
			for set := 0; set < 2; set++ {
				fmt.Fprintf(o.log, "aa: %s run %d%c\n", s.name, i+1, 'A'+set)
				res, err := childRun(self, s.name, o.seed+int64(i), o)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("aa: %s seed %d: outputs disagree with the reference (%d of %d)", s.name, o.seed+int64(i), res.Failed, res.Attempted)
				}
				for name, v := range res.Metrics {
					sets[w][set][name] = append(sets[w][set][name], v.Value)
				}
			}
		}
	}
	failures := 0
	for w, s := range list {
		fmt.Fprintf(out, "## %s\n\n| metric | unit | median A | median B | spread A | spread B | gap | bound | |\n|---|---|---|---|---|---|---|---|---|\n", s.name)
		for _, d := range endToEnd {
			a, b := sets[w][0][d.Name], sets[w][1][d.Name]
			ma, mb := median(a), median(b)
			gap := (mb - ma) / ma
			if d.Better == "higher" {
				gap = -gap
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			if gap > d.Bound || (d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound)) {
				verdict = "FAIL"
				failures++
			}
			fmt.Fprintf(out, "| `%s` | %s | %s | %s | %.1f%% | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				d.Name, d.Unit, sig(ma), sig(mb), 100*sa, 100*sb, 100*gap, 100*d.Bound, verdict)
		}
		// The ungated diagnostic a later reader will look for here: why CPU
		// per interval is not an end-to-end metric (README, "Departures").
		const cpu = "harness.cpu_us_per_interval"
		a, b := sets[w][0][cpu], sets[w][1][cpu]
		fmt.Fprintf(out, "| `%s` | us | %s | %s | %.1f%% | %.1f%% | %+.1f%% | – | not gated |\n\n",
			cpu, sig(median(a)), sig(median(b)), 100*spread(a), 100*spread(b), 100*(median(b)-median(a))/median(a))
	}
	if failures > 0 {
		return fmt.Errorf("aa: %d metric × workload pairings outside their bound", failures)
	}
	return nil
}

func sig(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }

// childRun runs one end-to-end run in a fresh process and parses its result
// line; the child's table on stderr is dropped, and its diagnostics are read
// back from the record it wrote. Run waits for the child to end.
func childRun(self, workload string, seed int64, o options) (result, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", "0", "-out", o.outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return result{}, fmt.Errorf("aa: %s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("aa: %s seed %d: result line: %w", workload, seed, err)
	}
	var rec record
	data, err := os.ReadFile(filepath.Join(o.outDir, fmt.Sprintf("result-%s-trace0.json", workload)))
	if err == nil {
		err = json.Unmarshal(data, &rec)
	}
	if err != nil {
		return result{}, fmt.Errorf("aa: %s seed %d: record: %w", workload, seed, err)
	}
	for name, v := range rec.Metrics {
		if _, gated := res.Metrics[name]; !gated {
			res.Metrics[name] = v
		}
	}
	return res, nil
}
