package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"hierdet/internal/analytic"
)

// record is the environment and bookkeeping stored with every result, so a
// number can be traced to the box, the toolchain, the commit and the seed
// that produced it.
type record struct {
	Workload         string    `json:"workload"`
	Trace            int       `json:"trace"`
	Seed             int64     `json:"seed"`
	RunSeconds       float64   `json:"run_seconds"`
	CPUModel         string    `json:"cpu_model"`
	NumCPU           int       `json:"nproc"`
	GOMAXPROCS       int       `json:"gomaxprocs"`
	GoVersion        string    `json:"go_version"`
	GitCommit        string    `json:"git_commit"`
	CalibrationScore float64   `json:"harness.calibration_score"`
	Passes           int       `json:"passes"`
	DiscardedLate    int       `json:"passes_discarded_late"`
	LatencySamples   int       `json:"latency_samples"`
	GeneratorLateMs  float64   `json:"harness.generator_late_ms_max"`
	SetupSeconds     []float64 `json:"setup_seconds,omitempty"`
	// Eq11Reports is the paper's Eq. 11 message count at α=1 for the
	// workload's (d, h), per interval, printed beside reports_per_interval.
	Eq11Reports float64 `json:"analytic.eq11_reports_per_interval"`
	Metrics     metrics `json:"metrics"`
}

func newRecord(s spec, o options, trace int, t *tally, m metrics) *record {
	cal := m["harness.calibration_score"].Value
	if cal == 0 {
		cal = calibrationScore()
	}
	return &record{
		Workload: s.name, Trace: trace, Seed: o.seed, RunSeconds: o.seconds,
		CPUModel: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitCommit: gitCommit(),
		CalibrationScore: cal,
		Passes:           t.passes, DiscardedLate: t.discarded, LatencySamples: len(t.latMs),
		GeneratorLateMs: ms(t.lateMax),
		Eq11Reports:     eq11PerInterval(s),
		Metrics:         m,
	}
}

// write stores the record beside the trace files.
func (r *record) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("result output: %w", err)
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("result output: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("result-%s-trace%d.json", r.Workload, r.Trace))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("result output: %w", err)
	}
	return nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit straight from .git (the benchmark
// starts no processes); a checkout that is not a repository reads "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	if packed, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// eq11PerInterval evaluates the paper's Eq. 11 for the workload's tree with
// α = the share of global rounds, per interval fed. (The paper's h counts
// levels, one more than the tree's height.)
func eq11PerInterval(s spec) float64 {
	n := s.topology().N()
	return analytic.HierarchicalMessages(s.rounds, s.degree, s.height+1, s.pGlobal) / float64(s.rounds*n)
}
