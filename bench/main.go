// Command bench is the repository's benchmark: six named workloads, each run
// against a fresh build of the live detector, every output checked against a
// single-threaded reference computation, end-to-end metrics measured with
// tracing off and per-layer metrics in a separate traced run. README.md in
// this directory says what each workload and metric is for; BENCHMARK.json
// at the repository root is the contract a driver runs it under.
//
// One run of one workload (what the driver calls):
//
//	bench -workload deep_saturate -seed 1 -seconds 15 -trace 0
//
// prints a human-readable table on standard error and, as the last line of
// standard output, one JSON object {correct, attempted, failed, metrics}.
// Without -workload every workload runs in turn, untraced then traced:
//
//	go run ./bench -seed 1
//
// and -aa runs the same-code A/A check behind AA.md.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all, untraced then traced)")
		seed     = flag.Int64("seed", 1, "seed for the generated inputs and the injected delays")
		seconds  = flag.Float64("seconds", 15, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced run's per-layer metrics")
		outDir   = flag.String("out", "bench/out", "directory for result records and trace files")
		aa       = flag.Int("aa", 0, "A/A check: run this many runs per set of each workload, two sets in alternation, and write the report to standard output")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, outDir: *outDir, log: os.Stderr}
	var err error
	switch {
	case *aa > 0:
		err = runAA(*workload, *aa, o)
	case *workload == "":
		err = runAll(o)
	default:
		err = runOne(*workload, *trace == 1, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne is one driver-style run: one workload, one result line. The line
// is printed only when the run measured something; a run whose outputs
// disagree with the reference still prints it (correct: false) and then
// exits non-zero.
func runOne(name string, traced bool, o options) error {
	s, err := findWorkload(name)
	if err != nil {
		return err
	}
	res, err := runAndReport(s, traced, o)
	if err != nil {
		return err
	}
	if err := res.printLine(os.Stdout); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d expected detections missing or surplus against the reference", s.name, res.Failed, res.Attempted)
	}
	return nil
}

// runAndReport runs s, prints the table for people and stores the record.
func runAndReport(s spec, traced bool, o options) (result, error) {
	run, decls, kind := runEndToEnd, endToEnd, "end-to-end, tracing off"
	if traced {
		run, decls, kind = runTraced, perLayer, "per-layer, traced run"
	}
	fmt.Fprintf(o.log, "== %s (%s; seed %d, %.0f s)\n", s.name, kind, o.seed, o.seconds)
	res, rec, err := run(s, o)
	if rec != nil {
		fmt.Fprintf(o.log, "   %d passes, %d latency samples, %d late passes discarded, generator lateness max %.3f ms, Eq. 11 predicts %.4f reports/interval\n",
			rec.Passes, rec.LatencySamples, rec.DiscardedLate, rec.GeneratorLateMs, rec.Eq11Reports)
		rec.Metrics.printTable(o.log, decls)
		if werr := rec.write(o.outDir); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return res, err
	}
	fmt.Fprintf(o.log, "   correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	return res, nil
}

// runAll is the one command that prints everything: every workload with
// tracing off, then every workload traced. It exits non-zero if any output
// disagreed with the reference.
func runAll(o options) error {
	bad := 0
	for _, traced := range []bool{false, true} {
		for _, s := range workloads {
			res, err := runAndReport(s, traced, o)
			if err != nil {
				return err
			}
			if !res.Correct {
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d runs disagreed with the reference", bad)
	}
	return nil
}
