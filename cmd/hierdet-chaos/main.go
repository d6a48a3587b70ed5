// Command hierdet-chaos is the randomized record/verify soak lane: it keeps
// launching chaotic live runs — random topology, random workload mix, random
// crash-stop schedule, random delivery plane, sometimes split across several
// OS-level TCP participants — records every run as a trace artifact, and
// checks the invariants the runtime promises:
//
//   - soundness: every detection's solution set passes trace.CheckDetection,
//     on the recording and on a replay through an independently chosen plane
//     (on multi-participant recordings, aggregates that crossed TCP arrive
//     opaque — no member expansion on the wire — so only detections with
//     full membership are checkable there; the replay, which always runs in
//     one process, re-checks the same execution with full membership)
//   - reconciliation: the cluster's counter ledger agrees with its lifecycle
//     event stream (detections↔solution_found, repairs↔repair_concluded,
//     msgsOut↔report_sent; kill-free runs additionally balance sent against
//     received exactly)
//   - ground truth: kill-free runs must detect exactly what the centralized
//     flat reference detects
//   - determinism: traces the recorder classified byte-reproducible must
//     replay byte-identically (replay is always run; nondeterministic traces
//     are checked for soundness only)
//
// A run that holds every invariant deletes its artifact; the first failure
// keeps the trace file, prints how to re-run it, and exits nonzero — the
// artifact replays the exact execution under a debugger.
//
// Usage:
//
//	# soak for a minute, artifacts under chaos-artifacts/
//	go run ./cmd/hierdet-chaos -duration 60s -seed 1 -out chaos-artifacts
//
//	# re-run a kept failure artifact, half speed, on the parallel plane
//	go run ./cmd/hierdet-chaos -replay chaos-artifacts/run-0007.hdtr -plane parallel -speed 0.5
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hierdet"
	"hierdet/internal/interval"
	"hierdet/internal/livenet"
	"hierdet/internal/trace"
	"hierdet/internal/workload"
)

func main() {
	var (
		duration   = flag.Duration("duration", 30*time.Second, "keep launching chaos runs until this much time has passed")
		seed       = flag.Int64("seed", 1, "base seed; run i derives everything from seed+i")
		n          = flag.Int("n", 15, "processes per run")
		out        = flag.String("out", "chaos-artifacts", "directory for trace artifacts (failures are kept)")
		replayPath = flag.String("replay", "", "replay one trace file instead of soaking")
		plane      = flag.String("plane", "", "delivery plane override (sharded|parallel); default: recorded plane when replaying, random per verification otherwise")
		speed      = flag.Float64("speed", 0, "replay pacing as a recorded-time multiplier (2 = twice as fast; 0 = as fast as the barriers allow)")
		links      = flag.String("links", "mixed", "link graphs for chaos runs: tree|full|mixed")
	)
	flag.Parse()

	if *replayPath != "" {
		replayOne(*replayPath, *plane, *speed)
		return
	}
	soak(*duration, *seed, *n, *out, *plane, *links)
}

// replayOne re-executes a kept artifact and reports the verdict.
func replayOne(path, plane string, speed float64) {
	tr, err := hierdet.ReadTraceFile(path)
	if err != nil {
		fail("read %s: %v", path, err)
	}
	fmt.Printf("%s: %d nodes, %d steps, %d events, %d detections, plane %s, deterministic=%v\n",
		path, len(tr.Parents), len(tr.Schedule), len(tr.Events), tr.Detections, tr.Plane, tr.Deterministic)
	rep, err := hierdet.NewTraceReplayer(tr, hierdet.TraceReplayerConfig{Plane: plane, Speed: speed})
	if err != nil {
		fail("replayer: %v", err)
	}
	res, err := rep.Run()
	if err != nil {
		rep.Close()
		fail("replay: %v", err)
	}
	if err := checkSoundness(res.Detections, false); err != nil {
		fail("replay detections unsound: %v", err)
	}
	fmt.Printf("replayed on %s: %d detections, match=%v\n", res.Plane, len(res.Detections), res.Match)
	if tr.Deterministic && !res.Deterministic {
		fmt.Println("note: replay went off-script (spurious suspicion under load); parity not checked")
	}
	if res.Deterministic && !res.Match {
		printOutcomeDiff(tr.Outcome, res.Outcome)
		fail("byte parity FAILED on a trace recorded as deterministic")
	}
	fmt.Println("replay invariants held ✓")
}

// soak launches randomized runs until the duration budget is spent (always
// at least one), verifying each and keeping only failing artifacts.
func soak(duration time.Duration, seed int64, n int, out, plane, links string) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		fail("mkdir %s: %v", out, err)
	}
	start := time.Now()
	runs, kills, offScript := 0, 0, 0
	for runs == 0 || time.Since(start) < duration {
		runSeed := seed + int64(runs)
		path := filepath.Join(out, fmt.Sprintf("run-%04d.hdtr", runs))
		k, off, err := chaosRun(runSeed, n, path, plane, links)
		kills += k
		runs++
		if off {
			offScript++
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "\nrun %d FAILED: %v\n", runs-1, err)
			fail("artifact kept at %s — re-run it with:\n  go run ./cmd/hierdet-chaos -replay %s", path, path)
		}
		os.Remove(path)
	}
	fmt.Printf("soak clean: %d runs, %d kills, %d off-script, %s — every invariant held ✓\n",
		runs, kills, offScript, time.Since(start).Round(time.Millisecond))
}

// chaosRun records one randomized execution to path and verifies it. It
// returns the number of kills scheduled, whether the recording or its replay
// went off-script, and the first invariant violation.
func chaosRun(seed int64, n int, path, planeFlag, links string) (kills int, offScript bool, err error) {
	rng := rand.New(rand.NewSource(seed))

	treeOnly := links == "tree" || (links == "mixed" && rng.Intn(2) == 0)
	topo := hierdet.BalancedTreeN(n, 2+rng.Intn(2))
	if treeOnly {
		topo.UseTreeLinksOnly()
	}
	rounds := 4 + rng.Intn(5)
	ws := hierdet.TraceWorkload{
		Rounds: rounds, Seed: rng.Int63(),
		PGlobal: 0.6, PGroup: 0.25, PSubset: 0.1,
	}

	// Up to two kills, never the root, each victim distinct. On tree-only
	// graphs every kill is a partition (deterministic); on complete graphs
	// an inner victim's subtree renegotiates adoption, which the recorder
	// classifies nondeterministic — both classes belong in the soak.
	kills = rng.Intn(3)
	victims := rng.Perm(n - 1)[:kills]
	for i := range victims {
		victims[i]++ // shift off the root
	}

	// Slice the rounds into kills+1 observe phases with a kill between each.
	var schedule []hierdet.TraceStep
	cuts := append([]int{0}, sortedCuts(rng, rounds, kills)...)
	cuts = append(cuts, rounds)
	for i := 0; i <= kills; i++ {
		schedule = append(schedule, hierdet.TraceStep{Kind: hierdet.TraceStepObserve, Lo: cuts[i], Hi: cuts[i+1]})
		if i < kills {
			schedule = append(schedule, hierdet.TraceStep{Kind: hierdet.TraceStepKill, Node: victims[i]})
		}
	}

	cfg := hierdet.TraceRecorderConfig{
		Topology: topo,
		Workload: ws,
		Schedule: schedule,
		Plane:    pickPlane(rng, planeFlag),
		Delivery: hierdet.TraceDeliveryOptions{MaxDelay: 200 * time.Microsecond, Seed: rng.Int63()},
	}
	if kills > 0 {
		cfg.Failure = hierdet.TraceFailureOptions{HbEvery: 2 * time.Millisecond, SeekTimeout: 50 * time.Millisecond}
	}
	// A third of the runs split the deployment across loopback TCP.
	if rng.Intn(3) == 0 && n >= 6 {
		cfg.Participants = splitNodes(rng, n)
	}

	rec, err := hierdet.NewTraceRecorder(cfg)
	if err != nil {
		return kills, offScript, fmt.Errorf("recorder: %w", err)
	}
	tr, err := rec.Run()
	if err != nil {
		rec.Close()
		return kills, offScript, fmt.Errorf("record: %w", err)
	}
	dets := rec.Detections()
	cm := rec.Metrics()
	// Suspicions or repairs the kill schedule does not account for: a live
	// node was suspected, or a kill landed on a node an earlier repair had
	// re-parented (the audit does not model adoptions).
	offScript = rec.OffScript()
	rec.Close()

	// Persist before verifying, so any violation below keeps the artifact.
	if err := hierdet.WriteTraceFile(path, tr); err != nil {
		return kills, offScript, fmt.Errorf("write artifact: %w", err)
	}
	fmt.Printf("run seed=%d n=%d rounds=%d plane=%s links=%s parts=%d kills=%d det=%d deterministic=%v offscript=%v\n",
		seed, n, rounds, cfg.Plane, linksName(treeOnly), max(1, len(cfg.Participants)), kills, len(dets), tr.Deterministic, offScript)

	if err := checkSoundness(dets, len(cfg.Participants) > 1); err != nil {
		return kills, offScript, fmt.Errorf("recorded detections unsound: %w", err)
	}
	if err := reconcile(cm, kills); err != nil {
		return kills, offScript, err
	}
	if kills == 0 {
		if err := checkFlatReference(topo, ws, dets); err != nil {
			return kills, offScript, err
		}
	}

	// Replay the artifact (not the in-memory trace: the read-back also
	// proves the codec) through an independently chosen plane.
	tr2, err := hierdet.ReadTraceFile(path)
	if err != nil {
		return kills, offScript, fmt.Errorf("read back artifact: %w", err)
	}
	vplane := pickPlane(rng, planeFlag)
	rep, err := hierdet.NewTraceReplayer(tr2, hierdet.TraceReplayerConfig{Plane: vplane})
	if err != nil {
		return kills, offScript, fmt.Errorf("replayer: %w", err)
	}
	res, err := rep.Run()
	if err != nil {
		rep.Close()
		return kills, offScript, fmt.Errorf("replay on %s: %w", vplane, err)
	}
	if err := checkSoundness(res.Detections, false); err != nil {
		return kills, offScript, fmt.Errorf("replay detections unsound: %w", err)
	}
	if tr2.Deterministic && !res.Deterministic {
		offScript = true
		fmt.Printf("  note: %s replay went off-script (spurious suspicion under load); parity not checked\n", vplane)
	}
	if res.Deterministic && !res.Match {
		printOutcomeDiff(tr2.Outcome, res.Outcome)
		return kills, offScript, fmt.Errorf("byte parity FAILED replaying a deterministic trace on %s (%d vs %d detections)",
			vplane, len(res.Detections), tr2.Detections)
	}
	return kills, offScript, nil
}

// printOutcomeDiff decodes both outcome blobs and prints the first few
// diverging entries, so a parity failure names the detection and field that
// went wrong instead of just "bytes differ".
func printOutcomeDiff(recorded, replayed []byte) {
	a, errA := hierdet.DecodeTraceOutcome(recorded)
	b, errB := hierdet.DecodeTraceOutcome(replayed)
	if errA != nil || errB != nil {
		fmt.Fprintf(os.Stderr, "outcome decode for diff failed: recorded=%v replayed=%v\n", errA, errB)
		return
	}
	fmt.Fprintf(os.Stderr, "outcome diff (recorded %d entries, replayed %d):\n", len(a), len(b))
	shown := 0
	for i := 0; i < len(a) || i < len(b); i++ {
		switch {
		case i >= len(a):
			fmt.Fprintf(os.Stderr, "  [%d] only replayed: %+v\n", i, b[i])
		case i >= len(b):
			fmt.Fprintf(os.Stderr, "  [%d] only recorded: %+v\n", i, a[i])
		case fmt.Sprintf("%+v", a[i]) != fmt.Sprintf("%+v", b[i]):
			fmt.Fprintf(os.Stderr, "  [%d] recorded %+v\n  [%d] replayed %+v\n", i, a[i], i, b[i])
		default:
			continue
		}
		if shown++; shown >= 8 {
			fmt.Fprintln(os.Stderr, "  …")
			return
		}
	}
}

// reconcile cross-checks the counter ledger against the lifecycle event
// stream. Counter↔event pairs must agree exactly. The message balance is
// exact only without kills: repair traffic (attach messages) counts into
// msgsOut/msgsIn without being reports, and a victim's in-flight messages
// are dropped — so runs with kills get one-sided bounds.
func reconcile(cm livenet.ClusterMetrics, kills int) error {
	ev := cm.Events
	if cm.Detections != ev["solution_found"] {
		return fmt.Errorf("reconciliation: %d detections vs %d solution_found events", cm.Detections, ev["solution_found"])
	}
	if cm.Repairs != ev["repair_concluded"] {
		return fmt.Errorf("reconciliation: %d repairs vs %d repair_concluded events", cm.Repairs, ev["repair_concluded"])
	}
	if cm.MsgsOut < ev["report_sent"] {
		return fmt.Errorf("reconciliation: %d msgsOut below %d report_sent events", cm.MsgsOut, ev["report_sent"])
	}
	if ev["report_recv"] > ev["report_sent"] {
		return fmt.Errorf("reconciliation: %d report_recv exceeds %d report_sent", ev["report_recv"], ev["report_sent"])
	}
	if kills == 0 {
		if cm.MsgsOut != ev["report_sent"] {
			return fmt.Errorf("reconciliation: kill-free run sent %d messages but logged %d report_sent events", cm.MsgsOut, ev["report_sent"])
		}
		if cm.MsgsIn != cm.MsgsOut {
			return fmt.Errorf("reconciliation: kill-free run received %d messages but sent %d", cm.MsgsIn, cm.MsgsOut)
		}
		if ev["report_recv"] != ev["report_sent"] {
			return fmt.Errorf("reconciliation: kill-free run logged %d report_recv vs %d report_sent", ev["report_recv"], ev["report_sent"])
		}
	}
	return nil
}

// checkFlatReference compares a kill-free run's root detections against the
// centralized flat detector over the same regenerated execution.
func checkFlatReference(topo *hierdet.Topology, ws hierdet.TraceWorkload, dets []livenet.Detection) error {
	exec := workload.Generate(workload.Config{
		Topology: topo, Rounds: ws.Rounds, Seed: ws.Seed,
		PGlobal: ws.PGlobal, PGroup: ws.PGroup, PSubset: ws.PSubset,
	})
	span := topo.Subtree(0)
	sort.Ints(span)
	want := trace.FlatCount(exec, span, 1)
	roots := 0
	for _, d := range dets {
		if d.AtRoot {
			roots++
		}
	}
	if roots != want {
		return fmt.Errorf("ground truth: %d root detections, flat reference says %d", roots, want)
	}
	return nil
}

// sortedCuts picks k distinct ascending cut points inside (0, rounds).
func sortedCuts(rng *rand.Rand, rounds, k int) []int {
	perm := rng.Perm(rounds - 1)[:k]
	for i := range perm {
		perm[i]++
	}
	sort.Ints(perm)
	return perm
}

// splitNodes partitions [0,n) into 2–3 contiguous participant ranges.
func splitNodes(rng *rand.Rand, n int) [][]int {
	parts := 2 + rng.Intn(2)
	var out [][]int
	lo := 0
	for i := 0; i < parts; i++ {
		hi := n
		if i < parts-1 {
			hi = lo + 1 + rng.Intn(n-lo-(parts-1-i))
		}
		nodes := make([]int, 0, hi-lo)
		for id := lo; id < hi; id++ {
			nodes = append(nodes, id)
		}
		out = append(out, nodes)
		lo = hi
	}
	return out
}

func pickPlane(rng *rand.Rand, flagged string) string {
	if flagged != "" {
		return flagged
	}
	planes := hierdet.ReplayPlanes()
	return planes[rng.Intn(len(planes))]
}

// checkSoundness runs trace.CheckDetection over a run's detections. On a
// distributed recording, aggregates that crossed TCP have no member
// expansion (the wire ships the interval, not its bases), so those
// detections are skipped there — the single-process replay re-checks the
// same execution with full membership.
func checkSoundness(dets []livenet.Detection, distributed bool) error {
	for _, d := range dets {
		if distributed && hasOpaque(d.Det.Agg) {
			continue
		}
		if err := trace.CheckDetection(d.Det); err != nil {
			return err
		}
	}
	return nil
}

func hasOpaque(agg interval.Interval) bool {
	for _, b := range interval.BaseIntervals(agg) {
		if b.Agg {
			return true
		}
	}
	return false
}

func linksName(treeOnly bool) string {
	if treeOnly {
		return "tree"
	}
	return "full"
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
