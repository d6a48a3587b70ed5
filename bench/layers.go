package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"hierdet/internal/interval"
	"hierdet/internal/repair"
	"hierdet/internal/transport/tcptransport"
	"hierdet/internal/vclock"
	"hierdet/internal/wire"
)

// The isolated layer kernels time calls into each package's exported
// functions on inputs captured from the workload itself — clocks out of the
// generated streams at the workload's n, reports out of the reference run —
// never on synthetic constants, so a kernel's number speaks for the shapes
// the end-to-end passes actually push through that layer.

// kernelBudget is how long each timed loop runs.
const kernelBudget = 120 * time.Millisecond

// sinkBool and friends keep the compiler from discarding a kernel's result.
var (
	sinkBool bool
	sinkInt  int
)

// timeLoop runs body over i = 0, 1, 2, … for about kernelBudget and returns
// nanoseconds per call. body is called in batches of 256 between clock reads.
func timeLoop(body func(i int)) float64 {
	const batch = 256
	calls := 0
	start := time.Now()
	for time.Since(start) < kernelBudget {
		for i := calls; i < calls+batch; i++ {
			body(i)
		}
		calls += batch
	}
	return float64(time.Since(start)) / float64(calls)
}

// clockPairs draws k (Lo of one process, Hi of another) pairs per round over
// the first rounds of the execution — the operands the engine's head-to-head
// checks see.
type clockPair struct{ aLo, aHi, bLo, bHi vclock.VC }

func clockPairs(in *inputs, k int) []clockPair {
	out := make([]clockPair, 0, k)
	for i := 0; len(out) < k; i++ {
		r := i % in.spec.rounds
		a, b := (i*7)%in.n, (i*13+1)%in.n
		x, y := in.stream(a, r), in.stream(b, r)
		out = append(out, clockPair{x.Lo, x.Hi, y.Lo, y.Hi})
	}
	return out
}

// sample returns up to k base intervals of round r, for the interval kernels.
func (in *inputs) sample(r, k int) []interval.Interval {
	if k > in.n {
		k = in.n
	}
	out := make([]interval.Interval, k)
	for i := range out {
		out[i] = in.stream(i*in.n/k, r)
	}
	return out
}

func vclockKernels(in *inputs, m metrics) {
	pairs := clockPairs(in, 1024)
	m.set("vclock.less_ns", "ns", timeLoop(func(i int) {
		p := &pairs[i&1023]
		sinkBool = p.aLo.Less(p.bHi)
	}))
	m.set("vclock.compare_less_ns", "ns", timeLoop(func(i int) {
		p := &pairs[i&1023]
		sinkBool, _ = vclock.CompareLess(p.aLo, p.bHi, p.bLo, p.aHi)
	}))
	scratch := vclock.New(in.n)
	m.set("vclock.merge_max_ns", "ns", timeLoop(func(i int) {
		scratch.MergeMax(pairs[i&1023].aHi)
	}))

	// Consecutive clocks of one stream: what delta chaining compresses.
	type step struct{ v, base vclock.VC }
	steps := make([]step, 0, 1024)
	for i := 0; len(steps) < 1024 && in.spec.rounds > 1; i++ {
		p, r := i%in.n, (i/in.n)%(in.spec.rounds-1)
		steps = append(steps, step{in.stream(p, r+1).Lo, in.stream(p, r).Hi})
	}
	if len(steps) == 0 {
		return
	}
	var buf []byte
	bytes := 0
	for _, s := range steps {
		buf = s.v.AppendDelta(buf[:0], s.base)
		bytes += len(buf)
	}
	m.set("vclock.delta_bytes_per_clock", "B", float64(bytes)/float64(len(steps)))
	m.set("vclock.append_delta_ns", "ns", timeLoop(func(i int) {
		s := &steps[i%len(steps)]
		buf = s.v.AppendDelta(buf[:0], s.base)
	}))
	encoded := make([][]byte, len(steps))
	for i, s := range steps {
		encoded[i] = s.v.AppendDelta(nil, s.base)
	}
	var dst vclock.VC
	m.set("vclock.consume_delta_ns", "ns", timeLoop(func(i int) {
		k := i % len(steps)
		if _, err := vclock.ConsumeDelta(encoded[k], &dst, steps[k].base); err != nil {
			panic(err) // our own encoding: cannot be corrupt
		}
	}))
}

func intervalKernels(in *inputs, m metrics) {
	round := in.sample(0, in.n)
	m.set("interval.overlap_ns", "ns", timeLoop(func(i int) {
		sinkBool = interval.Overlap(round[i%len(round)], round[(i*5+1)%len(round)])
	}))
	// A 16-member solution set of one round (a global or group pulse when
	// the workload has one; aggregation cost does not depend on overlap).
	members := in.sample(0, 16)
	store := vclock.NewStore(in.n)
	m.set("interval.aggregate_flat_ns", "ns", timeLoop(func(i int) {
		if i&1023 == 0 {
			store = vclock.NewStore(in.n) // let the carved chunks go
		}
		sinkInt = interval.AggregateFlat(store, members, 0, i, false).Bases
	}))
	q := interval.NewQueue()
	m.set("interval.queue_cycle_ns", "ns", timeLoop(func(i int) {
		q.Enqueue(round[i%len(round)])
		sinkInt = q.Head().Seq
		q.DeleteHead()
	}))
}

// wireKernels times the v2 codec over the reference run's captured report
// streams, each report delta-chained against its predecessor's Hi exactly as
// a batch frame and a TCP connection's rebaser chain them.
func wireKernels(ref *reference, m metrics) {
	if len(ref.reports) == 0 {
		return
	}
	type item struct {
		r     wire.Report
		basis vclock.VC
		frame []byte
	}
	var items []item
	var batches [][]repair.Report // runs of 8 from one origin
	for s := 0; s+1 < len(ref.reportStart); s++ {
		stream := ref.reports[ref.reportStart[s]:ref.reportStart[s+1]]
		var basis vclock.VC
		for _, rep := range stream {
			r := wire.Report{Iv: rep.Iv, LinkSeq: rep.LinkSeq, Epoch: rep.Epoch}
			items = append(items, item{r: r, basis: basis, frame: wire.AppendReportV2(nil, r, basis)})
			basis = rep.Iv.Hi
		}
		for i := 0; i+8 <= len(stream); i += 8 {
			batches = append(batches, stream[i:i+8])
		}
	}
	bytes := 0
	for _, it := range items {
		bytes += len(it.frame)
	}
	m.set("wire.bytes_per_report", "B", float64(bytes)/float64(len(items)))

	buf := make([]byte, 0, 64<<10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calls := 0
	m.set("wire.encode_v2_ns", "ns", timeLoop(func(i int) {
		it := &items[i%len(items)]
		buf = wire.AppendReportV2(buf[:0], it.r, it.basis)
		calls++
	}))
	runtime.ReadMemStats(&after)
	m.set("wire.encode_allocs_per_report", "count", float64(after.Mallocs-before.Mallocs)/float64(calls))
	var into wire.Report
	m.set("wire.decode_v2_ns", "ns", timeLoop(func(i int) {
		it := &items[i%len(items)]
		if err := wire.DecodeReportInto(it.frame, &into, it.basis); err != nil {
			panic(err) // our own encoding: cannot be corrupt
		}
	}))
	if len(batches) == 0 {
		return
	}
	m.set("wire.batch_encode_ns_per_report", "ns", timeLoop(func(i int) {
		buf = wire.AppendReportBatch(buf[:0], batches[i%len(batches)])
	})/8)
	frames := make([][]byte, len(batches))
	for i, b := range batches {
		frames[i] = wire.AppendReportBatch(nil, b)
	}
	m.set("wire.batch_decode_ns_per_report", "ns", timeLoop(func(i int) {
		reps, err := wire.DecodeReportBatch(frames[i%len(frames)])
		if err != nil {
			panic(err)
		}
		sinkInt = len(reps)
	})/8)
}

// tcpLoopback measures two transports on 127.0.0.1 moving the captured
// report frames: flood throughput with a bounded window in flight, then
// one-at-a-time Send → receive-callback latency.
func tcpLoopback(ref *reference, m metrics) error {
	if len(ref.reports) == 0 {
		return nil
	}
	frames := make([][]byte, 0, len(ref.reports))
	for _, rep := range ref.reports {
		frames = append(frames, wire.EncodeReportV2(wire.Report{Iv: rep.Iv, LinkSeq: rep.LinkSeq}))
	}
	a, err := tcptransport.New(tcptransport.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		return fmt.Errorf("tcp loopback: %w", err)
	}
	defer a.Close()
	b, err := tcptransport.New(tcptransport.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		return fmt.Errorf("tcp loopback: %w", err)
	}
	defer b.Close()
	const dest = 1
	a.SetPeers(map[int]string{dest: b.Addr()})
	var received atomic.Int64
	arrived := make(chan struct{}, 1)
	if err := b.Start(func(int, []byte) {
		received.Add(1)
		select {
		case arrived <- struct{}{}:
		default:
		}
	}); err != nil {
		return fmt.Errorf("tcp loopback: %w", err)
	}
	if err := a.Start(func(int, []byte) {}); err != nil {
		return fmt.Errorf("tcp loopback: %w", err)
	}
	waitFor := func(n int64) error {
		deadline := time.After(stallLimit)
		for received.Load() < n {
			select {
			case <-arrived:
			case <-deadline:
				return fmt.Errorf("tcp loopback: %d of %d frames arrived in %v", received.Load(), n, stallLimit)
			}
		}
		return nil
	}

	// Latency first (it also dials): one frame in flight at a time.
	const pings = 1000
	rtt := make([]float64, 0, pings)
	for i := 0; i < pings; i++ {
		t0 := time.Now()
		a.Send(dest, frames[i%len(frames)])
		if err := waitFor(int64(i + 1)); err != nil {
			return err
		}
		rtt = append(rtt, float64(time.Since(t0))/1e3)
	}
	sort.Float64s(rtt)
	m.set("tcptransport.loopback_rtt_p50_us", "us", quantile(rtt, 0.5))

	// Throughput: at most window frames outstanding, well under the
	// transport's drop-oldest backlog (4096).
	const total, window = 40000, 1024
	start := time.Now()
	for i := 0; i < total; i++ {
		for int64(pings+i)-received.Load() >= window {
			runtime.Gosched()
		}
		a.Send(dest, frames[i%len(frames)])
	}
	if err := waitFor(pings + total); err != nil {
		return err
	}
	m.set("tcptransport.loopback_frames_per_sec", "1/s", total/time.Since(start).Seconds())
	return nil
}

// calibrationScore runs a fixed integer kernel and returns operations per
// second — a per-box number stored with every result so entries from
// different machines can be compared instead of "only within one machine".
func calibrationScore() float64 {
	const ops = 40_000_000
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < ops; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sinkInt = int(x & 1)
	return ops / time.Since(start).Seconds()
}
