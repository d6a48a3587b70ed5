package tcptransport

import (
	"sync/atomic"
	"testing"
	"time"

	"hierdet/internal/wire"
)

// BenchmarkLoopbackRoundTrip measures the full TCP path a deployed report
// takes: enqueue → coalesced write (with delta rebase) → kernel loopback →
// read (with un-delta) → decode at the consumer, as any real handler does.
// Sub-benchmarks send the same near-monotone report stream two ways: v1
// framing (which passes both sides untouched) and v2 with per-connection
// delta chaining. Loopback has effectively infinite bandwidth, so this is
// the adversarial case for the chained codec, whose decode + re-encode is
// pure overhead here; the bytes-out/frame metric is what it buys on a real
// link.
func BenchmarkLoopbackRoundTrip(b *testing.B) {
	stream := reportStream(1, 256, 64)
	v1 := make([][]byte, len(stream))
	v2 := make([][]byte, len(stream))
	for i, rep := range stream {
		var err error
		if v1[i], err = wire.EncodeReport(rep); err != nil {
			b.Fatal(err)
		}
		v2[i] = wire.EncodeReportV2(rep)
	}
	for _, tc := range []struct {
		name   string
		frames [][]byte
	}{{"v1", v1}, {"v2", v2}} {
		b.Run(tc.name, func(b *testing.B) {
			sink, err := New(Config{Listen: "127.0.0.1:0"})
			if err != nil {
				b.Fatal(err)
			}
			defer sink.Close()
			var delivered atomic.Int64
			var rep wire.Report
			if err := sink.Start(func(_ int, frame []byte) {
				if err := wire.DecodeReportInto(frame, &rep, nil); err != nil {
					b.Error(err)
				}
				delivered.Add(1)
			}); err != nil {
				b.Fatal(err)
			}
			src, err := New(Config{Listen: "127.0.0.1:0", Peers: map[int]string{1: sink.Addr()}})
			if err != nil {
				b.Fatal(err)
			}
			defer src.Close()
			if err := src.Start(func(int, []byte) {}); err != nil {
				b.Fatal(err)
			}

			b.SetBytes(int64(len(tc.frames[0])))
			b.ResetTimer()
			// Bound the in-flight window below the transport's MaxBacklog
			// (4096 default): an unthrottled send loop outruns the initial
			// dial, overflows the drop-oldest queue, and the delivered==N
			// wait below never finishes. Keep the window large enough that
			// writer, kernel and reader stay pipelined rather than running
			// in lock-step bursts.
			const window = 3072
			for i := 0; i < b.N; i++ {
				for int64(i)-delivered.Load() >= window {
					time.Sleep(50 * time.Microsecond)
				}
				src.Send(1, tc.frames[i%len(tc.frames)])
			}
			for delivered.Load() < int64(b.N) {
				time.Sleep(50 * time.Microsecond)
			}
			b.StopTimer()
			st := src.Stats()
			b.ReportMetric(float64(st.FramesOut)/float64(max(st.Flushes, 1)), "frames/flush")
			b.ReportMetric(float64(st.BytesOut)/float64(max(st.FramesOut, 1)), "bytes-out/frame")
		})
	}
}

// BenchmarkRebase isolates the writer-side cost of the per-connection delta
// rebase: decode-into, delta re-encode, basis update — the CPU the transport
// spends to shrink each report frame on the wire.
func BenchmarkRebase(b *testing.B) {
	stream := reportStream(1, 256, 64)
	frames := make([][]byte, len(stream))
	for i, rep := range stream {
		frames[i] = wire.EncodeReportV2(rep)
	}
	var reb rebaser
	reb.reset()
	var out int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out += len(reb.rebase(1, frames[i%len(frames)]))
	}
	b.StopTimer()
	b.ReportMetric(float64(out)/float64(b.N), "bytes-out/frame")
}
