package replay

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"hierdet/internal/tree"
	"hierdet/internal/wire"
)

// sampleTrace exercises every field of the format: a five-node tree, both
// flag bits, both step kinds, several event kinds with negative peers, and
// an outcome blob.
func sampleTrace() *Trace {
	return &Trace{
		Parents:       []int{tree.None, 0, 0, 1, 1},
		TreeLinksOnly: true,
		Deterministic: true,
		Plane:         PlaneSharded,
		Workload:      WorkloadSpec{Rounds: 12, Seed: -7, PGlobal: 0.5, PGroup: 0.25, PSubset: 0.1},
		MaxDelay:      150 * time.Microsecond,
		HbEvery:       2 * time.Millisecond,
		SeekTimeout:   40 * time.Millisecond,
		DeliverySeed:  -3,
		Schedule: []Step{
			{Kind: StepObserve, Lo: 0, Hi: 6, At: 1000},
			{Kind: StepKill, Node: 3, At: 250_000},
			{Kind: StepObserve, Lo: 6, Hi: 12, At: 300_000},
		},
		Events: []EventRec{
			{Kind: 1, Node: 4, Peer: -1, Seq: 0, Count: 6, At: 1100},
			{Kind: 4, Node: 0, Peer: -1, Seq: 2, Count: 1, AtRoot: true, At: 2200},
			{Kind: 7, Node: 3, Peer: -1, Seq: 0, Count: 1, At: 260_000},
		},
		Outcome:    []byte{0x01, 0x02, 0x03},
		Detections: 1,
	}
}

func TestTraceRoundTrip(t *testing.T) {
	for name, tr := range map[string]*Trace{
		"full": sampleTrace(),
		"minimal": {
			Parents:  []int{tree.None},
			Plane:    "legacy", // a removed plane's name is still just a name to the codec
			Workload: WorkloadSpec{Rounds: 1, Seed: 1},
		},
	} {
		t.Run(name, func(t *testing.T) {
			enc := AppendTrace(nil, tr)
			got, err := DecodeTrace(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, tr) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
			}
			if re := AppendTrace(nil, got); !bytes.Equal(re, enc) {
				t.Fatalf("re-encoding differs: %d vs %d bytes", len(re), len(enc))
			}
		})
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/run.hdtr"
	want := sampleTrace()
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("file round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestDecodeTraceErrors(t *testing.T) {
	good := AppendTrace(nil, sampleTrace())
	cases := map[string]struct {
		mut  func([]byte) []byte
		want error
	}{
		"empty":          {func(b []byte) []byte { return b[:0] }, wire.ErrTruncated},
		"bad magic":      {func(b []byte) []byte { b[0] = 'X'; return b }, wire.ErrCorrupt},
		"bad version":    {func(b []byte) []byte { b[4] = 99; return b }, wire.ErrCorrupt},
		"header only":    {func(b []byte) []byte { return b[:5] }, wire.ErrTruncated},
		"truncated tail": {func(b []byte) []byte { return b[:len(b)-2] }, wire.ErrTruncated},
		"trailing bytes": {func(b []byte) []byte { return append(b, 0xEE) }, wire.ErrCorrupt},
		"bad flags":      {func(b []byte) []byte { b[11] = 0xF0; return b }, wire.ErrCorrupt},
		"self parent":    {func(b []byte) []byte { b[6] = 0x00; return b }, wire.ErrCorrupt},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			data := tc.mut(append([]byte(nil), good...))
			_, err := DecodeTrace(data)
			if !errors.Is(err, tc.want) {
				t.Fatalf("error = %v, want wrapping %v", err, tc.want)
			}
		})
	}
}

// The flags byte position asserted above ("bad flags", "self parent") is
// structural: magic(4) + version(1) + nNodes(1) + 5 one-byte parents puts
// flags at offset 11 and node 1's parent at offset 6. Pin it so the cases
// fail loudly if the sample or format shifts.
func TestSampleLayoutAnchors(t *testing.T) {
	enc := AppendTrace(nil, sampleTrace())
	if enc[5] != 5 {
		t.Fatalf("node-count byte = %d, want 5 (sample changed; update TestDecodeTraceErrors offsets)", enc[5])
	}
	if enc[11] != 0b11 {
		t.Fatalf("flags byte = %#x at offset 11, want 0b11", enc[11])
	}
}

func FuzzDecodeTrace(f *testing.F) {
	f.Add(AppendTrace(nil, sampleTrace()))
	f.Add(AppendTrace(nil, &Trace{
		Parents:  []int{tree.None, 0},
		Plane:    PlaneParallel,
		Workload: WorkloadSpec{Rounds: 3},
		Schedule: []Step{{Kind: StepObserve, Lo: 0, Hi: 3}},
	}))
	f.Add([]byte("HDTR\x01"))
	f.Add([]byte{})
	if golden, err := os.ReadFile("testdata/pre_pr23.hdtr"); err == nil {
		f.Add(golden) // a nonzero value in the retired third duration slot
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTrace(data)
		if err != nil {
			if !errors.Is(err, wire.ErrCorrupt) && !errors.Is(err, wire.ErrTruncated) {
				t.Fatalf("decode error %v wraps neither ErrCorrupt nor ErrTruncated", err)
			}
			return
		}
		// Whatever decodes must re-encode canonically: encode → decode is
		// the identity on decoded traces.
		enc := AppendTrace(nil, tr)
		tr2, err := DecodeTrace(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if !reflect.DeepEqual(tr, tr2) {
			t.Fatalf("canonical round trip diverged:\n first %+v\nsecond %+v", tr, tr2)
		}
		if enc2 := AppendTrace(nil, tr2); !bytes.Equal(enc, enc2) {
			t.Fatal("canonical encoding is not a fixed point")
		}
		// A decoded trace must never panic topology reconstruction — a
		// hostile parent array comes back as an error, not a crash.
		_, _ = TopologyOf(tr)
	})
}

// TestPreLearnedTimeoutTraceReplays: testdata/pre_pr23.hdtr was recorded by
// the commit before the suspicion timeout became a per-link estimate — seven
// nodes in one process, a leaf killed after round 3, 2 ms beats and a 12 ms
// HbTimeout in the header's third duration slot. That slot is still in the
// format (traceVersion unchanged): the value is read and ignored, everything
// else decodes as recorded, the trace replays to the recorded outcome on both
// planes, and re-encoding writes the slot as zero and nothing else differently.
func TestPreLearnedTimeoutTraceReplays(t *testing.T) {
	golden, err := os.ReadFile("testdata/pre_pr23.hdtr")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := DecodeTrace(golden)
	if err != nil {
		t.Fatalf("a pre-change trace does not decode: %v", err)
	}
	if len(tr.Parents) != 7 || tr.HbEvery != 2*time.Millisecond || !tr.Deterministic ||
		tr.Plane != PlaneSharded || tr.Detections != 51 || len(tr.Events) != 204 {
		t.Fatalf("golden trace decoded as %d nodes, HbEvery %v, deterministic %v, plane %q, %d detections, %d events",
			len(tr.Parents), tr.HbEvery, tr.Deterministic, tr.Plane, tr.Detections, len(tr.Events))
	}
	re := AppendTrace(nil, tr)
	if len(re) != len(golden)-3 { // 12 ms is a four-byte uvarint, zero a one-byte one
		t.Errorf("re-encoding is %d bytes for the golden %d, want three fewer (the zeroed slot)", len(re), len(golden))
	}
	if again, err := DecodeTrace(re); err != nil || !reflect.DeepEqual(again, tr) {
		t.Errorf("re-encoded golden trace decodes differently (err %v)", err)
	}
	for _, plane := range Planes() {
		t.Run(plane, func(t *testing.T) { replayOn(t, tr, plane) })
	}
}
