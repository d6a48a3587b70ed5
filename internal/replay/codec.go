package replay

// Binary trace codec. The format follows the internal/wire conventions:
// magic-then-version framing, little-endian varints, zig-zag for signed
// fields, explicit pre-allocation caps on every count a frame claims, and
// every decode error wrapping wire.ErrCorrupt or wire.ErrTruncated so
// callers (and the fuzz harness) can classify failures without string
// matching.
//
// Layout, all fields in order:
//
//	trace := magic "HDTR" | version u8 (1) |
//	         nNodes uv | parent zz[nNodes] | flags u8 |
//	         planeLen uv | plane bytes |
//	         rounds uv | wlSeed zz | pGlobal f64 | pGroup f64 | pSubset f64 |
//	         maxDelay uv | hbEvery uv | 0 uv | seekTimeout uv |
//	         deliverySeed zz |
//	         nSteps uv | step[nSteps] |
//	         nEvents uv | event[nEvents] |
//	         nDetections uv | outcomeLen uv | outcome bytes
//
//	step  := kind u8 | (observe: lo uv, hi−lo uv) (kill: node uv) | Δat zz
//	event := kind u8 | node zz | peer zz | seq zz | count zz | atRoot u8 | Δat zz
//
// Durations and probabilities travel as uvarint nanoseconds and IEEE-754
// bits respectively; Δat is the zig-zag delta from the previous entry's At
// (the streams are near-monotone, so deltas stay short). The codec is
// self-contained per trace — no cross-trace state, unlike the wire
// package's basis-relative report chaining.

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"time"

	"hierdet/internal/tree"
	"hierdet/internal/wire"
)

// traceMagic opens every trace file; traceVersion is the current format.
var traceMagic = [4]byte{'H', 'D', 'T', 'R'}

const traceVersion = 1

// Format caps: decoders refuse counts beyond these before allocating, so a
// corrupt or adversarial header cannot demand gigabytes (the wire.MaxSpan
// discipline).
const (
	maxTraceNodes  = 1 << 20
	maxTraceSteps  = 1 << 20
	maxTraceEvents = 1 << 26
	maxTracePlane  = 64
	maxOutcomeLen  = 1 << 28
)

// AppendTrace appends the binary encoding of t to dst and returns the
// extended buffer.
func AppendTrace(dst []byte, t *Trace) []byte {
	dst = append(dst, traceMagic[:]...)
	dst = append(dst, traceVersion)
	dst = binary.AppendUvarint(dst, uint64(len(t.Parents)))
	for _, p := range t.Parents {
		dst = binary.AppendVarint(dst, int64(p))
	}
	var flags byte
	if t.TreeLinksOnly {
		flags |= 1 << 0
	}
	if t.Deterministic {
		flags |= 1 << 1
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(t.Plane)))
	dst = append(dst, t.Plane...)
	dst = binary.AppendUvarint(dst, uint64(t.Workload.Rounds))
	dst = binary.AppendVarint(dst, t.Workload.Seed)
	for _, p := range [3]float64{t.Workload.PGlobal, t.Workload.PGroup, t.Workload.PSubset} {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p))
	}
	// Slot three held the fixed suspicion timeout: written 0, read and ignored.
	for _, d := range [4]time.Duration{t.MaxDelay, t.HbEvery, 0, t.SeekTimeout} {
		dst = binary.AppendUvarint(dst, uint64(d))
	}
	dst = binary.AppendVarint(dst, t.DeliverySeed)
	dst = binary.AppendUvarint(dst, uint64(len(t.Schedule)))
	prev := int64(0)
	for _, s := range t.Schedule {
		dst = append(dst, byte(s.Kind))
		switch s.Kind {
		case StepObserve:
			dst = binary.AppendUvarint(dst, uint64(s.Lo))
			dst = binary.AppendUvarint(dst, uint64(s.Hi-s.Lo))
		case StepKill:
			dst = binary.AppendUvarint(dst, uint64(s.Node))
		}
		dst = binary.AppendVarint(dst, s.At-prev)
		prev = s.At
	}
	dst = binary.AppendUvarint(dst, uint64(len(t.Events)))
	prev = 0
	for _, e := range t.Events {
		dst = append(dst, e.Kind)
		dst = binary.AppendVarint(dst, int64(e.Node))
		dst = binary.AppendVarint(dst, int64(e.Peer))
		dst = binary.AppendVarint(dst, int64(e.Seq))
		dst = binary.AppendVarint(dst, int64(e.Count))
		if e.AtRoot {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = binary.AppendVarint(dst, e.At-prev)
		prev = e.At
	}
	dst = binary.AppendUvarint(dst, uint64(t.Detections))
	dst = binary.AppendUvarint(dst, uint64(len(t.Outcome)))
	dst = append(dst, t.Outcome...)
	return dst
}

// DecodeTrace parses a binary trace. Every error wraps wire.ErrCorrupt or
// wire.ErrTruncated.
func DecodeTrace(data []byte) (*Trace, error) {
	d := decoder{rest: data}
	if len(d.rest) < len(traceMagic)+1 {
		return nil, fmt.Errorf("replay: trace header: %w", wire.ErrTruncated)
	}
	if [4]byte(d.rest[:4]) != traceMagic {
		return nil, fmt.Errorf("replay: bad trace magic %q: %w", d.rest[:4], wire.ErrCorrupt)
	}
	if v := d.rest[4]; v != traceVersion {
		return nil, fmt.Errorf("replay: trace version %d (have %d): %w", v, traceVersion, wire.ErrCorrupt)
	}
	d.rest = d.rest[5:]

	t := &Trace{}
	n := d.count("node count", maxTraceNodes)
	if d.err == nil && n > 0 {
		t.Parents = make([]int, n)
		for i := range t.Parents {
			p := d.zigzag("parent")
			if d.err == nil && (p < tree.None || p >= int64(n) || p == int64(i)) {
				d.fail("parent %d of node %d in a %d-node tree: %w", p, i, n, wire.ErrCorrupt)
			}
			t.Parents[i] = int(p)
		}
	}
	flags := d.byte("flags")
	if d.err == nil && flags&^byte(0b11) != 0 {
		d.fail("trace flags 0x%02x: %w", flags, wire.ErrCorrupt)
	}
	t.TreeLinksOnly = flags&(1<<0) != 0
	t.Deterministic = flags&(1<<1) != 0

	planeLen := d.count("plane name length", maxTracePlane)
	if d.err == nil {
		if len(d.rest) < int(planeLen) {
			d.fail("plane name: %w", wire.ErrTruncated)
		} else {
			t.Plane = string(d.rest[:planeLen])
			d.rest = d.rest[planeLen:]
		}
	}

	t.Workload.Rounds = int(d.count("round count", maxTraceSteps))
	t.Workload.Seed = d.zigzag("workload seed")
	probs := [3]*float64{&t.Workload.PGlobal, &t.Workload.PGroup, &t.Workload.PSubset}
	sum := 0.0
	for i, p := range probs {
		*p = d.float("workload probability")
		if d.err == nil && (math.IsNaN(*p) || *p < 0 || *p > 1) {
			d.fail("workload probability %d = %v: %w", i, *p, wire.ErrCorrupt)
		}
		sum += *p
	}
	if d.err == nil && sum > 1 {
		d.fail("workload probabilities sum to %v: %w", sum, wire.ErrCorrupt)
	}
	for _, dur := range [4]*time.Duration{&t.MaxDelay, &t.HbEvery, new(time.Duration), &t.SeekTimeout} {
		*dur = time.Duration(d.duration("delivery knob"))
	}
	t.DeliverySeed = d.zigzag("delivery seed")

	nSteps := d.count("step count", maxTraceSteps)
	if d.err == nil && nSteps > uint64(len(d.rest)) {
		d.fail("%d steps in %d bytes: %w", nSteps, len(d.rest), wire.ErrTruncated)
	}
	if d.err == nil && nSteps > 0 {
		t.Schedule = make([]Step, 0, nSteps)
		at := int64(0)
		for i := uint64(0); i < nSteps && d.err == nil; i++ {
			s := Step{Kind: StepKind(d.byte("step kind"))}
			switch s.Kind {
			case StepObserve:
				s.Lo = int(d.count("step lo", maxTraceSteps))
				s.Hi = s.Lo + int(d.count("step span", maxTraceSteps))
				if d.err == nil && s.Hi > t.Workload.Rounds {
					d.fail("observe step [%d,%d) of %d rounds: %w", s.Lo, s.Hi, t.Workload.Rounds, wire.ErrCorrupt)
				}
			case StepKill:
				s.Node = int(d.count("kill victim", maxTraceNodes))
				if d.err == nil && s.Node >= int(n) {
					d.fail("kill of node %d in a %d-node tree: %w", s.Node, n, wire.ErrCorrupt)
				}
			default:
				if d.err == nil {
					d.fail("step kind %d: %w", s.Kind, wire.ErrCorrupt)
				}
			}
			at += d.zigzag("step offset")
			s.At = at
			t.Schedule = append(t.Schedule, s)
		}
	}

	nEvents := d.count("event count", maxTraceEvents)
	if d.err == nil && nEvents > uint64(len(d.rest)) {
		d.fail("%d events in %d bytes: %w", nEvents, len(d.rest), wire.ErrTruncated)
	}
	if d.err == nil && nEvents > 0 {
		t.Events = make([]EventRec, 0, nEvents)
		at := int64(0)
		for i := uint64(0); i < nEvents && d.err == nil; i++ {
			e := EventRec{Kind: d.byte("event kind")}
			if d.err == nil && (e.Kind == 0 || int(e.Kind) >= 1<<7) {
				d.fail("event kind %d: %w", e.Kind, wire.ErrCorrupt)
			}
			e.Node = int(d.zigzag("event node"))
			e.Peer = int(d.zigzag("event peer"))
			e.Seq = int(d.zigzag("event seq"))
			e.Count = int(d.zigzag("event count"))
			switch d.byte("event atRoot") {
			case 0:
			case 1:
				e.AtRoot = true
			default:
				if d.err == nil {
					d.fail("event atRoot byte: %w", wire.ErrCorrupt)
				}
			}
			at += d.zigzag("event offset")
			e.At = at
			t.Events = append(t.Events, e)
		}
	}

	t.Detections = int(d.count("detection count", maxTraceEvents))
	outLen := d.count("outcome length", maxOutcomeLen)
	if d.err == nil {
		if len(d.rest) < int(outLen) {
			d.fail("outcome blob: %w", wire.ErrTruncated)
		} else {
			if outLen > 0 {
				t.Outcome = append([]byte(nil), d.rest[:outLen]...)
			}
			d.rest = d.rest[outLen:]
		}
	}
	if d.err == nil && len(d.rest) != 0 {
		d.fail("%d trailing bytes: %w", len(d.rest), wire.ErrCorrupt)
	}
	if d.err != nil {
		return nil, d.err
	}
	return t, nil
}

// WriteFile atomically writes t's encoding to path (write to a sibling temp
// file, then rename), so a crashed recorder never leaves a half trace where
// a soak harness would try to replay it.
func WriteFile(path string, t *Trace) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, AppendTrace(nil, t), 0o644); err != nil {
		return fmt.Errorf("replay: write trace: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("replay: write trace: %w", err)
	}
	return nil
}

// ReadFile reads and decodes a trace file written by WriteFile.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("replay: read trace: %w", err)
	}
	return DecodeTrace(data)
}

// decoder carries the cursor and the first error through a decode, so the
// field readers stay one-liners at the call sites.
type decoder struct {
	rest []byte
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("replay: "+format, args...)
	}
}

func (d *decoder) byte(what string) byte {
	if d.err != nil {
		return 0
	}
	if len(d.rest) == 0 {
		d.fail("%s: %w", what, wire.ErrTruncated)
		return 0
	}
	b := d.rest[0]
	d.rest = d.rest[1:]
	return b
}

func (d *decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, sz := binary.Uvarint(d.rest)
	if sz <= 0 {
		if sz == 0 {
			d.fail("%s: %w", what, wire.ErrTruncated)
		} else {
			d.fail("%s overflows varint: %w", what, wire.ErrCorrupt)
		}
		return 0
	}
	d.rest = d.rest[sz:]
	return v
}

// count reads a uvarint that sizes an allocation and enforces its cap.
func (d *decoder) count(what string, limit uint64) uint64 {
	v := d.uvarint(what)
	if d.err == nil && v > limit {
		d.fail("%s %d exceeds cap %d: %w", what, v, limit, wire.ErrCorrupt)
		return 0
	}
	return v
}

func (d *decoder) zigzag(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, sz := binary.Varint(d.rest)
	if sz <= 0 {
		if sz == 0 {
			d.fail("%s: %w", what, wire.ErrTruncated)
		} else {
			d.fail("%s overflows varint: %w", what, wire.ErrCorrupt)
		}
		return 0
	}
	d.rest = d.rest[sz:]
	return v
}

// duration reads a uvarint nanosecond count that must fit time.Duration.
func (d *decoder) duration(what string) int64 {
	v := d.uvarint(what)
	if d.err == nil && v > math.MaxInt64 {
		d.fail("%s of %d ns overflows a duration: %w", what, v, wire.ErrCorrupt)
		return 0
	}
	return int64(v)
}

func (d *decoder) float(what string) float64 {
	if d.err != nil {
		return 0
	}
	if len(d.rest) < 8 {
		d.fail("%s: %w", what, wire.ErrTruncated)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.rest))
	d.rest = d.rest[8:]
	return v
}
