package workload

import (
	"encoding/json"
	"fmt"

	"hierdet/internal/interval"
	"hierdet/internal/vclock"
)

// The JSON trace format stores a full execution so experiments can be
// re-run, diffed across detector versions, or inspected by hand. It is a
// faithful dump: per-process interval streams in succession order plus the
// per-round ground truth.

type executionJSON struct {
	N       int              `json:"n"`
	Streams [][]intervalJSON `json:"streams"`
	Rounds  []roundJSON      `json:"rounds,omitempty"`
}

type intervalJSON struct {
	Origin int      `json:"origin"`
	Seq    int      `json:"seq"`
	Lo     []uint32 `json:"lo"`
	Hi     []uint32 `json:"hi"`
	Term   []uint32 `json:"term,omitempty"`
}

type roundJSON struct {
	Kind   string  `json:"kind"`
	Depth  int     `json:"depth,omitempty"`
	Groups [][]int `json:"groups"`
}

// MarshalJSON implements json.Marshaler for Execution.
func (e *Execution) MarshalJSON() ([]byte, error) {
	out := executionJSON{N: e.N, Streams: make([][]intervalJSON, len(e.Streams))}
	for p, s := range e.Streams {
		out.Streams[p] = make([]intervalJSON, len(s))
		for k, iv := range s {
			out.Streams[p][k] = intervalJSON{
				Origin: iv.Origin, Seq: iv.Seq,
				Lo:   append([]uint32(nil), iv.Lo...),
				Hi:   append([]uint32(nil), iv.Hi...),
				Term: append([]uint32(nil), iv.Term()...),
			}
		}
	}
	for _, r := range e.Rounds {
		out.Rounds = append(out.Rounds, roundJSON{
			Kind: r.Kind.String(), Depth: r.Depth, Groups: r.Groups,
		})
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler for Execution, validating the
// trace's internal consistency (clock sizes, origins, succession order).
func (e *Execution) UnmarshalJSON(data []byte) error {
	var in executionJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.N <= 0 || len(in.Streams) != in.N {
		return fmt.Errorf("workload: trace has n=%d but %d streams", in.N, len(in.Streams))
	}
	out := Execution{N: in.N, Streams: make([][]interval.Interval, in.N)}
	for p, s := range in.Streams {
		for k, ivj := range s {
			if len(ivj.Lo) != in.N || len(ivj.Hi) != in.N {
				return fmt.Errorf("workload: interval %d of process %d has clock size %d/%d, want %d",
					k, p, len(ivj.Lo), len(ivj.Hi), in.N)
			}
			if ivj.Origin != p {
				return fmt.Errorf("workload: interval %d in stream %d claims origin %d", k, p, ivj.Origin)
			}
			iv := interval.New(ivj.Origin, ivj.Seq, vclock.VC(ivj.Lo), vclock.VC(ivj.Hi))
			if len(ivj.Term) > 0 {
				if len(ivj.Term) != in.N {
					return fmt.Errorf("workload: interval %d of process %d has term size %d, want %d",
						k, p, len(ivj.Term), in.N)
				}
				iv.SetTerm(vclock.VC(ivj.Term))
			}
			if !iv.WellFormed() {
				return fmt.Errorf("workload: interval %d of process %d is ill-formed", k, p)
			}
			if k > 0 && !out.Streams[p][k-1].Hi.Less(iv.Lo) {
				return fmt.Errorf("workload: stream %d violates succession at interval %d", p, k)
			}
			out.Streams[p] = append(out.Streams[p], iv)
		}
	}
	for i, rj := range in.Rounds {
		var kind Kind
		switch rj.Kind {
		case "global":
			kind = Global
		case "group":
			kind = Group
		case "isolated":
			kind = Isolated
		case "subset":
			kind = Subset
		default:
			return fmt.Errorf("workload: round %d has unknown kind %q", i, rj.Kind)
		}
		out.Rounds = append(out.Rounds, Round{Kind: kind, Depth: rj.Depth, Groups: rj.Groups})
	}
	*e = out
	return nil
}
