package monitor

import (
	"fmt"

	"hierdet/internal/centralized"
	"hierdet/internal/core"
	"hierdet/internal/interval"
	"hierdet/internal/repair"
	"hierdet/internal/simnet"
)

// fwdPayload is one raw interval being routed toward the sink. Each tree-edge
// hop is a separate message — the cost model of paper Eq. 12, where an
// interval generated at level i costs h−i messages.
type fwdPayload struct {
	Iv interval.Interval
}

// centRuntime holds the centralized baseline's state: the sink detector plus
// per-origin resequencers (multi-hop routes over a non-FIFO network reorder
// intervals even from a single origin).
type centRuntime struct {
	sink      *centralized.Sink
	sinkAgent *centAgent
	reseq     map[int]*repair.Resequencer[ivlPayload]
	removed   map[int]bool
	// undeliverable counts intervals dropped because the network partitioned
	// and no route to the sink remained.
	undeliverable int
}

// centAgent is one process in centralized mode: it originates its own
// intervals and relays others' toward the sink.
type centAgent struct {
	r      *Runner
	id     int
	isSink bool
}

func (r *Runner) buildCentralized() {
	sinkID := r.cfg.SinkID
	if !r.topo.Alive(sinkID) {
		panic(fmt.Sprintf("monitor: sink %d is not alive", sinkID))
	}
	participants := r.topo.AliveNodes()
	sink := centralized.NewSink(sinkID, core.Config{
		N:           r.topo.N(),
		Strict:      r.cfg.Strict,
		KeepMembers: r.cfg.KeepMembers,
	}, participants)
	r.cent = &centRuntime{
		sink:    sink,
		reseq:   make(map[int]*repair.Resequencer[ivlPayload]),
		removed: make(map[int]bool),
	}
	for _, p := range participants {
		r.cent.reseq[p] = repair.NewResequencer[ivlPayload]()
	}
	for _, id := range participants {
		a := &centAgent{r: r, id: id, isSink: id == sinkID}
		if a.isSink {
			r.cent.sinkAgent = a
		}
		r.sim.Register(id, a)
	}
}

// OnTimer implements simnet.Handler: a process's local interval completed.
func (a *centAgent) OnTimer(at simnet.Time, kind simnet.Kind, data any) {
	switch kind {
	case "local":
		iv := data.(interval.Interval)
		if a.isSink {
			a.r.cent.deliver(a.r, at, iv)
			return
		}
		a.forward(at, iv)
	default:
		panic(fmt.Sprintf("monitor: centralized agent %d got unknown timer %q", a.id, kind))
	}
}

// OnMessage implements simnet.Handler: relay or, at the sink, deliver.
func (a *centAgent) OnMessage(at simnet.Time, msg simnet.Message) {
	switch msg.Kind {
	case KindFwd:
		iv := msg.Payload.(fwdPayload).Iv
		if a.isSink {
			a.r.cent.deliver(a.r, at, iv)
			return
		}
		a.forward(at, iv)
	default:
		panic(fmt.Sprintf("monitor: centralized agent %d got unknown message kind %q", a.id, msg.Kind))
	}
}

// forward sends the interval one hop along the current tree route to the
// sink. If the network has partitioned away from the sink the interval is
// dropped — the centralized algorithm has no answer to that (the paper's
// point).
func (a *centAgent) forward(at simnet.Time, iv interval.Interval) {
	route := a.r.topo.Route(a.id, a.r.cent.sink.ID())
	if len(route) < 2 {
		a.r.cent.undeliverable++
		return
	}
	a.r.sim.Send(a.id, route[1], KindFwd, fwdPayload{Iv: iv})
}

// deliver resequences per origin and feeds the sink detector in order.
func (c *centRuntime) deliver(r *Runner, at simnet.Time, iv interval.Interval) {
	if c.removed[iv.Origin] {
		return // stale traffic from a process already declared failed
	}
	rs := c.reseq[iv.Origin]
	if rs == nil {
		panic(fmt.Sprintf("monitor: interval from unknown origin %d at sink", iv.Origin))
	}
	for _, ready := range rs.Accept(ivlPayload{Iv: iv, LinkSeq: iv.Seq}) {
		r.record(at, c.sink.OnInterval(ready.Iv.Origin, ready.Iv), c.sink.ID())
	}
}
