package main

import (
	"fmt"
	"time"

	"hierdet/internal/interval"
	"hierdet/internal/livenet"
	"hierdet/internal/obsv"
	"hierdet/internal/tenantplane"
	"hierdet/internal/transport"
	"hierdet/internal/transport/tcptransport"
	"hierdet/internal/tree"
)

// newCluster is the one place the system configuration under test is named:
// the full current path (the scale benchmark's "parallel" lane) with every
// other knob at its default — Workers and DetectWorkers = GOMAXPROCS,
// MaxDelay = 200µs drawn uniformly per hop (so latency is not processor time
// only), MailboxBound 4096. hbEvery, tr and local are zero outside the
// kill_recover and tcp_split workloads. When knobs are deleted, re-point the
// benchmark here.
func newCluster(topo *tree.Topology, seed int64, sink func(obsv.Event), hbEvery time.Duration, tr transport.Transport, local []int) *livenet.Cluster {
	return livenet.New(livenet.Config{
		Topology:      topo,
		Seed:          seed,
		AdaptiveFlush: true,
		Events:        sink,
		HbEvery:       hbEvery,
		Transport:     tr,
		LocalNodes:    local,
	})
}

// newTenant is newCluster's tenant-plane twin: the same configuration,
// registered on a multiplexer instead of standing alone.
func newTenant(plane *tenantplane.Multiplexer, id string, topo *tree.Topology, seed int64, sink func(obsv.Event)) (*tenantplane.Handle, error) {
	return plane.RegisterPredicate(id, tenantplane.Spec{
		Topology:      topo,
		Seed:          seed,
		AdaptiveFlush: true,
		Events:        sink,
	})
}

// system is one assembled instance of the workload's shape, alive for one
// pass. tenant is 0 except on the tenant plane.
type system struct {
	observe  func(tenant, p int, iv interval.Interval)
	kill     func(node int) int
	clusters []*livenet.Cluster // every cluster, for ClusterMetrics and Drain
	tcp      []*tcptransport.Transport
	// close tears the system down and returns each tenant's detections.
	close func() [][]livenet.Detection
}

// drain waits until every cluster has handled everything fed so far. Frames
// still inside a TCP connection are invisible to it.
func (sys *system) drain() {
	for _, c := range sys.clusters {
		c.Drain()
	}
}

// build assembles the system for in's shape. sinks has one event sink per
// tenant (one in all, off the tenant plane); seed varies the injected delays
// from pass to pass.
func build(in *inputs, seed int64, sinks []func(obsv.Event)) (*system, error) {
	switch in.spec.shape {
	case shapeSplit:
		return buildSplit(in, seed, sinks[0])
	case shapeTenants:
		return buildTenants(in, seed, sinks)
	}
	// Kill marks the topology, so every pass gets its own copy.
	c := newCluster(in.topo.Clone(), seed, sinks[0], in.spec.hbEvery, nil, nil)
	return &system{
		observe:  func(_, p int, iv interval.Interval) { c.Observe(p, iv) },
		kill:     c.Kill,
		clusters: []*livenet.Cluster{c},
		close: func() [][]livenet.Detection {
			c.Close() // never fails (see livenet.Cluster.Close)
			return [][]livenet.Detection{c.Detections()}
		},
	}, nil
}

// buildSplit hosts even-depth nodes on one cluster and odd-depth nodes on
// another, joined by two loopback TCP transports, so every tree edge crosses
// the wire. A tcptransport peer is a destination node, not a process: the
// split opens one connection per internal node (63 at p=127), not one.
func buildSplit(in *inputs, seed int64, sink func(obsv.Event)) (*system, error) {
	var local [2][]int
	host := make([]int, in.n)
	for v := 0; v < in.n; v++ {
		host[v] = in.depth[v] % 2
		local[host[v]] = append(local[host[v]], v)
	}
	var trs [2]*tcptransport.Transport
	for i := range trs {
		tr, err := tcptransport.New(tcptransport.Config{Listen: "127.0.0.1:0", Seed: seed + int64(i)})
		if err != nil {
			if i == 1 {
				trs[0].Close()
			}
			return nil, fmt.Errorf("tcp_split: %w", err)
		}
		trs[i] = tr
	}
	for i, tr := range trs {
		peers := make(map[int]string, len(local[1-i]))
		for _, v := range local[1-i] {
			peers[v] = trs[1-i].Addr()
		}
		tr.SetPeers(peers)
	}
	var cs [2]*livenet.Cluster
	for i := range cs {
		cs[i] = newCluster(in.topo.Clone(), seed, sink, 0, trs[i], local[i])
	}
	return &system{
		observe:  func(_, p int, iv interval.Interval) { cs[host[p]].Observe(p, iv) },
		clusters: cs[:],
		tcp:      trs[:],
		close: func() [][]livenet.Detection {
			var dets []livenet.Detection
			for _, c := range cs {
				c.Close() // closes its transport too
				dets = append(dets, c.Detections()...)
			}
			return [][]livenet.Detection{dets}
		},
	}, nil
}

func buildTenants(in *inputs, seed int64, sinks []func(obsv.Event)) (*system, error) {
	plane, err := tenantplane.NewMultiplexer(tenantplane.Config{})
	if err != nil {
		return nil, fmt.Errorf("tenant_fanout: %w", err)
	}
	handles := make([]*tenantplane.Handle, len(sinks))
	sys := &system{clusters: make([]*livenet.Cluster, len(sinks))}
	for t := range handles {
		h, err := newTenant(plane, tenantName(t), in.topo, seed+int64(t), sinks[t])
		if err != nil {
			plane.Close()
			return nil, fmt.Errorf("tenant_fanout: %w", err)
		}
		handles[t] = h
		sys.clusters[t] = h.Cluster()
	}
	sys.observe = func(t, p int, iv interval.Interval) { handles[t].Observe(p, iv) }
	sys.close = func() [][]livenet.Detection {
		plane.Close()
		byName := plane.Detections()
		out := make([][]livenet.Detection, len(handles))
		for t := range out {
			out[t] = byName[tenantName(t)]
		}
		return out
	}
	return sys, nil
}

func tenantName(t int) string { return fmt.Sprintf("tenant-%03d", t) }
