// Command hierdet-node runs ONE spanning-tree node of the hierarchical
// detector as its own OS process, talking to the other nodes over TCP. A
// deployment is a cluster file (internal/clusterfile) shared by every
// process: the tree, each node's listen address, and the workload parameters
// every participant regenerates identically from the shared seed.
//
// Generate a deployment, then launch one process per node:
//
//	hierdet-node -init -o cluster.json -n 7
//	for i in $(seq 0 6); do hierdet-node -config cluster.json -id $i & done
//
// Each process prints a line-oriented protocol on stdout that scripts (and
// examples/distributed, the orchestrated failover demo) can follow:
//
//	READY id=2 addr=127.0.0.1:41233     listening, cluster started
//	DETECT id=0 root=true span=7        a detection (span = solution width)
//	REPAIR orphan=3 parent=2            a §III-F reattachment concluded here
//	FED id=2 phase=1                    this process finished feeding a phase
//
// With -tenants N (at -init time; recorded in the cluster file) each process
// serves N predicates — tenants "t0".."tN-1", one detection tree each, with
// per-tenant workload seeds — multiplexed over the deployment's single TCP
// mesh, and the protocol lines carry a tenant= field:
//
//	READY id=2 addr=127.0.0.1:41233 tenants=2
//	DETECT id=0 tenant=t1 root=true span=7
//	REPAIR tenant=t0 orphan=3 parent=2
//
// The workload is fed in two phases, [0, Phase1) and [Phase1, Rounds), with
// a file-based barrier between them: after phase 1 every process polls for
// the file named by -gate and resumes only once it exists. The pause gives an
// orchestrator a quiet point to kill a process and let the survivors repair
// before the second phase's intervals arrive. Without -gate the phases run
// back to back. After feeding, the process idles until killed — detection
// and failure handling keep running.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"hierdet"
	"hierdet/internal/clusterfile"
)

func main() {
	var (
		initMode = flag.Bool("init", false, "generate a cluster file instead of running a node")
		config   = flag.String("config", "cluster.json", "cluster file path (shared by all processes)")
		out      = flag.String("o", "cluster.json", "init: output path")
		n        = flag.Int("n", 7, "init: node count (balanced binary tree)")
		rounds   = flag.Int("rounds", 12, "init: workload rounds")
		phase1   = flag.Int("phase1", 0, "init: rounds before the gate (default rounds/2)")
		seed     = flag.Int64("seed", 42, "init: workload seed")
		tenants  = flag.Int("tenants", 1, "init: predicates multiplexed per process")
		id       = flag.Int("id", -1, "node id this process hosts")
		gate     = flag.String("gate", "", "barrier file to await between feeding phases")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile here, flushed on SIGINT/SIGTERM")
		memprof  = flag.String("memprofile", "", "write a heap profile here on SIGINT/SIGTERM")
		pprofSrv = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *initMode {
		if err := writeClusterFile(*out, *n, *rounds, *phase1, *seed, *tenants); err != nil {
			fmt.Fprintln(os.Stderr, "hierdet-node:", err)
			os.Exit(1)
		}
		return
	}
	if err := startProfiling(*cpuprof, *memprof, *pprofSrv); err != nil {
		fmt.Fprintln(os.Stderr, "hierdet-node:", err)
		os.Exit(1)
	}
	if err := runNode(*config, *id, *gate); err != nil {
		fmt.Fprintln(os.Stderr, "hierdet-node:", err)
		os.Exit(1)
	}
}

// startProfiling wires the node's observability hooks: file-based CPU/heap
// profiles and an optional live pprof endpoint. The process runs until
// killed (runNode never returns), so profile flushing hangs off a
// SIGINT/SIGTERM handler rather than a defer.
func startProfiling(cpuprof, memprof, addr string) error {
	if addr != "" {
		go func() {
			if err := http.ListenAndServe(addr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "hierdet-node: pprof:", err)
			}
		}()
	}
	var cpuFile *os.File
	if cpuprof != "" {
		f, err := os.Create(cpuprof)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		cpuFile = f
	}
	if cpuprof != "" || memprof != "" {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		go func() {
			<-sig
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			if memprof != "" {
				if f, err := os.Create(memprof); err != nil {
					fmt.Fprintln(os.Stderr, "hierdet-node:", err)
				} else {
					runtime.GC()
					if err := pprof.WriteHeapProfile(f); err != nil {
						fmt.Fprintln(os.Stderr, "hierdet-node:", err)
					}
					f.Close()
				}
			}
			os.Exit(0)
		}()
	}
	return nil
}

// writeClusterFile builds a balanced-binary-tree deployment on localhost. It
// reserves a concrete port per node by binding and immediately releasing an
// ephemeral listener, so the file can be generated before any node starts.
// (A released port can in principle be re-taken before the node binds it;
// on a quiet machine the window is harmless, and a collision just means
// regenerating the file.)
func writeClusterFile(path string, n, rounds, phase1 int, seed int64, tenants int) error {
	if n < 2 {
		return fmt.Errorf("need at least 2 nodes, got %d", n)
	}
	topo := hierdet.BalancedTreeN(n, 2)
	f := &clusterfile.File{
		Parents: make([]int, n),
		Addrs:   make([]string, n),
		Rounds:  rounds, Phase1: phase1, Seed: seed, PGlobal: 1,
		Tenants: tenants,
	}
	for i := 0; i < n; i++ {
		f.Parents[i] = topo.Parent(i)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		f.Addrs[i] = ln.Addr().String()
		ln.Close()
	}
	if err := f.Save(path); err != nil {
		return err
	}
	fmt.Printf("WROTE %s nodes=%d rounds=%d phase1=%d tenants=%d\n", path, n, f.Rounds, f.Phase1, f.Tenants)
	return nil
}

func runNode(path string, id int, gate string) error {
	f, err := clusterfile.Load(path)
	if err != nil {
		return err
	}
	if id < 0 || id >= f.N() {
		return fmt.Errorf("-id %d out of range for %d-node cluster", id, f.N())
	}
	topo, err := f.Topology()
	if err != nil {
		return err
	}
	exec := hierdet.GenerateWorkload(topo, f.Rounds, f.Seed, f.PGlobal, 0, 0)

	tr, err := hierdet.NewTCPTransport(hierdet.TCPConfig{
		Listen: f.Addrs[id],
		Peers:  f.Peers(id),
	})
	if err != nil {
		return err
	}
	if f.Tenants > 1 {
		return runTenants(f, topo, tr, id, gate)
	}

	c, err := hierdet.NewLiveCluster(hierdet.LiveConfig{
		Topology:     topo,
		Seed:         f.Seed + int64(id),
		HbEvery:      time.Duration(f.HbEveryMs) * time.Millisecond,
		Transport:    tr,
		LocalNodes:   []int{id},
		StartupGrace: time.Duration(f.StartupGraceMs) * time.Millisecond,
		Events: func(e hierdet.Event) {
			switch e.Kind {
			case hierdet.EventSolutionFound:
				fmt.Printf("DETECT id=%d root=%t span=%d\n", e.Node, e.AtRoot, len(e.Agg.Span))
			case hierdet.EventRepairConcluded:
				fmt.Printf("REPAIR orphan=%d parent=%d\n", e.Node, e.Peer)
			}
		},
	})
	if err != nil {
		return err
	}
	// Mount Prometheus exposition next to the pprof handlers: with -pprof set
	// the shared default mux already serves, so the scrape endpoint appears on
	// the same address.
	http.Handle("/metrics", c.Registry().Handler())
	fmt.Printf("READY id=%d addr=%s\n", id, tr.Addr())

	pace := time.Duration(f.FeedEveryMs) * time.Millisecond
	feed := func(lo, hi int) {
		for k := lo; k < hi && k < len(exec.Streams[id]); k++ {
			c.Observe(id, exec.Streams[id][k])
			time.Sleep(pace)
		}
	}

	feed(0, f.Phase1)
	fmt.Printf("FED id=%d phase=1\n", id)
	awaitGate(gate)
	feed(f.Phase1, f.Rounds)
	fmt.Printf("FED id=%d phase=2\n", id)

	// Stay alive — detection and failure handling continue until the
	// orchestrator (or the shell) kills the process.
	select {}
}

// awaitGate polls for the barrier file between feeding phases; an empty gate
// means the phases run back to back.
func awaitGate(gate string) {
	if gate == "" {
		return
	}
	for {
		if _, err := os.Stat(gate); err == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runTenants is the -tenants mode: one TenantMultiplexer per process serving
// f.Tenants predicates over the shared transport. Each tenant reuses the
// deployment's spanning tree but regenerates its own workload from
// Seed+tenant, so the tenants' detections interleave on the mesh without
// being copies of each other. Each process runs a single-member monitor
// fleet over a process-local lease table — the file-based deployment has no
// shared coordination service, so the lease state (and the hierdet_lease_*
// metric families) reflects this process's own view.
func runTenants(f *clusterfile.File, topo *hierdet.Topology, tr *hierdet.TCPTransport, id int, gate string) error {
	leases := hierdet.NewLeaseTable(time.Second)
	plane, err := hierdet.NewTenantMultiplexer(hierdet.TenantConfig{
		Transport:  tr,
		LocalNodes: []int{id},
		Monitor:    fmt.Sprintf("node-%d", id),
		Leases:     leases,
		Events: func(e hierdet.Event) {
			switch e.Kind {
			case hierdet.EventSolutionFound:
				fmt.Printf("DETECT id=%d tenant=%s root=%t span=%d\n", e.Node, e.Tenant, e.AtRoot, len(e.Agg.Span))
			case hierdet.EventRepairConcluded:
				fmt.Printf("REPAIR tenant=%s orphan=%d parent=%d\n", e.Tenant, e.Node, e.Peer)
			}
		},
	})
	if err != nil {
		return err
	}

	handles := make([]*hierdet.TenantHandle, f.Tenants)
	execs := make([]*hierdet.Execution, f.Tenants)
	for k := range handles {
		h, err := plane.RegisterPredicate(fmt.Sprintf("t%d", k), hierdet.TenantSpec{
			Topology:     topo,
			Seed:         f.Seed + int64(id*f.Tenants+k),
			HbEvery:      time.Duration(f.HbEveryMs) * time.Millisecond,
			StartupGrace: time.Duration(f.StartupGraceMs) * time.Millisecond,
		})
		if err != nil {
			return err
		}
		handles[k] = h
		execs[k] = hierdet.GenerateWorkload(topo, f.Rounds, f.Seed+int64(k), f.PGlobal, 0, 0)
	}
	http.Handle("/metrics", plane.Registry().Handler())
	fmt.Printf("READY id=%d addr=%s tenants=%d\n", id, tr.Addr(), f.Tenants)

	pace := time.Duration(f.FeedEveryMs) * time.Millisecond
	feed := func(lo, hi int) {
		for r := lo; r < hi; r++ {
			for k, h := range handles {
				if r < len(execs[k].Streams[id]) {
					h.Observe(id, execs[k].Streams[id][r])
				}
			}
			time.Sleep(pace)
		}
	}

	feed(0, f.Phase1)
	fmt.Printf("FED id=%d phase=1\n", id)
	awaitGate(gate)
	feed(f.Phase1, f.Rounds)
	fmt.Printf("FED id=%d phase=2\n", id)

	select {}
}
