// Package clusterfile defines the deployment description a multi-process
// detector run shares: the spanning tree, each process's listen address, and
// the workload and failure-detector parameters every participant must agree
// on. One process per topology node reads the same file (cmd/hierdet-node),
// regenerates the identical workload from the shared seed, and dials its
// peers at the recorded addresses — no coordination service, just a file,
// which is all a localhost cluster or a CI smoke test needs.
package clusterfile

import (
	"encoding/json"
	"fmt"
	"os"

	"hierdet/internal/tree"
)

// File is the shared deployment description.
type File struct {
	// Parents is the spanning tree: Parents[i] is node i's parent, -1 for a
	// root. Node count is len(Parents).
	Parents []int `json:"parents"`
	// Addrs[i] is node i's listen address ("host:port").
	Addrs []string `json:"addrs"`

	// Workload: every process regenerates the same execution from these.
	Rounds  int     `json:"rounds"`
	Phase1  int     `json:"phase1"` // rounds fed before the failure gate
	Seed    int64   `json:"seed"`
	PGlobal float64 `json:"pglobal"`

	// Tenants multiplexes this many predicates ("t0".."tN-1", one detection
	// tree each, workload seeds Seed, Seed+1, ...) over the deployment's one
	// TCP mesh. 0 or 1 runs the classic single-predicate node.
	Tenants int `json:"tenants,omitempty"`

	// Failure detector timings, in milliseconds (generous defaults for
	// separate OS processes on one machine; see Normalize). How long silence
	// may last is learned per link from the beats; a file that still carries
	// the old hbTimeoutMs key loads, and the key is ignored.
	HbEveryMs      int `json:"hbEveryMs"`
	StartupGraceMs int `json:"startupGraceMs"`
	// FeedEveryMs paces each process's interval stream.
	FeedEveryMs int `json:"feedEveryMs"`
}

// N returns the node count.
func (f *File) N() int { return len(f.Parents) }

// Normalize fills defaults in place.
func (f *File) Normalize() {
	if f.Rounds == 0 {
		f.Rounds = 12
	}
	if f.Phase1 == 0 || f.Phase1 > f.Rounds {
		f.Phase1 = f.Rounds / 2
	}
	if f.PGlobal == 0 {
		f.PGlobal = 1
	}
	if f.Tenants == 0 {
		f.Tenants = 1
	}
	if f.HbEveryMs == 0 {
		f.HbEveryMs = 5
	}
	if f.StartupGraceMs == 0 {
		// Processes launch one after another; suppress suspicion until the
		// whole deployment is plausibly up.
		f.StartupGraceMs = 2000
	}
	if f.FeedEveryMs == 0 {
		f.FeedEveryMs = 2
	}
}

// Validate checks structural sanity (tree shape is checked by Topology).
func (f *File) Validate() error {
	n := f.N()
	if n == 0 {
		return fmt.Errorf("clusterfile: no nodes")
	}
	if len(f.Addrs) != n {
		return fmt.Errorf("clusterfile: %d addrs for %d nodes", len(f.Addrs), n)
	}
	if f.Tenants < 0 {
		return fmt.Errorf("clusterfile: negative tenant count %d", f.Tenants)
	}
	roots := 0
	for i, p := range f.Parents {
		switch {
		case p == tree.None:
			roots++
		case p < 0 || p >= n:
			return fmt.Errorf("clusterfile: node %d has parent %d out of range", i, p)
		case p == i:
			return fmt.Errorf("clusterfile: node %d is its own parent", i)
		}
	}
	if roots != 1 {
		return fmt.Errorf("clusterfile: %d roots, want 1", roots)
	}
	for i, a := range f.Addrs {
		if a == "" {
			return fmt.Errorf("clusterfile: node %d has no address", i)
		}
	}
	return nil
}

// Topology builds the spanning tree (complete communication graph, the
// default candidates pool for repairs).
func (f *File) Topology() (*tree.Topology, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	t := tree.New(f.N())
	// Attach top-down so SetParent's cycle check sees a growing forest; a
	// parent list with a cycle never exposes all its members as attachable
	// and is reported instead of looping.
	attached := map[int]bool{}
	for i, p := range f.Parents {
		if p == tree.None {
			attached[i] = true
		}
	}
	for remaining := f.N() - len(attached); remaining > 0; {
		progressed := false
		for i, p := range f.Parents {
			if attached[i] || !attached[p] {
				continue
			}
			t.SetParent(i, p)
			attached[i] = true
			remaining--
			progressed = true
		}
		if !progressed {
			return nil, fmt.Errorf("clusterfile: parent list contains a cycle")
		}
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("clusterfile: %w", err)
	}
	return t, nil
}

// Peers returns the address book for one process: every node's address but
// its own — any node can become a repair candidate, so every process must be
// dialable from every other.
func (f *File) Peers(self int) map[int]string {
	out := make(map[int]string, f.N()-1)
	for id, addr := range f.Addrs {
		if id != self {
			out[id] = addr
		}
	}
	return out
}

// Load reads and validates a cluster file.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("clusterfile: %s: %w", path, err)
	}
	f.Normalize()
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// Save writes the file, normalized, with stable indentation.
func (f *File) Save(path string) error {
	f.Normalize()
	if err := f.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
