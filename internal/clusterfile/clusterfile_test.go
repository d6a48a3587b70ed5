package clusterfile

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hierdet/internal/tree"
)

func sevenNode() *File {
	return &File{
		// Balanced(2,2) parent list: 0 root; 1,2 under 0; 3,4 under 1; 5,6 under 2.
		Parents: []int{tree.None, 0, 0, 1, 1, 2, 2},
		Addrs: []string{
			"127.0.0.1:9000", "127.0.0.1:9001", "127.0.0.1:9002",
			"127.0.0.1:9003", "127.0.0.1:9004", "127.0.0.1:9005", "127.0.0.1:9006",
		},
		Rounds: 10, Phase1: 5, Seed: 7, PGlobal: 1,
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	f := sevenNode()
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 7 || got.Rounds != 10 || got.Phase1 != 5 || got.Seed != 7 {
		t.Errorf("round-trip lost fields: %+v", got)
	}
	// Save normalized, so the timing defaults must be concrete after Load.
	if got.HbEveryMs == 0 || got.StartupGraceMs == 0 || got.FeedEveryMs == 0 {
		t.Errorf("timings not normalized: %+v", got)
	}
	// Tenants defaults to the classic single-predicate node.
	if got.Tenants != 1 {
		t.Errorf("Tenants = %d, want 1 after normalization", got.Tenants)
	}
}

func TestTenantsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	f := sevenNode()
	f.Tenants = 16
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tenants != 16 {
		t.Errorf("Tenants = %d, want 16", got.Tenants)
	}
	f.Tenants = -1
	if err := f.Validate(); err == nil {
		t.Error("negative tenant count accepted")
	}
}

func TestTopologyMatchesBuilder(t *testing.T) {
	topo, err := sevenNode().Topology()
	if err != nil {
		t.Fatal(err)
	}
	want := tree.Balanced(2, 2)
	for id := 0; id < 7; id++ {
		if topo.Parent(id) != want.Parent(id) {
			t.Errorf("node %d parent = %d, want %d", id, topo.Parent(id), want.Parent(id))
		}
	}
}

func TestTopologyShuffledParentOrder(t *testing.T) {
	// A chain written child-first: node 0 is the deepest leaf. Topology must
	// attach in dependency order regardless of the slice order.
	f := &File{
		Parents: []int{1, 2, tree.None},
		Addrs:   []string{"a:1", "a:2", "a:3"},
	}
	topo, err := f.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if topo.Parent(0) != 1 || topo.Parent(1) != 2 || topo.Parent(2) != tree.None {
		t.Errorf("unexpected chain: parents = %d %d %d", topo.Parent(0), topo.Parent(1), topo.Parent(2))
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*File)
	}{
		{"no nodes", func(f *File) { f.Parents = nil; f.Addrs = nil }},
		{"addr count mismatch", func(f *File) { f.Addrs = f.Addrs[:3] }},
		{"parent out of range", func(f *File) { f.Parents[3] = 99 }},
		{"self parent", func(f *File) { f.Parents[3] = 3 }},
		{"two roots", func(f *File) { f.Parents[1] = tree.None }},
		{"no root", func(f *File) { f.Parents[0] = 1 }}, // also a 0↔1 cycle
		{"empty addr", func(f *File) { f.Addrs[2] = "" }},
	}
	for _, tc := range cases {
		f := sevenNode()
		tc.mutate(f)
		if err := f.Validate(); err == nil {
			if _, err := f.Topology(); err == nil {
				t.Errorf("%s: accepted", tc.name)
			}
		}
	}
}

func TestTopologyRejectsCycle(t *testing.T) {
	f := &File{
		Parents: []int{tree.None, 2, 3, 1}, // 1→2→3→1 cycle beside a lone root
		Addrs:   []string{"a:1", "a:2", "a:3", "a:4"},
	}
	if _, err := f.Topology(); err == nil {
		t.Error("cycle accepted")
	}
}

func TestPeers(t *testing.T) {
	f := sevenNode()
	peers := f.Peers(3)
	if len(peers) != 6 {
		t.Fatalf("len(peers) = %d, want 6", len(peers))
	}
	if _, ok := peers[3]; ok {
		t.Error("peers includes self")
	}
	if peers[0] != "127.0.0.1:9000" {
		t.Errorf("peers[0] = %q", peers[0])
	}
}

// TestLegacyHbTimeoutKeyLoads: the suspicion timeout is learned per link now,
// but cluster files written before that still carry hbTimeoutMs. They load,
// the key is ignored, and saving writes it no more.
func TestLegacyHbTimeoutKeyLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	legacy := `{
  "parents": [-1, 0, 0],
  "addrs": ["127.0.0.1:9000", "127.0.0.1:9001", "127.0.0.1:9002"],
  "rounds": 10, "phase1": 5, "seed": 7, "pglobal": 1,
  "hbEveryMs": 5, "hbTimeoutMs": 40, "startupGraceMs": 2000, "feedEveryMs": 2
}`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Load(path)
	if err != nil {
		t.Fatalf("a cluster file with the retired hbTimeoutMs key does not load: %v", err)
	}
	if f.N() != 3 || f.HbEveryMs != 5 || f.StartupGraceMs != 2000 {
		t.Errorf("legacy file loaded as %+v", f)
	}
	if err := f.Save(path); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(saved), "hbTimeoutMs") {
		t.Errorf("saved file still carries hbTimeoutMs:\n%s", saved)
	}
}
