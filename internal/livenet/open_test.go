package livenet

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"hierdet/internal/transport"
	"hierdet/internal/tree"
)

// TestOpenRefusesDeadLocalNodes: a LocalNodes entry that is not an alive node
// of the topology — one that does not exist, one that was marked failed — is
// the caller's error, returned before anything starts; New panicked on it.
func TestOpenRefusesDeadLocalNodes(t *testing.T) {
	base := runtime.NumGoroutine()
	topo := tree.Balanced(2, 2)
	topo.MarkFailed(5)
	for _, bad := range []int{99, 5} {
		c, err := Open(Config{Topology: topo, Transport: transport.NewNetwork().Endpoint(0, bad),
			LocalNodes: []int{0, bad}, HbEvery: time.Millisecond})
		if err == nil || c != nil {
			t.Fatalf("LocalNodes [0 %d]: Open = %v, %v; want an error and no cluster", bad, c, err)
		}
		if !strings.Contains(err.Error(), "LocalNodes") {
			t.Fatalf("LocalNodes [0 %d]: error %q does not name LocalNodes", bad, err)
		}
	}
	goroutinesSettleTo(t, base)
}

// failingStart is a transport whose Start fails, as a listen error would.
type failingStart struct{ closed bool }

var errListen = errors.New("listen tcp 127.0.0.1:1: bind: address already in use")

func (*failingStart) Send(int, []byte)              {}
func (*failingStart) Start(func(int, []byte)) error { return errListen }
func (f *failingStart) Close() error                { f.closed = true; return nil }

// TestOpenReportsTransportStartFailure: a transport that fails to start is
// an environment error, returned wrapped, with the substrate the cluster had
// built for itself and its heartbeat ticks torn down again; New panicked on
// it. The transport stays the caller's.
func TestOpenReportsTransportStartFailure(t *testing.T) {
	base := runtime.NumGoroutine()
	tr := new(failingStart)
	c, err := Open(Config{Topology: tree.Balanced(2, 2), Transport: tr, LocalNodes: []int{0},
		HbEvery: time.Millisecond})
	if err == nil || c != nil {
		t.Fatalf("Open = %v, %v; want an error and no cluster", c, err)
	}
	if !errors.Is(err, errListen) {
		t.Fatalf("error %q does not wrap the transport's", err)
	}
	if tr.closed {
		t.Fatal("Open closed a transport it failed to start")
	}
	goroutinesSettleTo(t, base)
}
