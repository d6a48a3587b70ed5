package hierdet

import (
	"hierdet/internal/transport"
	"hierdet/internal/transport/tcptransport"
)

// Transport carries wire-encoded frames between the participants of a
// distributed live cluster. Set LiveConfig.Transport to one of these to run a
// deployment where each participant hosts only a subset of the tree
// (LiveConfig.LocalNodes) and everything else is reached over the network.
//
// Two implementations ship with the module: NewTCPTransport for real sockets
// (one OS process per tree node — see cmd/hierdet-node), and NewMemNetwork's
// endpoints for deterministic in-process tests of distributed-mode semantics.
type Transport = transport.Transport

// TCPTransport is a Transport over real TCP connections: a listener for
// inbound frames and one lazily-dialled, backoff-retried connection per peer
// address — shared by every node id that address hosts — for outbound ones.
// See TCPConfig for tuning.
type TCPTransport = tcptransport.Transport

// TCPConfig parameterizes NewTCPTransport. Only Listen is required; Peers may
// be installed later with SetPeers once every participant has bound a port.
type TCPConfig = tcptransport.Config

// TCPStats is a snapshot of a TCPTransport's counters (frames in/out,
// dials, redials, redeliveries, drops).
type TCPStats = tcptransport.Stats

// NewTCPTransport binds the listen address immediately — Addr is valid right
// away, which lets a deployment with ":0" addresses exchange concrete ports
// before any cluster starts — but accepts and dials nothing until the cluster
// starts it.
func NewTCPTransport(cfg TCPConfig) (*TCPTransport, error) {
	return tcptransport.New(cfg)
}

// MemNetwork is an in-process Transport fabric: every Endpoint(id) is one
// participant, frames hop between them on goroutines with no sockets
// involved. It exists for tests and examples that want the distributed code
// paths (wire encoding, heartbeat liveness, remote repair) without real
// networking.
type MemNetwork = transport.Network

// NewMemNetwork builds an empty in-process fabric.
func NewMemNetwork() *MemNetwork {
	return transport.NewNetwork()
}
