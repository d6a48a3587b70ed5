// Package transport defines the pluggable message plane of the live runtime.
//
// The detector's processes exchange three kinds of control messages —
// interval reports, heartbeats and reattachment-protocol frames, all
// wire-encoded by internal/wire — and a Transport moves those frames between
// processes, addressed by process id. internal/livenet owns everything above
// this line (resequencing, epochs, the credit-ledger lifecycle); a Transport
// owns everything below it (connections, framing, retries).
//
// Two implementations ship with the repository:
//
//   - the in-memory channel plumbing inside internal/livenet itself, used
//     when every node lives in one OS process (the default, and what the
//     simulator-parity tests exercise), plus this package's Network, which
//     connects several livenet clusters *in one process* through the real
//     frame path — the deterministic testbed for distributed mode;
//   - internal/transport/tcptransport, which runs each node as its own OS
//     process over real sockets.
//
// Delivery contract: best-effort, at-least-once, per-peer FIFO not required.
// A transport may redeliver a frame after a reconnect (the receiver's
// resequencers deduplicate) and drops frames addressed to dead or unknown
// peers — exactly the paper's asynchronous message-passing model, where
// messages to a crashed process are lost.
package transport

// Transport moves opaque wire-encoded frames between detector processes.
// Implementations must make Send safe for concurrent use; Start's receive
// callback may be invoked concurrently from multiple goroutines.
type Transport interface {
	// Send ships one frame to process `to`, asynchronously and
	// best-effort: it must not block on a slow or dead peer. Frames to
	// unknown peers are silently dropped. Send must not retain frame after
	// it returns (copy if queuing is needed): callers encode through pooled
	// scratch buffers and recycle them the moment Send returns.
	Send(to int, frame []byte)
	// Start begins delivery: every frame addressed to a process hosted
	// behind this transport is handed to recv together with the addressed
	// process id. The frame is the transport's again when recv returns
	// (tcptransport delivers out of its read buffer), so recv decodes or
	// copies and keeps nothing of it — Send's contract, mirrored. Start is
	// called exactly once, before any Send.
	Start(recv func(to int, frame []byte)) error
	// Close tears the transport down. When Close returns, no recv callback
	// is running or will run again, and subsequent Sends are no-ops.
	Close() error
}
