// Package transport carries the runtime's control and data messages between
// nodes. Two implementations share one interface:
//
//   - InProc: nodes live in one process; calls execute the remote handler
//     directly while the fabric charges simulated network cost. This is the
//     path the experiments run on.
//   - TCP: nodes are separate processes connected by real sockets, proving
//     the runtime is not simulation-bound.
//
// All payloads are bytes. Encode/Decode are the one codec for every message
// kind, on both transports: a Message lists its fields once in a Wire method
// and a wire.Coder walks that list to write or to read them, so no call site
// needs to know how its kind is laid out. InProc callers encode too — the
// fabric charges bytes-on-wire from the payload.
//
// Error semantics are uniform across both implementations: a failure of the
// transport itself (unreachable peer, closed transport, expired caller
// context) carries a skaderr code and the matching sentinel in its chain,
// while a failure of the remote handler comes back as a skaderr round-trip —
// the typed code crosses the wire next to the message, so errors.Is against
// skaderr codes gives the same answer on InProc and TCP. Caller deadlines
// propagate too: the TCP frame carries the absolute deadline (and a cancel
// frame on caller abort), the in-proc path shares the context directly.
package transport

import (
	"context"
	"errors"
	"time"

	"skadi/internal/idgen"
	"skadi/internal/skaderr"
	"skadi/internal/wire"
)

// Errors returned by transports.
var (
	// ErrUnreachable reports that the destination node is not listening or
	// has been marked down.
	ErrUnreachable = errors.New("transport: node unreachable")
	// ErrClosed reports that the transport has been shut down.
	ErrClosed = errors.New("transport: closed")
)

// unavailable marks a transport-level failure with the Unavailable code
// while keeping the sentinel (ErrUnreachable/ErrClosed) in the chain.
func unavailable(err error) error { return skaderr.Mark(skaderr.Unavailable, err) }

// callerErr classifies a caller-side context failure (Cancelled or
// DeadlineExceeded) so local aborts carry the same codes as remote ones.
func callerErr(err error) error { return skaderr.Mark(skaderr.CodeOf(err), err) }

// IsRemote reports whether err is an application-level error from the
// remote handler (as opposed to a transport failure): the call was
// delivered and the handler failed.
func IsRemote(err error) bool { return skaderr.IsRemote(err) }

// Handler processes one inbound message on a node. kind identifies the RPC
// method; the returned bytes are the response payload.
type Handler func(ctx context.Context, from idgen.NodeID, kind string, payload []byte) ([]byte, error)

// Verdict is an interposer's decision about one outbound message.
type Verdict struct {
	// Drop fails the call with a typed Unavailable before delivery.
	Drop bool
	// Delay injects extra latency before delivery.
	Delay time.Duration
	// Duplicate delivers the request twice (the duplicate's response is
	// discarded), the way a retransmitted request would arrive.
	Duplicate bool
	// Epoch is the interposer's own stamp, opaque to transports, which hand
	// the verdict back with the message's outcome (see Interposer).
	Epoch uint64
}

// Interposer intercepts messages between the caller and the wire. The chaos
// engine implements it to inject deterministic faults; transports consult it
// after their own reachability checks, so a verdict applies only to messages
// that would otherwise be delivered.
//
// Delivered/Undeliverable close the accounting loop: every intercepted
// message is reported exactly once as delivered (it reached the handler) or
// undeliverable (the fabric refused it after the verdict), together with the
// verdict Intercept returned for it, letting the interposer balance attempts
// against outcomes and tell which of its episodes a late outcome belongs to.
type Interposer interface {
	Intercept(from, to idgen.NodeID, kind string, size int) Verdict
	Delivered(v Verdict, from, to idgen.NodeID, kind string, size int)
	Undeliverable(v Verdict, from, to idgen.NodeID, kind string, size int)
}

// Transport moves messages between nodes.
type Transport interface {
	// Listen registers the handler for a node. A node may listen only once.
	Listen(node idgen.NodeID, h Handler) error
	// Unlisten removes a node's handler; subsequent calls to it fail with
	// ErrUnreachable.
	Unlisten(node idgen.NodeID)
	// Call sends a request and waits for the response.
	Call(ctx context.Context, from, to idgen.NodeID, kind string, payload []byte) ([]byte, error)
	// Close shuts the transport down.
	Close() error
}

// Message is anything the codec carries; see wire.Message.
type Message = wire.Message

// messagePtr is *T for a message struct T whose Wire method has a pointer
// receiver. It lets Encode take the struct by value, `Encode(req)`, and have
// the compiler infer the pointer type that implements Message.
type messagePtr[T any] interface {
	*T
	Message
}

// Encode encodes a message value for use as a payload. It cannot fail; the
// error result lets a handler end with `return transport.Encode(resp)`.
func Encode[T any, P messagePtr[T]](v T) ([]byte, error) {
	return wire.Marshal(P(&v)), nil
}

// MustEncode is Encode without the error result.
func MustEncode[T any, P messagePtr[T]](v T) []byte {
	return wire.Marshal(P(&v))
}

// Decode decodes a payload produced by Encode into m. Truncated, mistagged
// or otherwise corrupt input is an error, never a panic.
func Decode(data []byte, m Message) error {
	return wire.Unmarshal(data, m)
}
