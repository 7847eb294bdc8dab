// Package skaderr is the runtime's typed error taxonomy. Every control-plane
// failure carries a Code that survives transport hops: both transports encode
// the code next to the message on the wire (a single byte plus the flattened
// text), so `errors.Is(err, skaderr.Cancelled)` gives the same answer whether
// the failing handler ran in-process or behind a TCP socket.
//
// The taxonomy replaces substring matching on transport.RemoteError messages.
// Producers attach codes at the source with Mark/New; consumers branch on
// CodeOf or errors.Is against the Code sentinels; retry loops use Retryable
// instead of hand-maintained sentinel lists.
package skaderr

import (
	"context"
	"errors"
	"fmt"
)

// Code classifies a failure. Codes are modeled on the gRPC canonical set,
// restricted to what the runtime actually distinguishes. A Code is itself an
// error value, so it can be used directly as an errors.Is target.
type Code uint8

// The taxonomy. Internal is the fallback for unclassified failures, so it
// must stay last-resort: never branch on Internal to mean anything specific.
const (
	// OK is the zero code; it never appears on a non-nil error.
	OK Code = iota
	// Cancelled: the work was revoked (Runtime.Cancel or a caller's context).
	Cancelled
	// DeadlineExceeded: a Submit- or call-level deadline expired.
	DeadlineExceeded
	// Unavailable: the peer is unreachable or shutting down; retry elsewhere.
	Unavailable
	// NotFound: unknown object, function, or table entry.
	NotFound
	// AlreadyExists: duplicate registration (object, listener).
	AlreadyExists
	// ResourceExhausted: no capacity now (gang slots, store space); retryable.
	ResourceExhausted
	// FailedPrecondition: the cluster cannot satisfy the request as shaped
	// (e.g. no node matches the requested backend); not retryable as-is.
	FailedPrecondition
	// Preempted: the work was evicted to make room (rebalance, drain) and
	// may be resubmitted.
	Preempted
	// DataLoss: every copy of an object is gone; recovery needs lineage or
	// a reliable cache, not a retry.
	DataLoss
	// Aborted: the request was turned back before it took effect (a raylet
	// could not read an actor's record before running its kernel); the same
	// request may be sent again.
	Aborted
	// Internal: unclassified failure.
	Internal
)

// String returns the code's canonical name.
func (c Code) String() string {
	switch c {
	case OK:
		return "ok"
	case Cancelled:
		return "cancelled"
	case DeadlineExceeded:
		return "deadline-exceeded"
	case Unavailable:
		return "unavailable"
	case NotFound:
		return "not-found"
	case AlreadyExists:
		return "already-exists"
	case ResourceExhausted:
		return "resource-exhausted"
	case FailedPrecondition:
		return "failed-precondition"
	case Preempted:
		return "preempted"
	case DataLoss:
		return "data-loss"
	case Aborted:
		return "aborted"
	default:
		return "internal"
	}
}

// Error makes a bare Code usable as an errors.Is target (and, in a pinch, as
// an error value).
func (c Code) Error() string { return "skaderr: " + c.String() }

// Error is a coded error. Code and Msg are what EncodeWire carries; the
// cause chain is process-local and deliberately not encoded — crossing the
// wire flattens an error to (Code, Msg), which is exactly what RoundTrip
// reproduces so the in-proc transport cannot leak more type information
// than TCP delivers.
type Error struct {
	Code Code
	Msg  string
	// Remote marks an error that crossed a transport hop: the call was
	// delivered and the remote handler failed (as opposed to a transport
	// failure, where the peer may never have seen the request).
	Remote bool

	cause error
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Msg == "" {
		return e.Code.Error()
	}
	return e.Msg
}

// Unwrap exposes the local cause chain (nil for errors reconstructed from
// the wire).
func (e *Error) Unwrap() error { return e.cause }

// Is matches Code sentinels and same-code *Error targets, which is what
// lets errors.Is survive the wire: the reconstructed error has no cause
// chain, but it has the code.
func (e *Error) Is(target error) bool {
	if c, ok := target.(Code); ok {
		return e.Code == c
	}
	if t, ok := target.(*Error); ok {
		return e.Code == t.Code && (t.Msg == "" || t.Msg == e.Msg)
	}
	return false
}

// New returns a coded error with a formatted message.
func New(code Code, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// Mark attaches a code to err, keeping err as the local cause so existing
// sentinel checks (errors.Is against transport.ErrUnreachable and friends)
// keep working in-process. Returns nil for a nil err.
func Mark(code Code, err error) error {
	if err == nil {
		return nil
	}
	return &Error{Code: code, Msg: err.Error(), cause: err}
}

// Coerce ensures err carries a code: already-coded errors (and errors
// wrapping one) pass through unchanged, everything else is marked with its
// classified code. Returns nil for a nil err.
func Coerce(err error) error {
	if err == nil {
		return nil
	}
	var e *Error
	if errors.As(err, &e) {
		return err
	}
	return Mark(CodeOf(err), err)
}

// CodeOf classifies an error: the code of the nearest *Error in the chain,
// or the canonical mapping for context errors, or Internal. CodeOf(nil) is
// OK.
func CodeOf(err error) Code {
	if err == nil {
		return OK
	}
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	var c Code
	if errors.As(err, &c) {
		return c
	}
	if errors.Is(err, context.Canceled) {
		return Cancelled
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return DeadlineExceeded
	}
	return Internal
}

// Retryable reports whether the failure is transient: the same request may
// succeed against another node or at a later time. Cancellation, deadline
// expiry, missing entries, and data loss are terminal — retrying cannot
// change the outcome.
func Retryable(err error) bool {
	switch CodeOf(err) {
	case Unavailable, ResourceExhausted, Preempted, Aborted:
		return true
	default:
		return false
	}
}

// RoundTrip returns err exactly as it would arrive after crossing the wire:
// the code survives, the cause chain flattens to its message, and Remote is
// set. Both transports funnel remote handler errors through this (TCP via
// EncodeWire/DecodeWire, in-proc directly), which is what makes the two
// paths produce errors.Is-equal results.
func RoundTrip(err error) error {
	if err == nil {
		return nil
	}
	return &Error{Code: CodeOf(err), Msg: err.Error(), Remote: true}
}

// EncodeWire flattens an error for a wire frame: one code byte plus the
// message text.
func EncodeWire(err error) (byte, string) {
	if err == nil {
		return byte(OK), ""
	}
	return byte(CodeOf(err)), err.Error()
}

// DecodeWire reconstructs the remote error from its wire form. The result
// compares equal (under errors.Is) to what RoundTrip produces on the
// sending side.
func DecodeWire(code byte, msg string) error {
	c := Code(code)
	if c == OK || c > Internal {
		c = Internal
	}
	return &Error{Code: c, Msg: msg, Remote: true}
}

// IsRemote reports whether err was returned by a remote handler (the call
// was delivered) rather than by the transport itself.
func IsRemote(err error) bool {
	var e *Error
	return errors.As(err, &e) && e.Remote
}
