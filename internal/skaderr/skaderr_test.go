package skaderr

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestCodeSentinelMatching(t *testing.T) {
	err := New(Cancelled, "runtime: cancelled")
	if !errors.Is(err, Cancelled) {
		t.Error("New(Cancelled) should match the Cancelled sentinel")
	}
	if errors.Is(err, DeadlineExceeded) {
		t.Error("New(Cancelled) must not match DeadlineExceeded")
	}
	// Matching must survive ordinary fmt wrapping.
	wrapped := fmt.Errorf("task abc: %w", err)
	if !errors.Is(wrapped, Cancelled) {
		t.Error("wrapped coded error should still match its code")
	}
}

func TestMarkKeepsCause(t *testing.T) {
	sentinel := errors.New("transport: node unreachable")
	err := Mark(Unavailable, fmt.Errorf("%w: dial refused", sentinel))
	if !errors.Is(err, sentinel) {
		t.Error("Mark must keep the local cause chain")
	}
	if !errors.Is(err, Unavailable) {
		t.Error("Mark must attach the code")
	}
	if Mark(Internal, nil) != nil {
		t.Error("Mark(nil) must be nil")
	}
}

func TestCodeOf(t *testing.T) {
	cases := []struct {
		err  error
		want Code
	}{
		{nil, OK},
		{context.Canceled, Cancelled},
		{context.DeadlineExceeded, DeadlineExceeded},
		{fmt.Errorf("op: %w", context.DeadlineExceeded), DeadlineExceeded},
		{errors.New("plain"), Internal},
		{New(NotFound, "missing"), NotFound},
		{fmt.Errorf("outer: %w", Mark(DataLoss, errors.New("gone"))), DataLoss},
	}
	for i, c := range cases {
		if got := CodeOf(c.err); got != c.want {
			t.Errorf("case %d: CodeOf = %v, want %v", i, got, c.want)
		}
	}
}

func TestCoerce(t *testing.T) {
	coded := New(NotFound, "missing")
	if Coerce(coded) != coded {
		t.Error("Coerce must pass through already-coded errors")
	}
	plain := errors.New("boom")
	if got := CodeOf(Coerce(plain)); got != Internal {
		t.Errorf("Coerce(plain) code = %v, want Internal", got)
	}
	if !errors.Is(Coerce(plain), plain) {
		t.Error("Coerce must keep the original as cause")
	}
	if Coerce(nil) != nil {
		t.Error("Coerce(nil) must be nil")
	}
}

func TestRetryable(t *testing.T) {
	retryable := []Code{Unavailable, ResourceExhausted, Preempted, Aborted}
	terminal := []Code{Cancelled, DeadlineExceeded, NotFound, AlreadyExists, FailedPrecondition, DataLoss, Internal}
	for _, c := range retryable {
		if !Retryable(New(c, "x")) {
			t.Errorf("%v should be retryable", c)
		}
	}
	for _, c := range terminal {
		if Retryable(New(c, "x")) {
			t.Errorf("%v should be terminal", c)
		}
	}
	if Retryable(nil) {
		t.Error("nil is not retryable")
	}
}

// TestWireRoundTripParity is the contract both transports rely on: an error
// sent through EncodeWire/DecodeWire must be errors.Is-equal to the same
// error flattened by RoundTrip on the in-proc path.
func TestWireRoundTripParity(t *testing.T) {
	orig := fmt.Errorf("raylet: resolving arg 0: %w", Mark(DataLoss, errors.New("ownership: object lost")))

	inproc := RoundTrip(orig)
	code, msg := EncodeWire(orig)
	tcp := DecodeWire(code, msg)

	if inproc.Error() != tcp.Error() {
		t.Errorf("messages diverge: inproc %q, tcp %q", inproc.Error(), tcp.Error())
	}
	for _, target := range []error{DataLoss, Cancelled} {
		if errors.Is(inproc, target) != errors.Is(tcp, target) {
			t.Errorf("errors.Is(%v) diverges across transports", target)
		}
	}
	if !errors.Is(tcp, DataLoss) {
		t.Error("code must survive the wire")
	}
	if !IsRemote(tcp) || !IsRemote(inproc) {
		t.Error("both round-tripped errors must be marked remote")
	}
	if IsRemote(orig) {
		t.Error("the original local error is not remote")
	}
}

func TestRoundTripContextErrors(t *testing.T) {
	// A remote handler that died of its propagated deadline must come back
	// as DeadlineExceeded, not Internal.
	err := RoundTrip(context.DeadlineExceeded)
	if !errors.Is(err, DeadlineExceeded) {
		t.Errorf("RoundTrip(context.DeadlineExceeded) = %v, want DeadlineExceeded code", err)
	}
	if !errors.Is(RoundTrip(context.Canceled), Cancelled) {
		t.Error("RoundTrip(context.Canceled) must carry Cancelled")
	}
}

func TestWireRoundTrip(t *testing.T) {
	in := fmt.Errorf("commit: %w", New(ResourceExhausted, "no slots"))
	code, msg := EncodeWire(in)
	out := DecodeWire(code, msg)
	var e *Error
	if !errors.As(out, &e) || e.Code != ResourceExhausted || e.Msg != "commit: no slots" || !e.Remote {
		t.Errorf("wire round trip = %+v", out)
	}
	if !errors.Is(out, ResourceExhausted) {
		t.Error("decoded error must still match its code")
	}
	if !errors.Is(out, RoundTrip(in)) {
		t.Error("DecodeWire(EncodeWire(err)) must equal RoundTrip(err) under errors.Is")
	}
	if code, msg := EncodeWire(nil); code != byte(OK) || msg != "" {
		t.Errorf("EncodeWire(nil) = (%d, %q), want (OK, \"\")", code, msg)
	}
}

func TestDecodeWireBadCode(t *testing.T) {
	if got := CodeOf(DecodeWire(200, "junk")); got != Internal {
		t.Errorf("out-of-range wire code = %v, want Internal", got)
	}
	if got := CodeOf(DecodeWire(byte(OK), "suspicious")); got != Internal {
		t.Errorf("OK wire code on an error frame = %v, want Internal", got)
	}
}
