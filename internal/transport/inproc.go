package transport

import (
	"context"
	"fmt"
	"sync"
	"time"

	"skadi/internal/fabric"
	"skadi/internal/idgen"
	"skadi/internal/skaderr"
)

// messageOverhead approximates per-message header bytes (IDs, kind, frame)
// charged to the fabric in addition to the payload.
const messageOverhead = 64

// InProc is the in-process transport. Every Call charges the fabric for the
// request and response, so simulated network accounting matches what the
// TCP transport would move, while the handler executes directly.
type InProc struct {
	fabric *fabric.Fabric

	mu         sync.RWMutex
	handlers   map[idgen.NodeID]Handler
	down       map[idgen.NodeID]bool
	interposer Interposer
	closed     bool
}

// NewInProc returns an in-process transport over the given fabric.
func NewInProc(f *fabric.Fabric) *InProc {
	return &InProc{
		fabric:   f,
		handlers: make(map[idgen.NodeID]Handler),
		down:     make(map[idgen.NodeID]bool),
	}
}

// Listen implements Transport.
func (t *InProc) Listen(node idgen.NodeID, h Handler) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if _, ok := t.handlers[node]; ok {
		return ErrAlreadyListening
	}
	t.handlers[node] = h
	delete(t.down, node)
	return nil
}

// Unlisten implements Transport.
func (t *InProc) Unlisten(node idgen.NodeID) {
	t.mu.Lock()
	delete(t.handlers, node)
	t.mu.Unlock()
}

// SetDown marks a node unreachable without removing its handler; used by
// failure-injection tests to simulate crashes and partitions.
func (t *InProc) SetDown(node idgen.NodeID, down bool) {
	t.mu.Lock()
	if down {
		t.down[node] = true
	} else {
		delete(t.down, node)
	}
	t.mu.Unlock()
}

// SetInterposer installs (or, with nil, removes) the fault interposer
// consulted on every Call. See Interposer.
func (t *InProc) SetInterposer(i Interposer) {
	t.mu.Lock()
	t.interposer = i
	t.mu.Unlock()
}

// Call implements Transport.
func (t *InProc) Call(ctx context.Context, from, to idgen.NodeID, kind string, payload []byte) ([]byte, error) {
	t.mu.RLock()
	h, ok := t.handlers[to]
	isDown := t.down[to] || t.down[from]
	closed := t.closed
	ip := t.interposer
	t.mu.RUnlock()
	if closed {
		return nil, unavailable(ErrClosed)
	}
	if !ok || isDown {
		return nil, unavailable(ErrUnreachable)
	}
	if err := ctx.Err(); err != nil {
		return nil, callerErr(err)
	}
	size := len(payload) + messageOverhead
	var v Verdict
	if ip != nil {
		v = ip.Intercept(from, to, kind, size)
		if v.Drop {
			return nil, unavailable(fmt.Errorf("%w: injected fault (%s)", ErrUnreachable, kind))
		}
		if v.Delay > 0 {
			select {
			case <-time.After(v.Delay):
			case <-ctx.Done():
				ip.Undeliverable(v, from, to, kind, size)
				return nil, callerErr(ctx.Err())
			}
		}
		if v.Duplicate {
			// Deliver the request an extra time before the real delivery and
			// discard its response — what a retransmitted request looks like
			// to the handler. Exercises handler idempotence.
			if _, cerr := t.fabric.Move(ctx, from, to, payload, messageOverhead); cerr == nil {
				_, _ = h(ctx, from, kind, payload)
			}
		}
	}
	// Charge the request path: the payload at its bytes-on-wire, the
	// header raw. The interposer keeps seeing logical sizes — compression
	// is a cost-model concern, not a delivery-accounting one. Move records
	// the transfer as a span when the caller's context carries a trace; the
	// handler then runs under the same context, so remote-side spans attach
	// to the caller's trace — in-process propagation of the TraceID/SpanID
	// pair. Deadlines and cancellation propagate the same way: the handler
	// shares the caller's context directly.
	if _, err := t.fabric.Move(ctx, from, to, payload, messageOverhead); err != nil {
		// The fabric refused the message (endpoint unregistered mid-call).
		if ip != nil {
			ip.Undeliverable(v, from, to, kind, size)
		}
		return nil, unavailable(err)
	}
	if ip != nil {
		ip.Delivered(v, from, to, kind, size)
	}
	resp, err := h(ctx, from, kind, payload)
	if err != nil {
		// Errors still travel back over the network — and flatten to their
		// wire form (code + message), so the in-proc path surfaces exactly
		// what a TCP caller would see.
		_, _ = t.fabric.Move(ctx, to, from, nil, messageOverhead+len(err.Error()))
		return nil, skaderr.RoundTrip(err)
	}
	// Charge the response path. A responder unregistered while its handler
	// ran cannot get the bytes back to the caller.
	if _, cerr := t.fabric.Move(ctx, to, from, resp, messageOverhead); cerr != nil {
		return nil, unavailable(cerr)
	}
	return resp, nil
}

// Close implements Transport.
func (t *InProc) Close() error {
	t.mu.Lock()
	t.closed = true
	t.handlers = make(map[idgen.NodeID]Handler)
	t.mu.Unlock()
	return nil
}
