package transport

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"skadi/internal/fabric"
	"skadi/internal/idgen"
	"skadi/internal/wire"
)

// TestTCPCompressedPayloadRoundTrip: payloads big enough to compress must
// arrive byte-exact on both the request and response legs, whether they
// compress well (repetitive) or not at all (random).
func TestTCPCompressedPayloadRoundTrip(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	server := idgen.Next()
	if err := tr.Listen(server, func(_ context.Context, _ idgen.NodeID, _ string, p []byte) ([]byte, error) {
		return p, nil
	}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	random := make([]byte, 256<<10)
	rng.Read(random)
	payloads := [][]byte{
		nil,
		[]byte("tiny"),
		bytes.Repeat([]byte("columnar"), 32<<10), // 256 KiB, compresses hard
		random,                                   // 256 KiB, ships raw
		append(bytes.Repeat([]byte{0}, 100<<10), random[:100<<10]...), // mixed
	}
	for i, payload := range payloads {
		resp, err := tr.Call(context.Background(), idgen.Next(), server, "echo", payload)
		if err != nil {
			t.Fatalf("payload %d: %v", i, err)
		}
		if !bytes.Equal(resp, payload) {
			t.Fatalf("payload %d: round trip corrupted (%d -> %d bytes)", i, len(payload), len(resp))
		}
	}
}

// dupInterposer duplicates every message and counts deliveries.
type dupInterposer struct {
	intercepts atomic.Int64
}

func (d *dupInterposer) Intercept(_, _ idgen.NodeID, _ string, _ int) Verdict {
	d.intercepts.Add(1)
	return Verdict{Duplicate: true}
}
func (d *dupInterposer) Delivered(_ Verdict, _, _ idgen.NodeID, _ string, _ int)     {}
func (d *dupInterposer) Undeliverable(_ Verdict, _, _ idgen.NodeID, _ string, _ int) {}

// TestTCPDuplicateAsync: the chaos duplicate must not serialize ahead of
// the original call. A handler that stalls until its second invocation
// arrives proves the two copies are in flight concurrently — the old
// synchronous duplicate would deadlock here (the duplicate had to complete
// before the original was even sent).
func TestTCPDuplicateAsync(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	tr.SetInterposer(&dupInterposer{})
	server := idgen.Next()
	var calls atomic.Int64
	second := make(chan struct{})
	if err := tr.Listen(server, func(ctx context.Context, _ idgen.NodeID, _ string, p []byte) ([]byte, error) {
		if calls.Add(1) == 2 {
			close(second)
		}
		select {
		case <-second:
		case <-time.After(5 * time.Second):
			return nil, context.DeadlineExceeded
		}
		return p, nil
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := tr.Call(ctx, idgen.Next(), server, "dup", []byte("payload"))
	if err != nil {
		t.Fatalf("Call with duplicate injection: %v", err)
	}
	if string(resp) != "payload" {
		t.Fatalf("resp = %q", resp)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("handler ran %d times, want 2 (original + duplicate)", got)
	}
}

// TestInProcDuplicateStaysSynchronous pins the in-process semantics: the
// duplicate is delivered before the real call (idempotence check), so the
// handler count is deterministic.
func TestInProcDuplicateStaysSynchronous(t *testing.T) {
	tr := NewInProc(fabric.New(fabric.Config{}))
	defer tr.Close()
	tr.SetInterposer(&dupInterposer{})
	server := idgen.Next()
	var calls atomic.Int64
	if err := tr.Listen(server, func(_ context.Context, _ idgen.NodeID, _ string, p []byte) ([]byte, error) {
		calls.Add(1)
		return p, nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Call(context.Background(), idgen.Next(), server, "dup", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("handler ran %d times, want 2", got)
	}
}

// TestTCPCancelBeforeRequestNotLost injects a frameCancel for a reqID the
// server has never seen, then sends the matching request: the handler must
// start with an already-cancelled context instead of running to completion
// against a caller that gave up. This is the cancel-races-ahead-of-
// registration hole: a cancel with no matching in-flight entry used to be
// silently dropped.
func TestTCPCancelBeforeRequestNotLost(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	server := idgen.Next()
	cancelled := make(chan bool, 1)
	if err := tr.Listen(server, func(ctx context.Context, _ idgen.NodeID, _ string, _ []byte) ([]byte, error) {
		select {
		case <-ctx.Done():
			cancelled <- true
		case <-time.After(2 * time.Second):
			cancelled <- false
		}
		return []byte("done"), nil
	}); err != nil {
		t.Fatal(err)
	}
	addr, _ := tr.Addr(server)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Cancel first — for reqID 1, which the tcpClient would use for its
	// first call on this connection.
	var cb wire.Buffer
	cb.Byte(frameCancel)
	cb.Uint64(1)
	if err := wire.WriteFrame(conn, cb.Bytes()); err != nil {
		t.Fatal(err)
	}
	// Then the request it belongs to.
	var rb wire.Buffer
	rb.Byte(frameRequest)
	rb.Uint64(1)
	rb.Bytes16(idgen.Next())
	rb.Bytes16(idgen.Nil)
	rb.Bytes16(idgen.Nil)
	rb.Uint64(0)
	rb.String("") // tenant (none)
	rb.String("late")
	rb.Byte(codecRaw)
	rb.Uvarint(0)
	if err := wire.WriteFrame(conn, rb.Bytes()); err != nil {
		t.Fatal(err)
	}
	select {
	case ok := <-cancelled:
		if !ok {
			t.Fatal("handler ran to its timeout: the early cancel was lost")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler never ran")
	}
}

// TestTCPPooledBuffersUnderLoad hammers one connection with concurrent
// mixed-size calls; under -race this proves pooled frame buffers are never
// handed to two owners.
func TestTCPPooledBuffersUnderLoad(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	server := idgen.Next()
	if err := tr.Listen(server, func(_ context.Context, _ idgen.NodeID, _ string, p []byte) ([]byte, error) {
		out := make([]byte, len(p))
		copy(out, p)
		return out, nil
	}); err != nil {
		t.Fatal(err)
	}
	client := idgen.Next()
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 50; i++ {
				n := 1 << uint(6+rng.Intn(12)) // 64 B .. 128 KiB
				payload := make([]byte, n)
				for j := range payload {
					payload[j] = byte(g)
				}
				resp, err := tr.Call(context.Background(), client, server, "load", payload)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(resp, payload) {
					errs <- context.DeadlineExceeded
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
