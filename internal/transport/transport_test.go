package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"skadi/internal/fabric"
	"skadi/internal/idgen"
	"skadi/internal/skaderr"
	"skadi/internal/tenancy"
	"skadi/internal/wire"
)

// echoHandler responds with "kind:payload".
func echoHandler(_ context.Context, _ idgen.NodeID, kind string, payload []byte) ([]byte, error) {
	return []byte(kind + ":" + string(payload)), nil
}

// failHandler always returns an application error.
func failHandler(_ context.Context, _ idgen.NodeID, _ string, _ []byte) ([]byte, error) {
	return nil, errors.New("boom")
}

// transports returns one of each implementation for table-driven tests.
func transports(t *testing.T) map[string]Transport {
	t.Helper()
	inproc := NewInProc(fabric.New(fabric.Config{}))
	tcp := NewTCP()
	t.Cleanup(func() { inproc.Close(); tcp.Close() })
	return map[string]Transport{"inproc": inproc, "tcp": tcp}
}

func TestCallRoundTrip(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			server, client := idgen.Next(), idgen.Next()
			if err := tr.Listen(server, echoHandler); err != nil {
				t.Fatalf("Listen: %v", err)
			}
			resp, err := tr.Call(context.Background(), client, server, "ping", []byte("hi"))
			if err != nil {
				t.Fatalf("Call: %v", err)
			}
			if string(resp) != "ping:hi" {
				t.Errorf("resp = %q, want %q", resp, "ping:hi")
			}
		})
	}
}

func TestRemoteErrorPropagates(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			server, client := idgen.Next(), idgen.Next()
			if err := tr.Listen(server, failHandler); err != nil {
				t.Fatalf("Listen: %v", err)
			}
			_, err := tr.Call(context.Background(), client, server, "x", nil)
			if !IsRemote(err) {
				t.Fatalf("err = %v, want RemoteError", err)
			}
			if !strings.Contains(err.Error(), "boom") {
				t.Errorf("err = %v, want to contain boom", err)
			}
		})
	}
}

func TestUnreachable(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			_, err := tr.Call(context.Background(), idgen.Next(), idgen.Next(), "x", nil)
			if !errors.Is(err, ErrUnreachable) {
				t.Errorf("err = %v, want ErrUnreachable", err)
			}
		})
	}
}

func TestUnlisten(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			server, client := idgen.Next(), idgen.Next()
			if err := tr.Listen(server, echoHandler); err != nil {
				t.Fatalf("Listen: %v", err)
			}
			tr.Unlisten(server)
			_, err := tr.Call(context.Background(), client, server, "x", nil)
			if err == nil {
				t.Error("Call after Unlisten should fail")
			}
		})
	}
}

func TestDuplicateListen(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			node := idgen.Next()
			if err := tr.Listen(node, echoHandler); err != nil {
				t.Fatalf("Listen: %v", err)
			}
			if err := tr.Listen(node, echoHandler); !errors.Is(err, ErrAlreadyListening) {
				t.Errorf("second Listen = %v, want ErrAlreadyListening", err)
			}
		})
	}
}

func TestConcurrentCalls(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			server := idgen.Next()
			if err := tr.Listen(server, echoHandler); err != nil {
				t.Fatalf("Listen: %v", err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, 64)
			for i := 0; i < 64; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					client := idgen.Next()
					want := fmt.Sprintf("m:%d", i)
					resp, err := tr.Call(context.Background(), client, server, "m", []byte(fmt.Sprint(i)))
					if err != nil {
						errs <- err
						return
					}
					if string(resp) != want {
						errs <- fmt.Errorf("resp %q want %q", resp, want)
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

func TestCallAfterClose(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			server := idgen.Next()
			if err := tr.Listen(server, echoHandler); err != nil {
				t.Fatalf("Listen: %v", err)
			}
			tr.Close()
			if _, err := tr.Call(context.Background(), idgen.Next(), server, "x", nil); err == nil {
				t.Error("Call after Close should fail")
			}
			if err := tr.Listen(idgen.Next(), echoHandler); !errors.Is(err, ErrClosed) {
				t.Errorf("Listen after Close = %v, want ErrClosed", err)
			}
		})
	}
}

func TestInProcChargesFabric(t *testing.T) {
	f := fabric.New(fabric.Config{})
	tr := NewInProc(f)
	defer tr.Close()
	server, client := idgen.Next(), idgen.Next()
	f.Register(server, fabric.Location{Rack: 0, Island: -1})
	f.Register(client, fabric.Location{Rack: 0, Island: -1})
	if err := tr.Listen(server, echoHandler); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	if _, err := tr.Call(context.Background(), client, server, "k", make([]byte, 1000)); err != nil {
		t.Fatalf("Call: %v", err)
	}
	stats := f.ClassStats(fabric.Rack)
	if stats.Messages != 2 {
		t.Errorf("messages = %d, want 2 (request+response)", stats.Messages)
	}
	if stats.Bytes < 1000 {
		t.Errorf("bytes = %d, want >= payload size", stats.Bytes)
	}
}

// TestInProcChargesHeaderEveryCall checks that every in-process call is
// charged its message header in each direction, whether the payload fits
// in one fabric chunk or streams as several.
func TestInProcChargesHeaderEveryCall(t *testing.T) {
	f := fabric.New(fabric.Config{})
	tr := NewInProc(f)
	defer tr.Close()
	server, client := idgen.Next(), idgen.Next()
	f.Register(server, fabric.Location{Rack: 0, Island: -1})
	f.Register(client, fabric.Location{Rack: 0, Island: -1})
	mirror := func(_ context.Context, _ idgen.NodeID, _ string, p []byte) ([]byte, error) { return p, nil }
	if err := tr.Listen(server, mirror); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	for _, n := range []int{1 << 10, 300 << 10} {
		f.ResetStats()
		if _, err := tr.Call(context.Background(), client, server, "k", make([]byte, n)); err != nil {
			t.Fatalf("Call(%d B): %v", n, err)
		}
		if got, want := f.ClassStats(fabric.Rack).LogicalBytes, int64(2*(n+messageOverhead)); got != want {
			t.Errorf("%d B call: logical bytes = %d, want %d (payload + header, both ways)", n, got, want)
		}
	}
}

func TestInProcSetDown(t *testing.T) {
	tr := NewInProc(fabric.New(fabric.Config{}))
	defer tr.Close()
	server, client := idgen.Next(), idgen.Next()
	if err := tr.Listen(server, echoHandler); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	tr.SetDown(server, true)
	if _, err := tr.Call(context.Background(), client, server, "x", nil); !errors.Is(err, ErrUnreachable) {
		t.Errorf("Call to down node = %v, want ErrUnreachable", err)
	}
	tr.SetDown(server, false)
	if _, err := tr.Call(context.Background(), client, server, "x", nil); err != nil {
		t.Errorf("Call after recovery = %v", err)
	}
}

func TestInProcContextCancelled(t *testing.T) {
	tr := NewInProc(fabric.New(fabric.Config{}))
	defer tr.Close()
	server := idgen.Next()
	if err := tr.Listen(server, echoHandler); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tr.Call(ctx, idgen.Next(), server, "x", nil); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestTCPCrossTransportDirectory(t *testing.T) {
	// Two TCP transports model two processes: the client side learns the
	// server's address via Connect.
	serverSide := NewTCP()
	clientSide := NewTCP()
	defer serverSide.Close()
	defer clientSide.Close()

	server := idgen.Next()
	if err := serverSide.Listen(server, echoHandler); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	addr, ok := serverSide.Addr(server)
	if !ok {
		t.Fatal("Addr not found")
	}
	clientSide.Connect(server, addr)
	resp, err := clientSide.Call(context.Background(), idgen.Next(), server, "k", []byte("v"))
	if err != nil {
		t.Fatalf("cross-process Call: %v", err)
	}
	if string(resp) != "k:v" {
		t.Errorf("resp = %q", resp)
	}
}

func TestTCPContextTimeout(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	server := idgen.Next()
	block := make(chan struct{})
	defer close(block)
	err := tr.Listen(server, func(context.Context, idgen.NodeID, string, []byte) ([]byte, error) {
		<-block
		return nil, nil
	})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := tr.Call(ctx, idgen.Next(), server, "x", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
}

func TestTCPLargePayload(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	server := idgen.Next()
	if err := tr.Listen(server, func(_ context.Context, _ idgen.NodeID, _ string, p []byte) ([]byte, error) {
		return p, nil
	}); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	payload := make([]byte, 4<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	resp, err := tr.Call(context.Background(), idgen.Next(), server, "big", payload)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if len(resp) != len(payload) {
		t.Fatalf("resp len = %d, want %d", len(resp), len(payload))
	}
	for i := range resp {
		if resp[i] != payload[i] {
			t.Fatalf("payload corrupted at byte %d", i)
		}
	}
}

// TestCrossTransportErrorParity is the satellite contract: the same handler
// failure must be errors.Is-equal on both transports — same skaderr code,
// same message, both marked remote.
func TestCrossTransportErrorParity(t *testing.T) {
	handler := func(context.Context, idgen.NodeID, string, []byte) ([]byte, error) {
		return nil, skaderr.Mark(skaderr.DataLoss, errors.New("ownership: object lost"))
	}
	got := make(map[string]error)
	for name, tr := range transports(t) {
		server, client := idgen.Next(), idgen.Next()
		if err := tr.Listen(server, handler); err != nil {
			t.Fatalf("%s Listen: %v", name, err)
		}
		_, err := tr.Call(context.Background(), client, server, "x", nil)
		if err == nil {
			t.Fatalf("%s: want error", name)
		}
		got[name] = err
	}
	inproc, tcp := got["inproc"], got["tcp"]
	if inproc.Error() != tcp.Error() {
		t.Errorf("messages diverge: inproc %q, tcp %q", inproc, tcp)
	}
	for _, target := range []error{skaderr.DataLoss, skaderr.Cancelled, skaderr.Internal} {
		if errors.Is(inproc, target) != errors.Is(tcp, target) {
			t.Errorf("errors.Is(%v) diverges: inproc %v, tcp %v",
				target, errors.Is(inproc, target), errors.Is(tcp, target))
		}
	}
	if !errors.Is(tcp, skaderr.DataLoss) {
		t.Errorf("tcp err = %v, want DataLoss code to survive the wire", tcp)
	}
	if !IsRemote(inproc) || !IsRemote(tcp) {
		t.Error("both errors must be marked remote")
	}
}

// TestDeadlineCrossesWire: the caller's deadline must be observable in the
// remote handler's context on both transports.
func TestDeadlineCrossesWire(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			server, client := idgen.Next(), idgen.Next()
			sawDeadline := make(chan bool, 1)
			err := tr.Listen(server, func(ctx context.Context, _ idgen.NodeID, _ string, _ []byte) ([]byte, error) {
				_, ok := ctx.Deadline()
				sawDeadline <- ok
				return nil, nil
			})
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := tr.Call(ctx, client, server, "x", nil); err != nil {
				t.Fatalf("Call: %v", err)
			}
			if !<-sawDeadline {
				t.Error("handler context carried no deadline")
			}
		})
	}
}

// TestTenantCrossesWire is the tenancy parity satellite: the caller's
// tenant ID must be observable in the remote handler's context on both
// transports — it rides the frame beside TraceID/SpanID/deadline and
// survives the TCP hop like skaderr codes do.
func TestTenantCrossesWire(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			server, client := idgen.Next(), idgen.Next()
			sawTenant := make(chan string, 1)
			err := tr.Listen(server, func(ctx context.Context, _ idgen.NodeID, _ string, _ []byte) ([]byte, error) {
				tenant, _ := tenancy.FromContext(ctx)
				sawTenant <- tenant
				return nil, nil
			})
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			ctx := tenancy.ContextWith(context.Background(), "acme-analytics")
			if _, err := tr.Call(ctx, client, server, "x", nil); err != nil {
				t.Fatalf("Call: %v", err)
			}
			if got := <-sawTenant; got != "acme-analytics" {
				t.Errorf("handler saw tenant %q, want %q", got, "acme-analytics")
			}
			// And the absence of a tenant must also round-trip (no phantom
			// attribution).
			if _, err := tr.Call(context.Background(), client, server, "x", nil); err != nil {
				t.Fatalf("Call: %v", err)
			}
			if got := <-sawTenant; got != "" {
				t.Errorf("untagged call saw tenant %q, want none", got)
			}
		})
	}
}

// TestCancelPropagatesToServer: when the caller aborts mid-call, the remote
// handler's context must be cancelled — over TCP this rides a cancel frame.
func TestCancelPropagatesToServer(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			server, client := idgen.Next(), idgen.Next()
			started := make(chan struct{})
			interrupted := make(chan struct{})
			err := tr.Listen(server, func(ctx context.Context, _ idgen.NodeID, _ string, _ []byte) ([]byte, error) {
				close(started)
				select {
				case <-ctx.Done():
					close(interrupted)
					return nil, ctx.Err()
				case <-time.After(5 * time.Second):
					return nil, errors.New("handler never saw cancellation")
				}
			})
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			callErr := make(chan error, 1)
			go func() {
				_, err := tr.Call(ctx, client, server, "x", nil)
				callErr <- err
			}()
			<-started
			cancel()
			select {
			case <-interrupted:
			case <-time.After(2 * time.Second):
				t.Fatal("server handler was not interrupted by caller cancel")
			}
			if err := <-callErr; !errors.Is(err, skaderr.Cancelled) {
				t.Errorf("caller err = %v, want skaderr.Cancelled", err)
			}
		})
	}
}

// testMsg is a Message the way raylet/protocol.go declares them.
type testMsg struct {
	ID   idgen.ID
	Size int64
	Name string
	Body []byte
}

func (m *testMsg) Wire(c *wire.Coder) {
	c.Tag(0x7F)
	c.ID(&m.ID)
	c.Varint(&m.Size)
	c.String(&m.Name)
	c.LenBytes(&m.Body)
}

func TestEncodeDecode(t *testing.T) {
	in := testMsg{ID: idgen.Next(), Size: -42, Name: "hello", Body: []byte{1, 2, 3}}
	data, err := Encode(in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.Equal(data, MustEncode(in)) {
		t.Error("Encode and MustEncode disagree")
	}
	var out testMsg
	if err := Decode(data, &out); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("round trip = %+v, want %+v", out, in)
	}
}

func TestDecodeGarbage(t *testing.T) {
	good := MustEncode(testMsg{Name: "x"})
	for _, b := range [][]byte{nil, {0xde, 0xad}, good[:len(good)-1], append([]byte{0x7E}, good[1:]...)} {
		var out testMsg
		if err := Decode(b, &out); err == nil {
			t.Errorf("Decode(%x) should fail", b)
		}
	}
}
