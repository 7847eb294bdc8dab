package raylet

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"skadi/internal/fabric"
	"skadi/internal/idgen"
	"skadi/internal/ownership"
	"skadi/internal/skaderr"
	"skadi/internal/tenancy"
	"skadi/internal/trace"
	"skadi/internal/transport"
)

// ownParityTransports builds one in-process and one TCP transport; the
// parity tests drive the same ownership/gossip RPCs over both and require
// identical observations.
func ownParityTransports(t *testing.T) map[string]transport.Transport {
	t.Helper()
	inproc := transport.NewInProc(fabric.New(fabric.Config{}))
	tcp := transport.NewTCP()
	t.Cleanup(func() { inproc.Close(); tcp.Close() })
	return map[string]transport.Transport{"inproc": inproc, "tcp": tcp}
}

// ctxObservation is what a directory-shard handler saw of the caller's
// context while serving one RPC.
type ctxObservation struct {
	hasDeadline bool
	span        trace.SpanContext
	hasSpan     bool
	tenant      string
}

// TestOwnershipRPCContextParity: the per-task ownership RPCs
// (own.create / own.ready / own.get) and gossip probes must thread the
// caller's deadline, TraceID/SpanID pair, and tenant through the frame on
// the TCP transport exactly as in process. A shard served by a worker
// raylet over sockets is indistinguishable, context-wise, from one served
// by the co-located head.
func TestOwnershipRPCContextParity(t *testing.T) {
	kinds := []string{KindOwnCreate, KindOwnReady, KindOwnGet, KindGossipProbe}
	seen := make(map[string]map[string]ctxObservation) // transport → kind → obs
	sc := trace.SpanContext{Trace: idgen.Next(), Span: idgen.Next()}
	const tenant = "acme-analytics"

	for name, tr := range ownParityTransports(t) {
		server, client := idgen.Next(), idgen.Next()
		dir := ownership.NewTable()
		// The TCP handler runs on a server goroutine whose only ordering
		// with the caller is the socket itself, invisible to the race
		// detector — obs needs a real lock.
		var mu sync.Mutex
		obs := make(map[string]ctxObservation)
		err := tr.Listen(server, func(ctx context.Context, from idgen.NodeID, kind string, payload []byte) ([]byte, error) {
			o := ctxObservation{}
			_, o.hasDeadline = ctx.Deadline()
			o.span, o.hasSpan = trace.FromContext(ctx)
			o.tenant, _ = tenancy.FromContext(ctx)
			mu.Lock()
			obs[kind] = o
			mu.Unlock()
			if kind == KindGossipProbe {
				return ServeGossipProbe(server, payload)
			}
			resp, handled, herr := ServeOwnership(ctx, dir, kind, payload)
			if !handled {
				t.Errorf("%s: kind %q not handled", name, kind)
			}
			return resp, herr
		})
		if err != nil {
			t.Fatalf("%s Listen: %v", name, err)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		ctx = trace.ContextWith(ctx, sc)
		ctx = tenancy.ContextWith(ctx, tenant)

		obj, owner, tid := idgen.Next(), idgen.Next(), idgen.Next()
		calls := map[string][]byte{
			KindOwnCreate:   transport.MustEncode(OwnCreateRequest{IDs: []idgen.ObjectID{obj}, Owner: owner, Task: tid}),
			KindOwnReady:    transport.MustEncode(OwnReadyRequest{ID: obj, Size: 64, Location: owner}),
			KindOwnGet:      transport.MustEncode(OwnGetRequest{ID: obj}),
			KindGossipProbe: transport.MustEncode(GossipProbeRequest{From: client, Nonce: 7}),
		}
		for _, kind := range kinds { // create before ready before get
			if _, err := tr.Call(ctx, client, server, kind, calls[kind]); err != nil {
				t.Fatalf("%s %s: %v", name, kind, err)
			}
		}
		cancel()
		mu.Lock()
		seen[name] = obs
		mu.Unlock()
	}

	for _, kind := range kinds {
		in, tcp := seen["inproc"][kind], seen["tcp"][kind]
		if in != tcp {
			t.Errorf("%s: context observations diverge: inproc %+v, tcp %+v", kind, in, tcp)
		}
		if !in.hasDeadline {
			t.Errorf("%s: handler saw no deadline", kind)
		}
		if !in.hasSpan || in.span != sc {
			t.Errorf("%s: handler span = %+v (ok=%v), want %+v", kind, in.span, in.hasSpan, sc)
		}
		if in.tenant != tenant {
			t.Errorf("%s: handler tenant = %q, want %q", kind, in.tenant, tenant)
		}
	}
}

// TestOwnershipRPCErrorParity: a miss on the own.get path must
// fail with the same skaderr code and message over both transports.
func TestOwnershipRPCErrorParity(t *testing.T) {
	got := make(map[string]error)
	for name, tr := range ownParityTransports(t) {
		server, client := idgen.Next(), idgen.Next()
		dir := ownership.NewTable()
		err := tr.Listen(server, func(ctx context.Context, from idgen.NodeID, kind string, payload []byte) ([]byte, error) {
			resp, _, herr := ServeOwnership(ctx, dir, kind, payload)
			return resp, herr
		})
		if err != nil {
			t.Fatalf("%s Listen: %v", name, err)
		}
		_, cerr := tr.Call(context.Background(), client, server, KindOwnGet,
			transport.MustEncode(OwnGetRequest{ID: idgen.FromSeq(404)}))
		if cerr == nil {
			t.Fatalf("%s: want NotFound error", name)
		}
		got[name] = cerr
	}
	in, tcp := got["inproc"], got["tcp"]
	if in.Error() != tcp.Error() {
		t.Errorf("messages diverge: inproc %q, tcp %q", in, tcp)
	}
	for _, code := range []error{skaderr.NotFound, skaderr.Unavailable} {
		if errors.Is(in, code) != errors.Is(tcp, code) {
			t.Errorf("errors.Is(%v) diverges: inproc %v, tcp %v", code, errors.Is(in, code), errors.Is(tcp, code))
		}
	}
	if skaderr.CodeOf(tcp) != skaderr.NotFound {
		t.Errorf("tcp code = %v, want NotFound to survive the wire", skaderr.CodeOf(tcp))
	}
}

// TestGossipProberParity: the failure-detector probe function must reach
// verdicts identically over both transports — ack for a listening peer
// (nonce and responder verified), refusal for a missing or downed one.
func TestGossipProberParity(t *testing.T) {
	for name, tr := range ownParityTransports(t) {
		t.Run(name, func(t *testing.T) {
			server, client := idgen.Next(), idgen.Next()
			handler := func(_ context.Context, _ idgen.NodeID, kind string, payload []byte) ([]byte, error) {
				if kind != KindGossipProbe {
					t.Errorf("unexpected kind %q", kind)
				}
				return ServeGossipProbe(server, payload)
			}
			if err := tr.Listen(server, handler); err != nil {
				t.Fatalf("Listen: %v", err)
			}
			probe := GossipProber(tr, time.Second)
			if !probe(client, server) {
				t.Error("probe to a listening peer failed")
			}
			if probe(client, idgen.Next()) {
				t.Error("probe to a non-member succeeded")
			}
			// A crashed peer stops listening; the probe must turn negative,
			// and a restart (re-listen) must restore the ack.
			tr.Unlisten(server)
			if probe(client, server) {
				t.Error("probe to an unlistened peer succeeded")
			}
			if err := tr.Listen(server, handler); err != nil {
				t.Fatalf("re-Listen: %v", err)
			}
			if !probe(client, server) {
				t.Error("probe after restart failed")
			}
		})
	}
}
