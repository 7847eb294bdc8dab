package raylet

import (
	"bytes"
	"context"
	"testing"

	"skadi/internal/caching"
	"skadi/internal/fabric"
	"skadi/internal/idgen"
	"skadi/internal/objectstore"
	"skadi/internal/ownership"
	"skadi/internal/task"
	"skadi/internal/transport"
)

// TestTCPEndToEnd proves the runtime is not simulation-bound: the head
// service and two raylets talk over real TCP sockets (the deployment
// transport), executing a producer/consumer chain with a cross-node pull.
func TestTCPEndToEnd(t *testing.T) {
	tr := NewTCPRig(t)
	defer tr.transport.Close()

	prod := task.NewSpec(idgen.Next(), "produce", []task.Arg{task.ValueArg([]byte("over-tcp"))}, 1)
	if err := tr.create(prod); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.exec(tr.raylets[0], prod); err != nil {
		t.Fatalf("producer exec over TCP: %v", err)
	}
	cons := task.NewSpec(idgen.Next(), "concat", []task.Arg{
		task.RefArg(prod.Returns[0]), task.ValueArg([]byte("!")),
	}, 1)
	if err := tr.create(cons); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.exec(tr.raylets[1], cons); err != nil {
		t.Fatalf("consumer exec over TCP: %v", err)
	}

	// Fetch the result over the socket.
	payload := transport.MustEncode(GetRequest{ID: cons.Returns[0]})
	respB, err := tr.transport.Call(context.Background(), tr.head.Node, tr.raylets[1].Node(), KindGet, payload)
	if err != nil {
		t.Fatal(err)
	}
	var resp GetResponse
	if err := transport.Decode(respB, &resp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Data, []byte("over-tcp!")) {
		t.Errorf("result = %q", resp.Data)
	}
	// The consumer really pulled across the socket.
	if tr.raylets[1].Stats().RemoteFetches != 1 {
		t.Errorf("RemoteFetches = %d, want 1", tr.raylets[1].Stats().RemoteFetches)
	}
}

// TestTCPPushResolution runs the push protocol over sockets.
func TestTCPPushResolution(t *testing.T) {
	tr := NewTCPRig(t)
	defer tr.transport.Close()
	tr.setResolution(t, Push)

	prod := task.NewSpec(idgen.Next(), "slow", []task.Arg{task.ValueArg([]byte("pushed-tcp"))}, 1)
	cons := task.NewSpec(idgen.Next(), "produce", []task.Arg{task.RefArg(prod.Returns[0])}, 1)
	for _, s := range []*task.Spec{prod, cons} {
		if err := tr.create(s); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := tr.exec(tr.raylets[1], cons)
		done <- err
	}()
	if _, err := tr.exec(tr.raylets[0], prod); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if tr.raylets[1].Stats().PushesRecv == 0 && tr.raylets[1].Stats().RemoteFetches == 0 {
		t.Error("consumer neither received a push nor pulled")
	}
}

// tcpRig wires a head and two raylets over one TCP transport.
type tcpRig struct {
	transport *transport.TCP
	head      *Head
	layer     *caching.Layer
	fab       *fabric.Fabric
	reg       *task.Registry
	raylets   []*Raylet
}

// NewTCPRig builds the rig; exported-looking name kept test-local.
func NewTCPRig(t *testing.T) *tcpRig {
	t.Helper()
	tcp := transport.NewTCP()
	fab := fabric.New(fabric.Config{})
	layer, err := caching.NewLayer(fab, caching.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := task.NewRegistry()
	registerTestFns(reg)

	headNode := idgen.Next()
	fab.Register(headNode, fabric.Location{Rack: 0, Island: -1})
	head := NewHead(headNode, ownership.NewTable())
	if err := head.Start(tcp); err != nil {
		t.Fatal(err)
	}

	rig := &tcpRig{transport: tcp, head: head, layer: layer, fab: fab, reg: reg}
	for i := 0; i < 2; i++ {
		node := idgen.Next()
		fab.Register(node, fabric.Location{Rack: 0, Island: -1})
		layer.AddStore(node, caching.HostDRAM, objectstore.New(64<<20, nil))
		rl, err := New(Config{
			Node: node, Backend: "cpu", Slots: 2,
			Head: headNode, Transport: tcp, Fabric: fab,
			Layer: layer, Registry: reg, Resolution: Pull,
			Directory: head.Table, OwnerRouter: routeTo(headNode),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rl.Start(); err != nil {
			t.Fatal(err)
		}
		rig.raylets = append(rig.raylets, rl)
	}
	return rig
}

// setResolution rebuilds the raylets with the given protocol.
func (tr *tcpRig) setResolution(t *testing.T, res Resolution) {
	t.Helper()
	for i, old := range tr.raylets {
		old.Stop()
		rl, err := New(Config{
			Node: old.Node(), Backend: "cpu", Slots: 2,
			Head: tr.head.Node, Transport: tr.transport, Fabric: tr.fab,
			Layer: tr.layer, Registry: tr.reg, Resolution: res,
			Directory: tr.head.Table, OwnerRouter: routeTo(tr.head.Node),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rl.Start(); err != nil {
			t.Fatal(err)
		}
		tr.raylets[i] = rl
	}
}

func (tr *tcpRig) create(spec *task.Spec) error {
	payload := transport.MustEncode(OwnCreateRequest{IDs: spec.Returns, Owner: tr.head.Node, Task: spec.ID})
	_, err := tr.transport.Call(context.Background(), tr.head.Node, tr.head.Node, KindOwnCreate, payload)
	return err
}

func (tr *tcpRig) exec(rl *Raylet, spec *task.Spec) (*ExecResponse, error) {
	payload := transport.MustEncode(ExecRequest{Spec: *spec})
	respB, err := tr.transport.Call(context.Background(), tr.head.Node, rl.Node(), KindExec, payload)
	if err != nil {
		return nil, err
	}
	var resp ExecResponse
	if err := transport.Decode(respB, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
