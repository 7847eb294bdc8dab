package raylet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"skadi/internal/caching"
	"skadi/internal/cluster"
	"skadi/internal/idgen"
	"skadi/internal/objectstore"
	"skadi/internal/ownership"
	"skadi/internal/task"
	"skadi/internal/transport"
)

// rig is a minimal runtime: a cluster, a head service, a caching layer with
// a store per node, and one raylet per server, driven directly over the
// transport by the test (acting as the driver).
type rig struct {
	t       *testing.T
	cluster *cluster.Cluster
	head    *Head
	layer   *caching.Layer
	raylets []*Raylet
	driver  idgen.NodeID
}

// routeTo is the OwnerRouter of a directory with one shard host.
func routeTo(host idgen.NodeID) func(idgen.ObjectID) (idgen.NodeID, bool) {
	return func(idgen.ObjectID) (idgen.NodeID, bool) { return host, true }
}

func newRig(t *testing.T, nServers int, res Resolution) *rig {
	t.Helper()
	c := cluster.New(cluster.Config{TimeScale: 0})
	headNode := c.AddServer("head", 0, 4, 1<<30)
	head := NewHead(headNode.ID, ownership.NewTable())
	if err := head.Start(c.Transport); err != nil {
		t.Fatal(err)
	}
	layer, err := caching.NewLayer(c.Fabric, caching.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := task.NewRegistry()
	registerTestFns(reg)

	r := &rig{t: t, cluster: c, head: head, layer: layer, driver: headNode.ID}
	layer.AddStore(headNode.ID, caching.HostDRAM, objectstore.New(1<<30, nil))
	for i := 0; i < nServers; i++ {
		node := c.AddServer("s", 0, 2, 1<<30)
		layer.AddStore(node.ID, caching.HostDRAM, objectstore.New(1<<30, nil))
		rl, err := New(Config{
			Node: node.ID, Backend: "cpu", Slots: 2,
			Head: headNode.ID, Transport: c.Transport, Fabric: c.Fabric,
			Layer: layer, Registry: reg, Resolution: res,
			Directory: head.Table, OwnerRouter: routeTo(headNode.ID),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := rl.Start(); err != nil {
			t.Fatal(err)
		}
		r.raylets = append(r.raylets, rl)
	}
	return r
}

func registerTestFns(reg *task.Registry) {
	reg.Register("produce", func(_ *task.Context, args [][]byte) ([][]byte, error) {
		return [][]byte{args[0]}, nil
	})
	reg.Register("concat", func(_ *task.Context, args [][]byte) ([][]byte, error) {
		var out []byte
		for _, a := range args {
			out = append(out, a...)
		}
		return [][]byte{out}, nil
	})
	reg.Register("fail", func(*task.Context, [][]byte) ([][]byte, error) {
		return nil, errors.New("intentional failure")
	})
	reg.Register("badreturns", func(*task.Context, [][]byte) ([][]byte, error) {
		return [][]byte{nil, nil}, nil
	})
	reg.Register("counter", func(ctx *task.Context, _ [][]byte) ([][]byte, error) {
		n := binary.BigEndian.Uint64(append(make([]byte, 8-len(ctx.ActorState["n"])), ctx.ActorState["n"]...))
		n++
		buf := make([]byte, 8)
		binary.BigEndian.PutUint64(buf, n)
		ctx.ActorState["n"] = buf
		return [][]byte{buf}, nil
	})
	reg.Register("slow", func(ctx *task.Context, args [][]byte) ([][]byte, error) {
		time.Sleep(30 * time.Millisecond)
		return [][]byte{args[0]}, nil
	})
}

// submit registers the spec's returns as pending and executes it on the
// raylet at index idx, returning the exec response.
func (r *rig) submit(idx int, spec *task.Spec) (*ExecResponse, error) {
	r.t.Helper()
	create := transport.MustEncode(OwnCreateRequest{IDs: spec.Returns, Owner: r.driver, Task: spec.ID})
	if _, err := r.cluster.Transport.Call(context.Background(), r.driver, r.head.Node, KindOwnCreate, create); err != nil {
		return nil, err
	}
	return r.exec(idx, spec)
}

// exec dispatches a spec whose returns are already registered.
func (r *rig) exec(idx int, spec *task.Spec) (*ExecResponse, error) {
	r.t.Helper()
	payload := transport.MustEncode(ExecRequest{Spec: *spec})
	respB, err := r.cluster.Transport.Call(context.Background(), r.driver, r.raylets[idx].Node(), KindExec, payload)
	if err != nil {
		return nil, err
	}
	var resp ExecResponse
	if err := transport.Decode(respB, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// fetch reads an object from a raylet's store over the transport.
func (r *rig) fetch(idx int, id idgen.ObjectID) ([]byte, error) {
	payload := transport.MustEncode(GetRequest{ID: id})
	respB, err := r.cluster.Transport.Call(context.Background(), r.driver, r.raylets[idx].Node(), KindGet, payload)
	if err != nil {
		return nil, err
	}
	var resp GetResponse
	if err := transport.Decode(respB, &resp); err != nil {
		return nil, err
	}
	return resp.Data, nil
}

func TestExecValueArgs(t *testing.T) {
	r := newRig(t, 1, Pull)
	spec := task.NewSpec(idgen.Next(), "produce", []task.Arg{task.ValueArg([]byte("hello"))}, 1)
	resp, err := r.submit(0, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.ResultSizes) != 1 || resp.ResultSizes[0] != 5 {
		t.Errorf("resp = %+v", resp)
	}
	// Result committed locally and registered with the head.
	data, err := r.fetch(0, spec.Returns[0])
	if err != nil || !bytes.Equal(data, []byte("hello")) {
		t.Errorf("fetch = %q, %v", data, err)
	}
	rec, err := r.head.Table.Get(spec.Returns[0])
	if err != nil || rec.State.String() != "ready" {
		t.Errorf("ownership rec = %+v, %v", rec, err)
	}
	if got := r.raylets[0].Stats().TasksExecuted; got != 1 {
		t.Errorf("TasksExecuted = %d", got)
	}
}

func TestExecRefArgPullAcrossNodes(t *testing.T) {
	r := newRig(t, 2, Pull)
	prod := task.NewSpec(idgen.Next(), "produce", []task.Arg{task.ValueArg([]byte("data-on-0"))}, 1)
	if _, err := r.submit(0, prod); err != nil {
		t.Fatal(err)
	}
	cons := task.NewSpec(idgen.Next(), "concat", []task.Arg{
		task.RefArg(prod.Returns[0]),
		task.ValueArg([]byte("+local")),
	}, 1)
	if _, err := r.submit(1, cons); err != nil {
		t.Fatal(err)
	}
	data, err := r.fetch(1, cons.Returns[0])
	if err != nil || string(data) != "data-on-0+local" {
		t.Fatalf("result = %q, %v", data, err)
	}
	st := r.raylets[1].Stats()
	if st.RemoteFetches != 1 {
		t.Errorf("RemoteFetches = %d, want 1", st.RemoteFetches)
	}
	// The fetched copy was cached locally and its location registered.
	rec, _ := r.head.Table.Get(prod.Returns[0])
	if len(rec.Locations) != 2 {
		t.Errorf("locations = %v, want producer + consumer", rec.Locations)
	}
}

func TestExecRefLocalHit(t *testing.T) {
	r := newRig(t, 1, Pull)
	prod := task.NewSpec(idgen.Next(), "produce", []task.Arg{task.ValueArg([]byte("x"))}, 1)
	if _, err := r.submit(0, prod); err != nil {
		t.Fatal(err)
	}
	cons := task.NewSpec(idgen.Next(), "produce", []task.Arg{task.RefArg(prod.Returns[0])}, 1)
	if _, err := r.submit(0, cons); err != nil {
		t.Fatal(err)
	}
	st := r.raylets[0].Stats()
	if st.LocalHits != 1 || st.RemoteFetches != 0 {
		t.Errorf("stats = %+v, want local hit", st)
	}
}

func TestPushResolutionDeliversProactively(t *testing.T) {
	r := newRig(t, 2, Push)
	prod := task.NewSpec(idgen.Next(), "slow", []task.Arg{task.ValueArg([]byte("pushed"))}, 1)
	cons := task.NewSpec(idgen.Next(), "produce", []task.Arg{task.RefArg(prod.Returns[0])}, 1)

	// Register both, start the consumer first: it must block, subscribe,
	// and receive the push when the producer commits.
	for _, s := range []*task.Spec{prod, cons} {
		create := transport.MustEncode(OwnCreateRequest{IDs: s.Returns, Owner: r.driver, Task: s.ID})
		if _, err := r.cluster.Transport.Call(context.Background(), r.driver, r.head.Node, KindOwnCreate, create); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var consErr error
	go func() {
		defer wg.Done()
		_, consErr = r.exec(1, cons)
	}()
	time.Sleep(10 * time.Millisecond) // let the consumer subscribe
	if _, err := r.exec(0, prod); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if consErr != nil {
		t.Fatal(consErr)
	}
	st0, st1 := r.raylets[0].Stats(), r.raylets[1].Stats()
	if st0.PushesSent != 1 {
		t.Errorf("producer PushesSent = %d, want 1", st0.PushesSent)
	}
	if st1.PushesRecv != 1 {
		t.Errorf("consumer PushesRecv = %d, want 1", st1.PushesRecv)
	}
	if st1.RemoteFetches != 0 {
		t.Errorf("consumer RemoteFetches = %d, want 0 (pushed, not pulled)", st1.RemoteFetches)
	}
	data, err := r.fetch(1, cons.Returns[0])
	if err != nil || string(data) != "pushed" {
		t.Errorf("result = %q, %v", data, err)
	}
}

// TestPushResolutionWakesColocatedConsumer: a consumer that subscribes
// before a producer on its own node commits gets no push (own.ready never
// lists the producing node as a subscriber), so the commit itself must wake
// it — not the pushWait timeout, two seconds later.
func TestPushResolutionWakesColocatedConsumer(t *testing.T) {
	r := newRig(t, 1, Push)
	rl := r.raylets[0]
	prod := task.NewSpec(idgen.Next(), "produce", []task.Arg{task.ValueArg([]byte("local"))}, 1)
	cons := task.NewSpec(idgen.Next(), "produce", []task.Arg{task.RefArg(prod.Returns[0])}, 1)
	for _, s := range []*task.Spec{prod, cons} {
		create := transport.MustEncode(OwnCreateRequest{IDs: s.Returns, Owner: r.driver, Task: s.ID})
		if _, err := r.cluster.Transport.Call(context.Background(), r.driver, r.head.Node, KindOwnCreate, create); err != nil {
			t.Fatal(err)
		}
	}
	consDone := make(chan error, 1)
	go func() {
		_, err := r.exec(0, cons)
		consDone <- err
	}()
	// Subscribe first: wait until the consumer is parked on the arrival.
	for deadline := time.Now().Add(5 * time.Second); ; {
		rl.arrivalsMu.Lock()
		parked := len(rl.arrivals[prod.Returns[0]])
		rl.arrivalsMu.Unlock()
		if parked == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("consumer never parked on the arrival")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Commit second, on the same node.
	start := time.Now()
	if _, err := r.exec(0, prod); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-consDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(rl.pushWait):
		t.Fatal("consumer slept out pushWait")
	}
	if d := time.Since(start); d >= 100*time.Millisecond {
		t.Errorf("co-located consumer resolved in %v, want < 100ms", d)
	}
	if st := rl.Stats(); st.PushesRecv != 0 || st.PushesSent != 0 {
		t.Errorf("stats = %+v, want no push on a single node", st)
	}
	data, err := r.fetch(0, cons.Returns[0])
	if err != nil || string(data) != "local" {
		t.Errorf("result = %q, %v", data, err)
	}
}

func TestPushResolutionReadyObjectFallsBackToPull(t *testing.T) {
	r := newRig(t, 2, Push)
	prod := task.NewSpec(idgen.Next(), "produce", []task.Arg{task.ValueArg([]byte("already"))}, 1)
	if _, err := r.submit(0, prod); err != nil {
		t.Fatal(err)
	}
	cons := task.NewSpec(idgen.Next(), "produce", []task.Arg{task.RefArg(prod.Returns[0])}, 1)
	if _, err := r.submit(1, cons); err != nil {
		t.Fatal(err)
	}
	st := r.raylets[1].Stats()
	if st.RemoteFetches != 1 || st.PushesRecv != 0 {
		t.Errorf("stats = %+v, want a pull fetch", st)
	}
}

func TestGen1DPUHopsCharged(t *testing.T) {
	c := cluster.New(cluster.Config{TimeScale: 0})
	headNode := c.AddServer("head", 0, 4, 1<<30)
	head := NewHead(headNode.ID, ownership.NewTable())
	if err := head.Start(c.Transport); err != nil {
		t.Fatal(err)
	}
	dpu, devices := c.AddDeviceGroup("gpu", 0, -1, 1, cluster.GPUDevice, 1, 1<<30)
	layer, err := caching.NewLayer(c.Fabric, caching.Config{})
	if err != nil {
		t.Fatal(err)
	}
	layer.AddStore(headNode.ID, caching.HostDRAM, objectstore.New(1<<30, nil))
	layer.AddStore(devices[0].ID, caching.DeviceHBM, objectstore.New(1<<30, nil))
	reg := task.NewRegistry()
	registerTestFns(reg)
	rl, err := New(Config{
		Node: devices[0].ID, Backend: "gpu", Slots: 1,
		Head: headNode.ID, Transport: c.Transport, Fabric: c.Fabric,
		Layer: layer, Registry: reg, Resolution: Pull,
		DPUProxy:  dpu.ID,
		Directory: head.Table, OwnerRouter: routeTo(headNode.ID),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rl.Start(); err != nil {
		t.Fatal(err)
	}

	spec := task.NewSpec(idgen.Next(), "produce", []task.Arg{task.ValueArg([]byte("gpu-data"))}, 1)
	spec.Backend = "gpu"
	create := transport.MustEncode(OwnCreateRequest{IDs: spec.Returns, Owner: headNode.ID, Task: spec.ID})
	if _, err := c.Transport.Call(context.Background(), headNode.ID, headNode.ID, KindOwnCreate, create); err != nil {
		t.Fatal(err)
	}
	payload := transport.MustEncode(ExecRequest{Spec: *spec})
	if _, err := c.Transport.Call(context.Background(), headNode.ID, devices[0].ID, KindExec, payload); err != nil {
		t.Fatal(err)
	}
	st := rl.Stats()
	if st.DPUHops == 0 {
		t.Error("Gen-1 raylet should charge DPU hops")
	}
	// The ownership record carries the device placement.
	rec, err := head.Table.Get(spec.Returns[0])
	if err != nil {
		t.Fatal(err)
	}
	if rec.DeviceID != devices[0].ID || rec.DeviceHandle == "" {
		t.Errorf("device placement not recorded: %+v", rec)
	}
}

func TestActorStatePersistsAcrossTasks(t *testing.T) {
	r := newRig(t, 1, Pull)
	actor := idgen.Next()
	var last []byte
	for i := 1; i <= 3; i++ {
		spec := task.NewSpec(idgen.Next(), "counter", nil, 1)
		spec.Actor = actor
		if _, err := r.submit(0, spec); err != nil {
			t.Fatal(err)
		}
		data, err := r.fetch(0, spec.Returns[0])
		if err != nil {
			t.Fatal(err)
		}
		last = data
	}
	if n := binary.BigEndian.Uint64(last); n != 3 {
		t.Errorf("counter = %d, want 3", n)
	}
}

func TestActorsIsolated(t *testing.T) {
	r := newRig(t, 1, Pull)
	a, b := idgen.Next(), idgen.Next()
	for _, actor := range []idgen.ActorID{a, a, b} {
		spec := task.NewSpec(idgen.Next(), "counter", nil, 1)
		spec.Actor = actor
		if _, err := r.submit(0, spec); err != nil {
			t.Fatal(err)
		}
		if actor == b {
			data, err := r.fetch(0, spec.Returns[0])
			if err != nil {
				t.Fatal(err)
			}
			if n := binary.BigEndian.Uint64(data); n != 1 {
				t.Errorf("actor b counter = %d, want 1 (isolated from a)", n)
			}
		}
	}
}

func TestActorCheckpointRPCs(t *testing.T) {
	r := newRig(t, 1, Pull)
	actor := idgen.Next()

	// No checkpoint yet.
	restore := transport.MustEncode(ActorRestoreRequest{Actor: actor})
	respB, err := r.cluster.Transport.Call(context.Background(), r.driver, r.head.Node, KindActorRestore, restore)
	if err != nil {
		t.Fatal(err)
	}
	var resp ActorRestoreResponse
	if err := transport.Decode(respB, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.State != nil {
		t.Errorf("restore before checkpoint = %v", resp.State)
	}

	// Store, then a stale write, then read back.
	ckpt := transport.MustEncode(ActorCkptRequest{Actor: actor, Seq: 5, State: map[string][]byte{"k": []byte("v5")}})
	if _, err := r.cluster.Transport.Call(context.Background(), r.driver, r.head.Node, KindActorCkpt, ckpt); err != nil {
		t.Fatal(err)
	}
	stale := transport.MustEncode(ActorCkptRequest{Actor: actor, Seq: 3, State: map[string][]byte{"k": []byte("v3")}})
	if _, err := r.cluster.Transport.Call(context.Background(), r.driver, r.head.Node, KindActorCkpt, stale); err != nil {
		t.Fatal(err)
	}
	respB, err = r.cluster.Transport.Call(context.Background(), r.driver, r.head.Node, KindActorRestore, restore)
	if err != nil {
		t.Fatal(err)
	}
	if err := transport.Decode(respB, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 5 || string(resp.State["k"]) != "v5" {
		t.Errorf("restore = seq %d state %q (stale write must be ignored)", resp.Seq, resp.State["k"])
	}
}

func TestActorTasksCheckpointAutomatically(t *testing.T) {
	r := newRig(t, 1, Pull)
	actor := idgen.Next()
	spec := task.NewSpec(idgen.Next(), "counter", nil, 1)
	spec.Actor = actor
	if _, err := r.submit(0, spec); err != nil {
		t.Fatal(err)
	}
	seq, state := r.head.Restore(actor)
	if seq != 1 || len(state) == 0 {
		t.Errorf("checkpoint after task = seq %d, state %v", seq, state)
	}
}

func TestTaskFailurePropagates(t *testing.T) {
	r := newRig(t, 1, Pull)
	spec := task.NewSpec(idgen.Next(), "fail", nil, 1)
	_, err := r.submit(0, spec)
	if err == nil || !transport.IsRemote(err) {
		t.Errorf("err = %v, want remote error", err)
	}
}

func TestUnknownFunction(t *testing.T) {
	r := newRig(t, 1, Pull)
	spec := task.NewSpec(idgen.Next(), "no-such-fn", nil, 1)
	if _, err := r.submit(0, spec); err == nil {
		t.Error("unknown function should fail")
	}
}

func TestReturnArityMismatch(t *testing.T) {
	r := newRig(t, 1, Pull)
	spec := task.NewSpec(idgen.Next(), "badreturns", nil, 1) // fn returns 2
	if _, err := r.submit(0, spec); err == nil {
		t.Error("return arity mismatch should fail")
	}
}

func TestPing(t *testing.T) {
	r := newRig(t, 1, Pull)
	resp, err := r.cluster.Transport.Call(context.Background(), r.driver, r.raylets[0].Node(), KindPing, nil)
	if err != nil || string(resp) != "pong" {
		t.Errorf("ping = %q, %v", resp, err)
	}
}

func TestFetchFallsBackWhenLocationDies(t *testing.T) {
	r := newRig(t, 3, Pull)
	prod := task.NewSpec(idgen.Next(), "produce", []task.Arg{task.ValueArg([]byte("fragile"))}, 1)
	if _, err := r.submit(0, prod); err != nil {
		t.Fatal(err)
	}
	// Replicate manually to node 2's store so the layer has a fallback.
	store2 := r.layer.Store(r.raylets[1].Node())
	if err := store2.Put(prod.Returns[0], []byte("fragile"), "raw"); err != nil {
		t.Fatal(err)
	}
	// Kill the producer node; the ownership record still points at it.
	r.cluster.Kill(r.raylets[0].Node())

	cons := task.NewSpec(idgen.Next(), "produce", []task.Arg{task.RefArg(prod.Returns[0])}, 1)
	if _, err := r.submit(2, cons); err != nil {
		t.Fatalf("consumer should fall back to the caching layer: %v", err)
	}
	data, err := r.fetch(2, cons.Returns[0])
	if err != nil || string(data) != "fragile" {
		t.Errorf("result = %q, %v", data, err)
	}
}

func TestStallRecorded(t *testing.T) {
	r := newRig(t, 2, Pull)
	prod := task.NewSpec(idgen.Next(), "produce", []task.Arg{task.ValueArg([]byte("x"))}, 1)
	if _, err := r.submit(0, prod); err != nil {
		t.Fatal(err)
	}
	cons := task.NewSpec(idgen.Next(), "produce", []task.Arg{task.RefArg(prod.Returns[0])}, 1)
	resp, err := r.submit(1, cons)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StallMicros < 0 {
		t.Errorf("StallMicros = %d", resp.StallMicros)
	}
	if r.raylets[1].StallHist.Count() != 1 {
		t.Error("stall histogram not recorded")
	}
}

func TestDeleteRPC(t *testing.T) {
	r := newRig(t, 1, Pull)
	prod := task.NewSpec(idgen.Next(), "produce", []task.Arg{task.ValueArg([]byte("x"))}, 1)
	if _, err := r.submit(0, prod); err != nil {
		t.Fatal(err)
	}
	del := transport.MustEncode(DeleteRequest{ID: prod.Returns[0]})
	if _, err := r.cluster.Transport.Call(context.Background(), r.driver, r.raylets[0].Node(), KindDelete, del); err != nil {
		t.Fatal(err)
	}
	if _, err := r.fetch(0, prod.Returns[0]); err == nil {
		t.Error("object should be gone after delete")
	}
	// Deleting again is idempotent.
	if _, err := r.cluster.Transport.Call(context.Background(), r.driver, r.raylets[0].Node(), KindDelete, del); err != nil {
		t.Errorf("double delete: %v", err)
	}
}
