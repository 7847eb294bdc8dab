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
	"skadi/internal/skaderr"
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

// newActor writes the record of a new actor living on the raylet at index
// idx.
func (r *rig) newActor(idx int) idgen.ActorID {
	actor := idgen.Next()
	r.head.CreateActor(actor, r.raylets[idx].Node(), "cpu")
	return actor
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
	actor := r.newActor(0)
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
	a, b := r.newActor(0), r.newActor(0)
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
	actor := r.newActor(0)

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
	actor := r.newActor(0)
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

// TestActorRunsOnlyWhereRecordNamesIt: a raylet runs an actor's kernel
// only once the actor's record names it. Elsewhere the task fails with a
// typed NotFound before the kernel runs and leaves no entry behind; state
// shipped in by a transfer whose retarget has not happened stays staged,
// and runs as soon as the record names this raylet.
func TestActorRunsOnlyWhereRecordNamesIt(t *testing.T) {
	r := newRig(t, 2, Pull)
	actor := r.newActor(0)
	call := func(idx int) (uint64, error) {
		spec := task.NewSpec(idgen.Next(), "counter", nil, 1)
		spec.Actor = actor
		if _, err := r.submit(idx, spec); err != nil {
			return 0, err
		}
		data, err := r.fetch(idx, spec.Returns[0])
		if err != nil {
			return 0, err
		}
		return binary.BigEndian.Uint64(data), nil
	}
	if _, err := call(1); !errors.Is(err, skaderr.NotFound) {
		t.Fatalf("call on a raylet the record does not name = %v, want NotFound", err)
	}
	if h := r.raylets[1].MigrationHygiene(); h.Actors != 0 || r.raylets[1].Stats().TasksExecuted != 0 {
		t.Fatalf("refused call left %d entries and ran %d tasks", h.Actors, r.raylets[1].Stats().TasksExecuted)
	}

	// Stage state newer than the checkpoint at raylet 1; the record still
	// names raylet 0.
	install := transport.MustEncode(MigrateInstallRequest{Actor: actor, Seq: 41, State: map[string][]byte{"n": {0, 0, 0, 0, 0, 0, 0, 41}}})
	if _, err := r.cluster.Transport.Call(context.Background(), r.driver, r.raylets[1].Node(), KindMigrateInstall, install); err != nil {
		t.Fatal(err)
	}
	if _, err := call(1); !errors.Is(err, skaderr.NotFound) {
		t.Fatalf("call on staged state before the retarget = %v, want NotFound", err)
	}
	if err := r.head.MoveActor(actor, r.raylets[0].Node(), r.raylets[1].Node()); err != nil {
		t.Fatal(err)
	}
	if n, err := call(1); err != nil || n != 42 {
		t.Fatalf("call after the retarget = %d, %v; want 42 from the staged state", n, err)
	}
	// A repeated move (a duplicate delivery, or a retry after a lost
	// reply) succeeds and changes nothing; a move from the old home to
	// anywhere else fails.
	if err := r.head.MoveActor(actor, r.raylets[0].Node(), r.raylets[1].Node()); err != nil {
		t.Errorf("a repeated move = %v, want nil", err)
	}
	if err := r.head.MoveActor(actor, r.raylets[1].Node(), r.raylets[0].Node()); err != nil {
		t.Fatal(err)
	}
	if err := r.head.MoveActor(actor, r.raylets[1].Node(), r.head.Node); err == nil {
		t.Error("a second move from the old home committed")
	}
	if rec, _ := r.head.Actor(actor); rec.Home != r.raylets[0].Node() {
		t.Errorf("record names %s after a refused move, want %s", rec.Home.Short(), r.raylets[0].Node().Short())
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

// TestFetchRereadsRecordAfterMigration: a reader holding a location the
// object migrated away from finds the new holder by reading the record
// again, whether the old holder answers "not here" or is gone. The caching
// layer's fallback would also find the new copy in its store, but it does
// not count as a remote fetch, so RemoteFetches pins that the record led
// the reader there.
func TestFetchRereadsRecordAfterMigration(t *testing.T) {
	for _, stopped := range []bool{false, true} {
		name := "source running"
		if stopped {
			name = "source stopped"
		}
		t.Run(name, func(t *testing.T) {
			r := newRig(t, 3, Pull)
			s0, s1, reader := r.raylets[0], r.raylets[1], r.raylets[2]
			id := idgen.Next()
			want := bytes.Repeat([]byte("m"), 4096)
			tbl := r.head.Table
			if err := tbl.CreatePending(id, r.driver, idgen.Next()); err != nil {
				t.Fatal(err)
			}
			if err := s0.store.Put(id, want, "raw"); err != nil {
				t.Fatal(err)
			}
			if _, err := tbl.MarkReady(id, int64(len(want)), s0.Node(), idgen.Nil, ""); err != nil {
				t.Fatal(err)
			}
			// Copy → retarget → drop, as migrate.transfer runs it.
			if err := s1.store.Put(id, want, "raw"); err != nil {
				t.Fatal(err)
			}
			if err := tbl.MoveLocation(id, s0.Node(), s1.Node()); err != nil {
				t.Fatal(err)
			}
			if err := s0.store.Delete(id); err != nil {
				t.Fatal(err)
			}
			if stopped {
				s0.Stop()
			}
			got, err := reader.fetch(context.Background(), id, []idgen.NodeID{s0.Node()})
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("fetch through a stale location = %d bytes, %v; want %d bytes", len(got), err, len(want))
			}
			if n := reader.Stats().RemoteFetches; n != 1 {
				t.Errorf("RemoteFetches = %d, want 1 (served by the new holder)", n)
			}
		})
	}
}
