package runtime

import (
	"context"
	goruntime "runtime"
	"testing"
	"time"

	"skadi/internal/idgen"
	"skadi/internal/skaderr"
	"skadi/internal/task"
)

// TestActorTaskRetriesWhenNodeUnreachable drops an actor's node off the
// transport without running the KillNode recovery path, so the placement
// table still points at the dead node. Dispatch must treat the resulting
// ErrUnreachable like any other node death: re-pin the actor and retry,
// instead of failing the task on the stale location.
func TestActorTaskRetriesWhenNodeUnreachable(t *testing.T) {
	rt, err := New(ClusterSpec{
		Servers: 3, ServerSlots: 2, ServerMemBytes: 64 << 20,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	registerCounter(rt)

	actor, err := rt.CreateActor("cpu")
	if err != nil {
		t.Fatal(err)
	}
	if got := count(t, rt, actor); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
	home, ok := rt.ActorNode(actor)
	if !ok {
		t.Fatal("actor has no node")
	}

	rt.Cluster.Kill(home)

	// count fails the test if Get returns an error, which is exactly what
	// the pre-fix dispatch produced (task failed with ErrUnreachable).
	if got := count(t, rt, actor); got != 2 {
		t.Errorf("count after node loss = %d, want 2 (checkpoint restored)", got)
	}
	newHome, ok := rt.ActorNode(actor)
	if !ok || newHome == home {
		t.Errorf("actor not re-pinned: ok=%v node=%s (dead node %s)", ok, newHome.Short(), home.Short())
	}
}

// TestSubmitGangCountsPending submits a gang of blocking tasks and checks
// the autoscaler's pending-task counter sees every member — SubmitGang
// previously never incremented it, so SPMD bursts could not trigger
// scale-up.
func TestSubmitGangCountsPending(t *testing.T) {
	rt, err := New(ClusterSpec{
		Servers: 3, ServerSlots: 2, ServerMemBytes: 64 << 20,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	const n = 3
	release := make(chan struct{})
	started := make(chan struct{}, n)
	rt.Registry.Register("gate", func(_ *task.Context, _ [][]byte) ([][]byte, error) {
		started <- struct{}{}
		<-release
		return [][]byte{[]byte("done")}, nil
	})

	specs := make([]*task.Spec, n)
	for i := range specs {
		specs[i] = task.NewSpec(rt.Job(), "gate", nil, 1)
		specs[i].Gang = "g"
	}
	if _, err := rt.SubmitGang(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		<-started
	}
	if got := rt.Pending(); got != n {
		t.Errorf("Pending() = %d while gang runs, want %d", got, n)
	}
	close(release)
	rt.Drain()
	if got := rt.Pending(); got != 0 {
		t.Errorf("Pending() = %d after drain, want 0", got)
	}
}

// TestWaitReleasesWaiterGoroutines calls Wait(n=1) over many futures that
// never resolve and checks the per-object waiter goroutines exit once
// Wait returns. Before deriving a cancelable context, each waiter blocked
// until its object became ready — a goroutine leak per unresolved future.
func TestWaitReleasesWaiterGoroutines(t *testing.T) {
	rt, err := New(ClusterSpec{
		Servers: 2, ServerSlots: 2, ServerMemBytes: 64 << 20,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	release := make(chan struct{})
	rt.Registry.Register("gate", func(_ *task.Context, _ [][]byte) ([][]byte, error) {
		<-release
		return [][]byte{[]byte("done")}, nil
	})
	defer func() {
		close(release)
		rt.Drain()
	}()

	ready, err := rt.Put([]byte("x"), "raw")
	if err != nil {
		t.Fatal(err)
	}
	ids := []idgen.ObjectID{ready}
	const waiters = 50
	for i := 0; i < waiters; i++ {
		spec := task.NewSpec(rt.Job(), "gate", nil, 1)
		ids = append(ids, rt.Submit(spec)...)
	}
	// Let the submitted tasks park (on a slot or in the gate) so the
	// goroutine count is stable across the Wait call.
	time.Sleep(50 * time.Millisecond)
	base := goruntime.NumGoroutine()

	done, err := rt.Wait(context.Background(), ids, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 || done[0] != ready {
		t.Fatalf("Wait returned %v, want just the ready object", done)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := goruntime.NumGoroutine(); n <= base+5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d before Wait (%d waiters)",
				goruntime.NumGoroutine(), base, len(ids))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAddLocationNeedsBytesAtTheNode: a claimed extra copy must be in the
// named node's store. A copy elsewhere vouching for it (the guard's
// redundancy clause, which commits keep) let a raylet that cached a read
// into a store already replaced by a restart register its node; when the
// real holder then crashed the record named a byte-less node and nothing
// marked the object lost (chaos seed 62's I2, ~1 in 400 runs).
func TestAddLocationNeedsBytesAtTheNode(t *testing.T) {
	rt := newRuntime(t, Options{})
	workers := rt.workerServers()
	id, err := rt.PutAt(workers[0], []byte("payload"), "raw")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Head.Table.AddLocation(id, workers[1]); skaderr.CodeOf(err) != skaderr.Unavailable {
		t.Fatalf("AddLocation at a node without the bytes = %v, want a stale-commit Unavailable", err)
	}
	if err := rt.Layer.Store(workers[1]).Put(id, []byte("payload"), "raw"); err != nil {
		t.Fatal(err)
	}
	if err := rt.Head.Table.AddLocation(id, workers[1]); err != nil {
		t.Fatalf("AddLocation at a node with the bytes: %v", err)
	}
}
