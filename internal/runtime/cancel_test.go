package runtime

import (
	"context"
	"errors"
	goruntime "runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skadi/internal/idgen"
	"skadi/internal/skaderr"
	"skadi/internal/task"
)

// registerBlocker installs a function under name that parks until release is
// closed or the task is cancelled, signalling started (once) when it first
// runs. Tests use it to hold tasks in flight deterministically.
func registerBlocker(rt *Runtime, name string, started chan struct{}, release <-chan struct{}) {
	var once sync.Once
	rt.Registry.Register(name, func(tctx *task.Context, _ [][]byte) ([][]byte, error) {
		once.Do(func() { close(started) })
		select {
		case <-release:
			return [][]byte{[]byte("done")}, nil
		case <-tctx.Ctx.Done():
			return nil, tctx.Ctx.Err()
		}
	})
}

// registerBlockerCount is like registerBlocker but closes started only once n
// invocations are running, so tests can saturate every worker slot before
// probing scheduler behaviour.
func registerBlockerCount(rt *Runtime, name string, n int, started chan struct{}, release <-chan struct{}) {
	var running atomic.Int64
	rt.Registry.Register(name, func(tctx *task.Context, _ [][]byte) ([][]byte, error) {
		if running.Add(1) == int64(n) {
			close(started)
		}
		select {
		case <-release:
			return [][]byte{[]byte("done")}, nil
		case <-tctx.Ctx.Done():
			return nil, tctx.Ctx.Err()
		}
	})
}

func TestCancelCascadesOverLineage(t *testing.T) {
	rt := newRuntime(t, Options{})
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	registerBlocker(rt, "block", started, release)

	// Depth-3 chain through futures: block -> echo -> echo.
	root := task.NewSpec(rt.Job(), "block", nil, 1)
	rootRefs := rt.Submit(root)
	mid := task.NewSpec(rt.Job(), "echo", []task.Arg{task.RefArg(rootRefs[0])}, 1)
	midRefs := rt.Submit(mid)
	leaf := task.NewSpec(rt.Job(), "echo", []task.Arg{task.RefArg(midRefs[0])}, 1)
	leafRefs := rt.Submit(leaf)

	<-started // the root occupies a worker before we cancel

	rep := rt.Cancel(rootRefs[0])
	if rep.TasksCancelled != 3 {
		t.Errorf("TasksCancelled = %d, want 3 (root + 2 descendants)", rep.TasksCancelled)
	}
	if rep.WorkersReclaimed < 1 {
		t.Errorf("WorkersReclaimed = %d, want >= 1 (root was executing)", rep.WorkersReclaimed)
	}
	for i, ref := range []idgen.ObjectID{rootRefs[0], midRefs[0], leafRefs[0]} {
		_, err := rt.Get(context.Background(), ref)
		if !errors.Is(err, skaderr.Cancelled) {
			t.Errorf("Get(chain[%d]) = %v, want skaderr.Cancelled", i, err)
		}
	}
	if got := rt.Metrics.Counter(MetricTasksCancelled).Value(); got != 3 {
		t.Errorf("%s = %d, want 3", MetricTasksCancelled, got)
	}
	if got := rt.Metrics.Counter(MetricWorkersReclaimed).Value(); got < 1 {
		t.Errorf("%s = %d, want >= 1", MetricWorkersReclaimed, got)
	}
}

func TestCancelInterruptsExecutingTask(t *testing.T) {
	rt := newRuntime(t, Options{})
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	registerBlocker(rt, "block", started, release)

	spec := task.NewSpec(rt.Job(), "block", nil, 1)
	refs := rt.Submit(spec)
	<-started

	begin := time.Now()
	rep := rt.Cancel(refs[0])
	if rep.TasksCancelled != 1 || rep.WorkersReclaimed != 1 {
		t.Errorf("report = %+v, want 1 task cancelled, 1 worker reclaimed", rep)
	}
	if _, err := rt.Get(context.Background(), refs[0]); !errors.Is(err, skaderr.Cancelled) {
		t.Errorf("Get = %v, want skaderr.Cancelled", err)
	}
	// The interrupt rides the context to the blocked function body: the
	// future must fail long before the blocker would have been released.
	if since := time.Since(begin); since > 5*time.Second {
		t.Errorf("cancel-to-failure took %v, in-flight task was not interrupted", since)
	}
	rt.Drain() // the revoked dispatch goroutine exits promptly
}

func TestSubmitDeadlineFailsFuture(t *testing.T) {
	rt := newRuntime(t, Options{})
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	registerBlocker(rt, "block", started, release)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	spec := task.NewSpec(rt.Job(), "block", nil, 1)
	refs := rt.SubmitCtx(ctx, spec)

	_, err := rt.Get(context.Background(), refs[0])
	if !errors.Is(err, skaderr.DeadlineExceeded) {
		t.Errorf("Get = %v, want skaderr.DeadlineExceeded", err)
	}
	if got := rt.Metrics.Counter(MetricTasksDeadlineExceeded).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricTasksDeadlineExceeded, got)
	}
}

func TestSubmitWithCancelledContext(t *testing.T) {
	rt := newRuntime(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := task.NewSpec(rt.Job(), "echo", []task.Arg{task.ValueArg([]byte("x"))}, 1)
	refs := rt.SubmitCtx(ctx, spec)
	if _, err := rt.Get(context.Background(), refs[0]); !errors.Is(err, skaderr.Cancelled) {
		t.Errorf("Get = %v, want skaderr.Cancelled", err)
	}
}

func TestCancelFreesCommittedOutputs(t *testing.T) {
	rt := newRuntime(t, Options{})
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	rt.Registry.Register("blockArg", func(tctx *task.Context, args [][]byte) ([][]byte, error) {
		close(started)
		select {
		case <-release:
			return [][]byte{args[0]}, nil
		case <-tctx.Ctx.Done():
			return nil, tctx.Ctx.Err()
		}
	})

	payload := make([]byte, 4096)
	root := task.NewSpec(rt.Job(), "echo", []task.Arg{task.ValueArg(payload)}, 1)
	rootRefs := rt.Submit(root)
	if _, err := rt.Get(context.Background(), rootRefs[0]); err != nil {
		t.Fatal(err)
	}
	leaf := task.NewSpec(rt.Job(), "blockArg", []task.Arg{task.RefArg(rootRefs[0])}, 1)
	rt.Submit(leaf)
	<-started

	rep := rt.Cancel(rootRefs[0])
	if rep.TasksCancelled != 2 {
		t.Errorf("TasksCancelled = %d, want 2", rep.TasksCancelled)
	}
	if rep.BytesReclaimed < int64(len(payload)) {
		t.Errorf("BytesReclaimed = %d, want >= %d (root's committed output)", rep.BytesReclaimed, len(payload))
	}
	if rt.Layer.Contains(rootRefs[0]) {
		t.Error("cancelled graph's committed output still resident in the caching layer")
	}
	if got := rt.Metrics.Counter(MetricBytesReclaimed).Value(); got < int64(len(payload)) {
		t.Errorf("%s = %d, want >= %d", MetricBytesReclaimed, got, len(payload))
	}
}

// TestCancelledTaskNotResurrected verifies lineage recovery never re-runs
// revoked work: after Cancel, Get must keep failing with Cancelled rather
// than replaying the producing task.
func TestCancelledTaskNotResurrected(t *testing.T) {
	rt := newRuntime(t, Options{Recovery: Recover})
	var runs atomic.Int64
	rt.Registry.Register("countedEcho", func(_ *task.Context, args [][]byte) ([][]byte, error) {
		runs.Add(1)
		return [][]byte{args[0]}, nil
	})

	spec := task.NewSpec(rt.Job(), "countedEcho", []task.Arg{task.ValueArg([]byte("v"))}, 1)
	refs := rt.Submit(spec)
	if _, err := rt.Get(context.Background(), refs[0]); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("task ran %d times before cancel, want 1", got)
	}

	rt.Cancel(refs[0])
	if _, err := rt.Get(context.Background(), refs[0]); !errors.Is(err, skaderr.Cancelled) {
		t.Errorf("Get after cancel = %v, want skaderr.Cancelled", err)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("task ran %d times, recovery resurrected cancelled work", got)
	}
}

func TestGetWaitersReleasedOnCancel(t *testing.T) {
	rt := newRuntime(t, Options{})
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	registerBlocker(rt, "block", started, release)

	spec := task.NewSpec(rt.Job(), "block", nil, 1)
	refs := rt.Submit(spec)
	<-started

	base := goruntime.NumGoroutine()
	const waiters = 20
	errCh := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := rt.Get(context.Background(), refs[0])
			errCh <- err
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the waiters park

	rt.Cancel(refs[0])
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errCh:
			if !errors.Is(err, skaderr.Cancelled) {
				t.Errorf("waiter %d: Get = %v, want skaderr.Cancelled", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter %d still blocked after cancel", i)
		}
	}
	waitGoroutinesAtMost(t, base+2)
}

func TestGetWaiterReleasedOnDeadline(t *testing.T) {
	rt := newRuntime(t, Options{})
	started := make(chan struct{})
	release := make(chan struct{})
	registerBlocker(rt, "block", started, release)
	spec := task.NewSpec(rt.Job(), "block", nil, 1)
	refs := rt.Submit(spec)
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := rt.Get(ctx, refs[0])
	if !errors.Is(err, skaderr.DeadlineExceeded) {
		t.Errorf("Get = %v, want skaderr.DeadlineExceeded", err)
	}
	close(release)
	rt.Drain()
}

func TestGetWaiterReleasedOnNodeKill(t *testing.T) {
	rt := newRuntime(t, Options{})
	node := rt.workerServers()[0]
	rt.KillNode(node)

	// Pinned to a dead node, the dispatch cannot fail over: the future must
	// fail with Unavailable rather than leave the waiter parked.
	spec := task.NewSpec(rt.Job(), "echo", []task.Arg{task.ValueArg([]byte("x"))}, 1)
	refs := rt.SubmitTo(node, spec)
	_, err := rt.Get(context.Background(), refs[0])
	if !errors.Is(err, skaderr.Unavailable) {
		t.Errorf("Get = %v, want skaderr.Unavailable", err)
	}
}

func TestShutdownReleasesWaiters(t *testing.T) {
	rt := newRuntime(t, Options{})
	// A pending object with no in-flight producer: the shape left behind by
	// an aborted recovery or a crashed submitter.
	id := idgen.Next()
	if err := rt.Head.Table.CreatePending(id, rt.Driver(), idgen.Next()); err != nil {
		t.Fatal(err)
	}
	const waiters = 8
	errCh := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := rt.Get(context.Background(), id)
			errCh <- err
		}()
	}
	time.Sleep(20 * time.Millisecond)

	rt.Shutdown()
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errCh:
			if !errors.Is(err, skaderr.Unavailable) {
				t.Errorf("waiter %d: Get = %v, want skaderr.Unavailable", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter %d outlived Shutdown", i)
		}
	}
}

// TestCancelDoesNotLoseFrozenActorCalls runs a cancellation of an unrelated
// chain concurrently with an actor migration: calls queued behind the
// migration gate must all land exactly once on the resumed actor.
func TestCancelDoesNotLoseFrozenActorCalls(t *testing.T) {
	rt := newRuntime(t, Options{})
	registerCounter(rt)
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	registerBlocker(rt, "block", started, release)

	workers := rt.workerServers()
	actor, err := rt.CreateActorOn(workers[0], "cpu")
	if err != nil {
		t.Fatal(err)
	}
	if got := count(t, rt, actor); got != 1 {
		t.Fatalf("warm-up count = %d, want 1", got)
	}

	// The doomed chain holds a worker so the cancel has something in flight.
	doomed := task.NewSpec(rt.Job(), "block", nil, 1)
	doomedRefs := rt.Submit(doomed)
	<-started

	// Freeze the actor and, while frozen, queue calls and fire the cancel.
	const calls = 5
	var refs []idgen.ObjectID
	migDone := make(chan error, 1)
	go func() {
		_, merr := rt.MigrateActor(context.Background(), actor, workers[1])
		migDone <- merr
	}()
	for i := 0; i < calls; i++ {
		spec := task.NewSpec(rt.Job(), "counter", nil, 1)
		spec.Actor = actor
		refs = append(refs, rt.Submit(spec)...)
	}
	rt.Cancel(doomedRefs[0])
	if merr := <-migDone; merr != nil {
		t.Fatalf("MigrateActor: %v", merr)
	}

	// Every queued call survives the freeze + concurrent cancel: the
	// counter reaches 1 (warm-up) + calls, each value observed exactly once.
	seen := make(map[int]bool)
	for i, ref := range refs {
		data, err := rt.Get(context.Background(), ref)
		if err != nil {
			t.Fatalf("actor call %d lost: %v", i, err)
		}
		n, _ := strconv.Atoi(string(data))
		if seen[n] {
			t.Errorf("actor call %d: duplicate counter value %d", i, n)
		}
		seen[n] = true
	}
	if got := count(t, rt, actor); got != calls+2 {
		t.Errorf("final count = %d, want %d", got, calls+2)
	}
	if _, err := rt.Get(context.Background(), doomedRefs[0]); !errors.Is(err, skaderr.Cancelled) {
		t.Errorf("doomed chain Get = %v, want skaderr.Cancelled", err)
	}
}

// waitGoroutinesAtMost polls until the goroutine count settles at or below
// limit, failing the test if it does not within the deadline.
func waitGoroutinesAtMost(t *testing.T, limit int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := goruntime.NumGoroutine()
		if n <= limit {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutine count settled at %d, want <= %d (leaked waiters)", n, limit)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSubmitGangWaitsEventDriven saturates every CPU slot, parks a gang
// submission behind the capacity watch, and verifies it proceeds once slots
// free — the event-driven replacement for the old 1 ms poll loop.
func TestSubmitGangWaitsEventDriven(t *testing.T) {
	rt := newRuntime(t, Options{})
	started := make(chan struct{})
	release := make(chan struct{})
	// 3 servers x 4 slots: wait until all 12 blockers are running so the
	// cluster is provably saturated before the gang is submitted.
	const blockers = 12
	registerBlockerCount(rt, "block", blockers, started, release)
	for i := 0; i < blockers; i++ {
		rt.Submit(task.NewSpec(rt.Job(), "block", nil, 1))
	}
	<-started

	specs := make([]*task.Spec, 4)
	for i := range specs {
		specs[i] = task.NewSpec(rt.Job(), "echo", []task.Arg{task.ValueArg([]byte("g"))}, 1)
		specs[i].Gang = "wakeup"
	}
	type gangResult struct {
		refs [][]idgen.ObjectID
		err  error
	}
	done := make(chan gangResult, 1)
	go func() {
		refs, err := rt.SubmitGang(context.Background(), specs)
		done <- gangResult{refs, err}
	}()

	// The gang must still be parked: no capacity has freed.
	select {
	case res := <-done:
		t.Fatalf("gang placed on a saturated cluster: %v, %v", res.refs, res.err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release) // blockers drain; each Finished fires the capacity watch
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatalf("SubmitGang after capacity freed: %v", res.err)
		}
		for i, r := range res.refs {
			if _, err := rt.Get(context.Background(), r[0]); err != nil {
				t.Errorf("gang[%d]: %v", i, err)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("gang never woke after capacity freed (lost wakeup)")
	}
}

// TestSubmitGangHonorsContext cancels the submitting context while the gang
// is parked waiting for capacity.
func TestSubmitGangHonorsContext(t *testing.T) {
	rt := newRuntime(t, Options{})
	started := make(chan struct{})
	release := make(chan struct{})
	const blockers = 12
	registerBlockerCount(rt, "block", blockers, started, release)
	defer func() {
		close(release)
		rt.Drain()
	}()

	for i := 0; i < blockers; i++ {
		rt.Submit(task.NewSpec(rt.Job(), "block", nil, 1))
	}
	<-started // every slot is occupied; the gang below must park

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	specs := []*task.Spec{task.NewSpec(rt.Job(), "echo", []task.Arg{task.ValueArg([]byte("g"))}, 1)}
	specs[0].Gang = "doomed"
	go func() {
		_, err := rt.SubmitGang(ctx, specs)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, skaderr.Cancelled) {
			t.Errorf("SubmitGang = %v, want skaderr.Cancelled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SubmitGang ignored context cancellation while parked")
	}
}
