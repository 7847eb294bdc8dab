package runtime

import (
	"context"
	"encoding/binary"
	"errors"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skadi/internal/idgen"
	"skadi/internal/skaderr"
	"skadi/internal/task"
)

// pinOneProc runs the test on one P, so a goroutine that submits and then
// calls Get or Wait reaches the claim before the task's own goroutine is
// scheduled: the helped path is taken deterministically.
func pinOneProc(t *testing.T) {
	t.Helper()
	prev := goruntime.GOMAXPROCS(1)
	t.Cleanup(func() { goruntime.GOMAXPROCS(prev) })
}

// helped returns the runtime's count of tasks run by a Get or Wait caller.
func helped(rt *Runtime) int64 { return rt.Metrics.Counter(MetricTasksHelped).Value() }

// assertQuiesced checks the bookkeeping a finished task leaves behind:
// nothing pending for the autoscaler, nothing registered, nothing helpable.
func assertQuiesced(t *testing.T, rt *Runtime) {
	t.Helper()
	rt.Drain()
	if n := rt.Pending(); n != 0 {
		t.Errorf("Pending() = %d after Drain, want 0", n)
	}
	rt.mu.Lock()
	tasks, producers := len(rt.tasks), len(rt.producers)
	rt.mu.Unlock()
	if tasks != 0 || producers != 0 {
		t.Errorf("after Drain: %d tasks and %d producers registered, want 0 and 0", tasks, producers)
	}
}

// TestHelpRunsOnce races every task's own goroutine against a Get and a
// Wait that both try to run it: each kernel must run exactly once.
func TestHelpRunsOnce(t *testing.T) {
	rt := newRuntime(t, Options{})
	const n = 200
	var runs [n]atomic.Int32
	rt.Registry.Register("count", func(_ *task.Context, args [][]byte) ([][]byte, error) {
		runs[binary.LittleEndian.Uint64(args[0])].Add(1)
		return [][]byte{args[0]}, nil
	})
	refs := make([]idgen.ObjectID, n)
	var wg sync.WaitGroup
	for i := range refs {
		arg := binary.LittleEndian.AppendUint64(nil, uint64(i))
		refs[i] = rt.Submit(task.NewSpec(rt.Job(), "count", []task.Arg{task.ValueArg(arg)}, 1))[0]
		wg.Add(1)
		go func(ref idgen.ObjectID) {
			defer wg.Done()
			if _, err := rt.Wait(context.Background(), []idgen.ObjectID{ref}, 1); err != nil {
				t.Errorf("Wait: %v", err)
			}
		}(refs[i])
		out, err := rt.Get(context.Background(), refs[i])
		if err != nil || binary.LittleEndian.Uint64(out) != uint64(i) {
			t.Fatalf("Get %d = %x, %v", i, out, err)
		}
	}
	wg.Wait()
	assertQuiesced(t, rt)
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Errorf("task %d ran %d times, want 1", i, got)
		}
	}
}

// TestHelpSkipsCallerWithDeadline: a Get that can expire never runs the
// producer itself, so it returns on time even when the task is unstarted.
func TestHelpSkipsCallerWithDeadline(t *testing.T) {
	pinOneProc(t)
	rt := newRuntime(t, Options{})
	rt.Registry.Register("sleep1s", func(tctx *task.Context, _ [][]byte) ([][]byte, error) {
		select {
		case <-time.After(time.Second):
			return [][]byte{nil}, nil
		case <-tctx.Ctx.Done():
			return nil, tctx.Ctx.Err()
		}
	})
	for i := 0; i < 3; i++ {
		refs := rt.Submit(task.NewSpec(rt.Job(), "sleep1s", nil, 1))
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		start := time.Now()
		_, err := rt.Get(ctx, refs[0])
		took := time.Since(start)
		cancel()
		if !errors.Is(err, skaderr.DeadlineExceeded) {
			t.Errorf("Get = %v, want skaderr.DeadlineExceeded", err)
		}
		if took > 100*time.Millisecond {
			t.Errorf("Get with a 20ms deadline returned after %v", took)
		}
		rt.Cancel(refs...)
	}
	if n := helped(rt); n != 0 {
		t.Errorf("%d tasks helped by a caller with a deadline, want 0", n)
	}
	assertQuiesced(t, rt)
}

// TestHelpOnlyValueTasks: a Get right after Submit runs a value-argument
// task itself, but never a task with a reference argument or a gang member.
func TestHelpOnlyValueTasks(t *testing.T) {
	pinOneProc(t)
	rt := newRuntime(t, Options{})
	ctx := context.Background()
	get := func(ref idgen.ObjectID, want string) {
		t.Helper()
		if out, err := rt.Get(ctx, ref); err != nil || string(out) != want {
			t.Fatalf("Get = %q, %v; want %q", out, err, want)
		}
	}

	in, err := rt.Put([]byte("ref"), "raw")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		get(rt.Submit(task.NewSpec(rt.Job(), "echo", []task.Arg{task.RefArg(in)}, 1))[0], "ref")
	}
	specs := make([]*task.Spec, 2)
	for i := range specs {
		specs[i] = task.NewSpec(rt.Job(), "echo", []task.Arg{task.ValueArg([]byte("gang"))}, 1)
		specs[i].Gang = "g"
	}
	gang, err := rt.SubmitGang(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, refs := range gang {
		get(refs[0], "gang")
	}
	if n := helped(rt); n != 0 {
		t.Fatalf("%d reference-argument or gang tasks run by Get, want 0", n)
	}

	get(rt.Submit(task.NewSpec(rt.Job(), "echo", []task.Arg{task.ValueArg([]byte("v"))}, 1))[0], "v")
	if n := helped(rt); n != 1 {
		t.Errorf("value-argument task: %d helped, want 1", n)
	}
	refs := make([]idgen.ObjectID, 4)
	for i := range refs {
		refs[i] = rt.Submit(task.NewSpec(rt.Job(), "echo", []task.Arg{task.ValueArg([]byte("w"))}, 1))[0]
	}
	if ready, err := rt.Wait(ctx, refs, len(refs)); err != nil || len(ready) != len(refs) {
		t.Fatalf("Wait = %v, %v", ready, err)
	}
	if n := helped(rt); n != 1+int64(len(refs)) {
		t.Errorf("after Wait on all: %d helped, want %d", n, 1+len(refs))
	}
	assertQuiesced(t, rt)
}

// TestCancelHelpedTask cancels a task whose kernel is running in the Get
// that claimed it: the pending count, Cancel's report and the Get's error
// are what they are for a task running on its own goroutine.
func TestCancelHelpedTask(t *testing.T) {
	pinOneProc(t)
	rt := newRuntime(t, Options{})
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	registerBlocker(rt, "block", started, release)

	refCh := make(chan idgen.ObjectID, 1)
	errCh := make(chan error, 1)
	go func() {
		ref := rt.Submit(task.NewSpec(rt.Job(), "block", nil, 1))[0]
		refCh <- ref
		_, err := rt.Get(context.Background(), ref)
		errCh <- err
	}()
	<-started
	ref := <-refCh
	if n := rt.Pending(); n != 1 {
		t.Errorf("Pending() = %d while the helped kernel runs, want 1", n)
	}
	rep := rt.Cancel(ref)
	if rep.TasksCancelled != 1 || rep.WorkersReclaimed != 1 {
		t.Errorf("Cancel = %+v, want 1 task cancelled and 1 worker reclaimed", rep)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, skaderr.Cancelled) {
			t.Errorf("Get = %v, want skaderr.Cancelled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("helping Get still blocked after cancel")
	}
	if n := helped(rt); n != 1 {
		t.Errorf("%d tasks helped, want 1 (the cancelled one)", n)
	}
	assertQuiesced(t, rt)
}

// TestTerminalKernelErrorNotRederived: under Recover, a kernel that fails
// with a non-retryable error runs once; Get reports the error and restore
// does not re-submit the task.
func TestTerminalKernelErrorNotRederived(t *testing.T) {
	rt := newRuntime(t, Options{Recovery: Recover})
	var runs atomic.Int32
	rt.Registry.Register("boom", func(_ *task.Context, _ [][]byte) ([][]byte, error) {
		runs.Add(1)
		return nil, errors.New("boom")
	})
	refs := rt.Submit(task.NewSpec(rt.Job(), "boom", nil, 1))
	for i := 0; i < 2; i++ {
		_, err := rt.Get(context.Background(), refs[0])
		if skaderr.CodeOf(err) != skaderr.Internal || err == nil {
			t.Errorf("Get %d = %v, want the kernel's Internal error", i, err)
		}
	}
	rt.Drain()
	if n := runs.Load(); n != 1 {
		t.Errorf("kernel ran %d times, want 1", n)
	}
	if n := rt.Metrics.Counter(MetricLineageRecoveries).Value(); n != 0 {
		t.Errorf("%d lineage re-submissions, want 0", n)
	}
}
