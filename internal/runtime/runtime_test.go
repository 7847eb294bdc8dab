package runtime

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"skadi/internal/caching"
	"skadi/internal/idgen"
	"skadi/internal/raylet"
	"skadi/internal/scheduler"
	"skadi/internal/skaderr"
	"skadi/internal/task"
)

// newRuntime boots a small runtime and registers arithmetic test functions.
func newRuntime(t *testing.T, opts Options) *Runtime {
	t.Helper()
	spec := ClusterSpec{
		Servers: 3, ServerSlots: 4, ServerMemBytes: 64 << 20,
		GPUs: 2, DeviceSlots: 2, DeviceMemBytes: 16 << 20,
		MemBladeBytes: 128 << 20,
	}
	rt, err := New(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)

	rt.Registry.Register("add", func(_ *task.Context, args [][]byte) ([][]byte, error) {
		sum := 0
		for _, a := range args {
			n, err := strconv.Atoi(string(a))
			if err != nil {
				return nil, err
			}
			sum += n
		}
		return [][]byte{[]byte(strconv.Itoa(sum))}, nil
	})
	rt.Registry.Register("echo", func(_ *task.Context, args [][]byte) ([][]byte, error) {
		return [][]byte{args[0]}, nil
	})
	rt.Registry.Register("upper", func(_ *task.Context, args [][]byte) ([][]byte, error) {
		return [][]byte{[]byte(strings.ToUpper(string(args[0])))}, nil
	})
	rt.Registry.Register("whoami", func(ctx *task.Context, _ [][]byte) ([][]byte, error) {
		return [][]byte{[]byte(ctx.Backend)}, nil
	})
	return rt
}

func TestPutGet(t *testing.T) {
	rt := newRuntime(t, Options{})
	id, err := rt.Put([]byte("input"), "raw")
	if err != nil {
		t.Fatal(err)
	}
	data, err := rt.Get(context.Background(), id)
	if err != nil || !bytes.Equal(data, []byte("input")) {
		t.Errorf("Get = %q, %v", data, err)
	}
}

func TestSubmitAndGet(t *testing.T) {
	rt := newRuntime(t, Options{})
	spec := task.NewSpec(rt.Job(), "add", []task.Arg{
		task.ValueArg([]byte("2")), task.ValueArg([]byte("3")),
	}, 1)
	refs := rt.Submit(spec)
	data, err := rt.Get(context.Background(), refs[0])
	if err != nil || string(data) != "5" {
		t.Errorf("Get = %q, %v", data, err)
	}
}

func TestTaskChainThroughFutures(t *testing.T) {
	rt := newRuntime(t, Options{})
	in, err := rt.Put([]byte("skadi"), "raw")
	if err != nil {
		t.Fatal(err)
	}
	s1 := task.NewSpec(rt.Job(), "upper", []task.Arg{task.RefArg(in)}, 1)
	refs1 := rt.Submit(s1)
	s2 := task.NewSpec(rt.Job(), "echo", []task.Arg{task.RefArg(refs1[0])}, 1)
	refs2 := rt.Submit(s2)
	data, err := rt.Get(context.Background(), refs2[0])
	if err != nil || string(data) != "SKADI" {
		t.Errorf("Get = %q, %v", data, err)
	}
}

func TestFanoutFanin(t *testing.T) {
	rt := newRuntime(t, Options{})
	var refs []idgen.ObjectID
	for i := 1; i <= 8; i++ {
		s := task.NewSpec(rt.Job(), "add", []task.Arg{task.ValueArg([]byte(strconv.Itoa(i)))}, 1)
		refs = append(refs, rt.Submit(s)[0])
	}
	var args []task.Arg
	for _, r := range refs {
		args = append(args, task.RefArg(r))
	}
	final := task.NewSpec(rt.Job(), "add", args, 1)
	out := rt.Submit(final)
	data, err := rt.Get(context.Background(), out[0])
	if err != nil || string(data) != "36" {
		t.Errorf("fan-in = %q, %v", data, err)
	}
}

func TestSubmitToGPUBackend(t *testing.T) {
	for _, mode := range []DeviceMode{Gen1, Gen2} {
		t.Run(mode.String(), func(t *testing.T) {
			rt := newRuntime(t, Options{DeviceMode: mode})
			spec := task.NewSpec(rt.Job(), "whoami", nil, 1)
			spec.Backend = "gpu"
			refs := rt.Submit(spec)
			data, err := rt.Get(context.Background(), refs[0])
			if err != nil || string(data) != "gpu" {
				t.Errorf("Get = %q, %v", data, err)
			}
		})
	}
}

func TestGen1ChargesDPUHops(t *testing.T) {
	run := func(mode DeviceMode) int64 {
		rt := newRuntime(t, Options{DeviceMode: mode})
		spec := task.NewSpec(rt.Job(), "whoami", nil, 1)
		spec.Backend = "gpu"
		refs := rt.Submit(spec)
		if _, err := rt.Get(context.Background(), refs[0]); err != nil {
			t.Fatal(err)
		}
		var hops int64
		for _, rl := range rt.Raylets() {
			hops += rl.Stats().DPUHops
		}
		return hops
	}
	gen1, gen2 := run(Gen1), run(Gen2)
	if gen1 == 0 {
		t.Error("Gen-1 should charge DPU hops")
	}
	if gen2 != 0 {
		t.Errorf("Gen-2 charged %d DPU hops, want 0", gen2)
	}
}

func TestTaskErrorSurfacesViaGet(t *testing.T) {
	rt := newRuntime(t, Options{})
	rt.Registry.Register("boom", func(*task.Context, [][]byte) ([][]byte, error) {
		return nil, context.DeadlineExceeded // arbitrary error
	})
	spec := task.NewSpec(rt.Job(), "boom", nil, 1)
	refs := rt.Submit(spec)
	_, err := rt.Get(context.Background(), refs[0])
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("Get = %v, want task failure naming fn", err)
	}
}

func TestWait(t *testing.T) {
	rt := newRuntime(t, Options{})
	var refs []idgen.ObjectID
	for i := 0; i < 4; i++ {
		s := task.NewSpec(rt.Job(), "echo", []task.Arg{task.ValueArg([]byte("x"))}, 1)
		refs = append(refs, rt.Submit(s)[0])
	}
	ready, err := rt.Wait(context.Background(), refs, 4)
	if err != nil || len(ready) != 4 {
		t.Errorf("Wait = %d ready, %v", len(ready), err)
	}
}

func TestActorLifecycle(t *testing.T) {
	rt := newRuntime(t, Options{})
	rt.Registry.Register("append", func(ctx *task.Context, args [][]byte) ([][]byte, error) {
		state := append(ctx.ActorState["log"], args[0]...)
		ctx.ActorState["log"] = state
		return [][]byte{state}, nil
	})
	actor, err := rt.CreateActor("cpu")
	if err != nil {
		t.Fatal(err)
	}
	node, ok := rt.ActorNode(actor)
	if !ok || node.IsNil() {
		t.Fatal("actor has no node")
	}
	var last idgen.ObjectID
	for _, s := range []string{"a", "b", "c"} {
		spec := task.NewSpec(rt.Job(), "append", []task.Arg{task.ValueArg([]byte(s))}, 1)
		spec.Actor = actor
		last = rt.Submit(spec)[0]
		// Serialize: wait for each so state accumulates in order.
		if _, err := rt.Get(context.Background(), last); err != nil {
			t.Fatal(err)
		}
	}
	data, err := rt.Get(context.Background(), last)
	if err != nil || string(data) != "abc" {
		t.Errorf("actor state = %q, %v", data, err)
	}
}

func TestSubmitGang(t *testing.T) {
	rt := newRuntime(t, Options{})
	specs := make([]*task.Spec, 4)
	for i := range specs {
		specs[i] = task.NewSpec(rt.Job(), "echo", []task.Arg{task.ValueArg([]byte(strconv.Itoa(i)))}, 1)
		specs[i].Gang = "stage-0"
	}
	refs, err := rt.SubmitGang(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range refs {
		data, err := rt.Get(context.Background(), r[0])
		if err != nil || string(data) != strconv.Itoa(i) {
			t.Errorf("gang[%d] = %q, %v", i, data, err)
		}
	}
}

// workerHolder returns a non-driver node the ownership record lists for id.
func workerHolder(t *testing.T, rt *Runtime, id idgen.ObjectID) idgen.NodeID {
	t.Helper()
	rec, err := rt.Head.Table.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range rec.Locations {
		if l != rt.Driver() {
			return l
		}
	}
	t.Fatalf("no worker location for %s: %v", id.Short(), rec.Locations)
	return idgen.Nil
}

// TestKillNodeRecovery keys recovery by what survives the crash, not by a
// mode: whatever the caching layer left behind, KillNode loses nothing and
// Get returns the bytes; lineage replays only when no copy survived.
func TestKillNodeRecovery(t *testing.T) {
	for _, tc := range []struct {
		name    string
		caching caching.Config
		replays bool
	}{
		{"none", caching.Config{}, true},
		{"replicate-2", caching.Config{Mode: caching.ModeReplicate, Replicas: 2}, false},
		{"ec-4+2", caching.Config{Mode: caching.ModeEC, ECData: 4, ECParity: 2}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRuntime(t, Options{Recovery: Recover, Caching: tc.caching})
			ctx := context.Background()
			in, err := rt.Put([]byte("7"), "raw")
			if err != nil {
				t.Fatal(err)
			}
			// Wait, not Get: a Get would cache a second copy at the driver.
			refs := rt.Submit(task.NewSpec(rt.Job(), "add", []task.Arg{task.RefArg(in), task.ValueArg([]byte("1"))}, 1))
			if _, err := rt.Wait(ctx, refs, 1); err != nil {
				t.Fatal(err)
			}
			rt.Drain()
			if lost := rt.KillNode(workerHolder(t, rt, refs[0])); len(lost) != 0 {
				t.Errorf("KillNode left %d objects lost", len(lost))
			}
			if data, err := rt.Get(ctx, refs[0]); err != nil || string(data) != "8" {
				t.Errorf("Get after recovery = %q, %v", data, err)
			}
			if n := rt.Metrics.Counter(MetricLineageRecoveries).Value(); (n > 0) != tc.replays {
				t.Errorf("lineage replays = %d, want >0: %v", n, tc.replays)
			}
		})
	}
}

// TestKillNodeRecoveryMixed loses two objects of which one has a surviving
// copy the ownership record does not know about: that one is repaired, only
// the other is replayed — and a replay whose argument is in that "copy
// exists, record Lost" state repairs the argument instead of failing on it.
func TestKillNodeRecoveryMixed(t *testing.T) {
	rt := newRuntime(t, Options{Recovery: Recover})
	ctx := context.Background()
	in, err := rt.Put([]byte("7"), "raw")
	if err != nil {
		t.Fatal(err)
	}
	one := task.ValueArg([]byte("1"))
	workers := rt.workerServers()
	victim, other := workers[0], workers[1]
	a := rt.SubmitTo(victim, task.NewSpec(rt.Job(), "add", []task.Arg{task.RefArg(in), one}, 1))[0]
	b := rt.SubmitTo(victim, task.NewSpec(rt.Job(), "add", []task.Arg{task.RefArg(a), one}, 1))[0]
	if _, err := rt.Wait(ctx, []idgen.ObjectID{a, b}, 2); err != nil {
		t.Fatal(err)
	}
	rt.Drain()
	// A second copy of a, in the caching layer only.
	if err := rt.Layer.Store(other).Put(a, []byte("8"), "raw"); err != nil {
		t.Fatal(err)
	}
	rt.Layer.NoteLocation(other, a)

	replays := rt.Metrics.Counter(MetricLineageRecoveries)
	if lost := rt.KillNode(victim); len(lost) != 0 {
		t.Fatalf("KillNode left %d objects lost", len(lost))
	}
	if n := replays.Value(); n != 1 {
		t.Errorf("lineage replays = %d, want 1 (b only; a had a copy)", n)
	}
	for id, want := range map[idgen.ObjectID]string{a: "8", b: "9"} {
		if data, err := rt.Get(ctx, id); err != nil || string(data) != want {
			t.Errorf("Get(%s) = %q, %v; want %q", id.Short(), data, err, want)
		}
	}

	// Lose b for good and a's record only; reading b must replay its
	// producer against an argument that has bytes but a Lost record.
	rt.Layer.Delete(b)
	for _, id := range []idgen.ObjectID{a, b} {
		if err := rt.Head.Table.MarkLost(id); err != nil {
			t.Fatal(err)
		}
	}
	if data, err := rt.Get(ctx, b); err != nil || string(data) != "9" {
		t.Errorf("Get(b) with a copy-but-Lost argument = %q, %v", data, err)
	}
	if n := replays.Value(); n != 2 {
		t.Errorf("lineage replays = %d, want 2", n)
	}
}

func TestKillNodeNoRecoveryLosesObjects(t *testing.T) {
	rt := newRuntime(t, Options{Recovery: RecoverNone})
	// Place an object on a worker explicitly, then kill it.
	workers := rt.Raylets()
	var worker idgen.NodeID
	for _, rl := range workers {
		if rl.Node() != rt.Driver() {
			worker = rl.Node()
			break
		}
	}
	id, err := rt.PutAt(worker, []byte("doomed"), "raw")
	if err != nil {
		t.Fatal(err)
	}
	lost := rt.KillNode(worker)
	if len(lost) != 1 || lost[0] != id {
		t.Errorf("lost = %v, want [%s]", lost, id.Short())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := rt.Get(ctx, id); err == nil {
		t.Error("Get of lost object should fail")
	}
}

func TestDispatchRetriesOnDeadNode(t *testing.T) {
	rt := newRuntime(t, Options{})
	// Kill one worker; round-robin would have hit it eventually.
	victim := rt.Raylets()[1].Node()
	if victim == rt.Driver() {
		victim = rt.Raylets()[2].Node()
	}
	rt.Cluster.Kill(victim) // kill behind the scheduler's back
	for i := 0; i < 8; i++ {
		s := task.NewSpec(rt.Job(), "echo", []task.Arg{task.ValueArg([]byte("ok"))}, 1)
		refs := rt.Submit(s)
		data, err := rt.Get(context.Background(), refs[0])
		if err != nil || string(data) != "ok" {
			t.Fatalf("task %d: %q, %v", i, data, err)
		}
	}
}

// TestDispatchOutlivesRepeatedNodeDeaths kills the node under a running
// task three times in a row. Each death is a re-place, not a failed
// attempt, so the fourth run completes: a node death does not spend the
// exec-error budget.
func TestDispatchOutlivesRepeatedNodeDeaths(t *testing.T) {
	const kills = 3
	rt, err := New(ClusterSpec{Servers: kills + 1, ServerSlots: 1, ServerMemBytes: 16 << 20}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	running := make(chan idgen.NodeID)
	proceed := make(chan struct{})
	rt.Registry.Register("hold", func(tctx *task.Context, _ [][]byte) ([][]byte, error) {
		running <- tctx.Node
		<-proceed
		return [][]byte{[]byte("done")}, nil
	})
	refs := rt.Submit(task.NewSpec(rt.Job(), "hold", nil, 1))
	type result struct {
		data []byte
		err  error
	}
	got := make(chan result, 1)
	go func() {
		data, err := rt.Get(context.Background(), refs[0])
		got <- result{data, err}
	}()
	for run := 0; run <= kills; run++ {
		select {
		case node := <-running:
			if run < kills {
				rt.KillNode(node)
			}
			proceed <- struct{}{}
		case r := <-got:
			t.Fatalf("task ended after %d kills, before run %d: %q, %v", run, run+1, r.data, r.err)
		}
	}
	if r := <-got; r.err != nil || string(r.data) != "done" {
		t.Fatalf("Get after %d kills = %q, %v", kills, r.data, r.err)
	}
}

// TestDispatchRetriesOnlyTransientErrors: a kernel failing with a terminal
// code runs once; one failing with a retryable code on a live node spends
// the exec-error budget. Recovery is off, so Get does not re-derive.
func TestDispatchRetriesOnlyTransientErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		runs int64
	}{
		{"user error", errors.New("boom"), 1},
		{"data loss", skaderr.Mark(skaderr.DataLoss, errors.New("argument judged lost")), 1},
		{"resource exhausted", skaderr.Mark(skaderr.ResourceExhausted, errors.New("busy")), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRuntime(t, Options{})
			var runs atomic.Int64
			rt.Registry.Register("fail", func(*task.Context, [][]byte) ([][]byte, error) {
				runs.Add(1)
				return nil, tc.err
			})
			ref := rt.Submit(task.NewSpec(rt.Job(), "fail", nil, 1))[0]
			if _, err := rt.Get(context.Background(), ref); err == nil {
				t.Fatal("Get of a failing task succeeded")
			}
			rt.Drain()
			if n := runs.Load(); n != tc.runs {
				t.Fatalf("kernel ran %d times, want %d", n, tc.runs)
			}
		})
	}
}

// TestResubmissionWhileRegistered: a re-submission that finds its task
// still registered — a run finishing after it committed or failed the
// object — is dropped rather than run twice, and the registered run issues
// it on finishing, because the claimed return is still Pending.
func TestResubmissionWhileRegistered(t *testing.T) {
	rt := newRuntime(t, Options{Recovery: Recover})
	ctx := context.Background()
	spec := task.NewSpec(rt.Job(), "add", []task.Arg{task.ValueArg([]byte("1")), task.ValueArg([]byte("2"))}, 1)
	ref := rt.Submit(spec)[0]
	if _, err := rt.Get(ctx, ref); err != nil {
		t.Fatal(err)
	}
	rt.Drain()
	// A run of the task that has not finished yet.
	_, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	run := &taskCtl{spec: spec, cancel: cancel}
	if !rt.registerTask(run) {
		t.Fatal("task still registered after Drain")
	}
	rt.Layer.Delete(ref)
	if err := rt.Head.Table.MarkLost(ref); err != nil {
		t.Fatal(err)
	}
	resubmissions := rt.Metrics.Counter(MetricLineageRecoveries)
	if lost, err := rt.restore([]idgen.ObjectID{ref}, true); len(lost) != 0 {
		t.Fatalf("restore judged %v Lost: %v", lost, err)
	}
	if !rt.pending(ref) || resubmissions.Value() != 0 {
		t.Fatalf("pending=%v re-submissions=%d, want the claim held and the run dropped",
			rt.pending(ref), resubmissions.Value())
	}
	rt.finish(run)
	wctx, wcancel := context.WithTimeout(ctx, 5*time.Second)
	defer wcancel()
	if data, err := rt.Get(wctx, ref); err != nil || string(data) != "3" {
		t.Fatalf("Get after the run finished = %q, %v", data, err)
	}
	if n := resubmissions.Value(); n != 1 {
		t.Fatalf("re-submissions = %d, want 1", n)
	}
}

func TestSchedulerPolicyOptionHonored(t *testing.T) {
	rt := newRuntime(t, Options{Policy: scheduler.DataLocality})
	if rt.Sched.Policy() != scheduler.DataLocality {
		t.Error("policy not applied")
	}
}

func TestPushResolutionEndToEnd(t *testing.T) {
	rt := newRuntime(t, Options{Resolution: raylet.Push})
	in, err := rt.Put([]byte("pipe"), "raw")
	if err != nil {
		t.Fatal(err)
	}
	s1 := task.NewSpec(rt.Job(), "upper", []task.Arg{task.RefArg(in)}, 1)
	r1 := rt.Submit(s1)
	s2 := task.NewSpec(rt.Job(), "echo", []task.Arg{task.RefArg(r1[0])}, 1)
	r2 := rt.Submit(s2)
	data, err := rt.Get(context.Background(), r2[0])
	if err != nil || string(data) != "PIPE" {
		t.Errorf("Get = %q, %v", data, err)
	}
}
