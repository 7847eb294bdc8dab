package runtime

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"skadi/internal/idgen"
	"skadi/internal/raylet"
	"skadi/internal/scheduler"
	"skadi/internal/skaderr"
	"skadi/internal/task"
)

// localityRig is a three-server DataLocality runtime whose "produce" kernel
// blocks until the test closes release, then returns as many bytes as its
// value argument names; "where" returns the node it ran on.
type localityRig struct {
	rt      *Runtime
	servers []*raylet.Raylet
	release chan struct{}
}

func newLocalityRig(t *testing.T) *localityRig {
	t.Helper()
	rt, err := New(ClusterSpec{Servers: 3, ServerSlots: 4, ServerMemBytes: 64 << 20}, Options{Policy: scheduler.DataLocality})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	rig := &localityRig{rt: rt, release: make(chan struct{})}
	// Runs before Shutdown (cleanups are last in, first out), so no kernel
	// is still parked when the cluster stops.
	t.Cleanup(func() {
		select {
		case <-rig.release:
		default:
			close(rig.release)
		}
	})
	for _, rl := range rt.Raylets() {
		if rl.Node() != rt.Driver() {
			rig.servers = append(rig.servers, rl)
		}
	}
	rt.Registry.Register("produce", func(tctx *task.Context, args [][]byte) ([][]byte, error) {
		select {
		case <-rig.release:
		case <-tctx.Ctx.Done():
			return nil, tctx.Ctx.Err()
		}
		size := int(args[0][0]) << 10
		return [][]byte{bytes.Repeat([]byte{7}, size)}, nil
	})
	rt.Registry.Register("where", func(tctx *task.Context, _ [][]byte) ([][]byte, error) {
		return [][]byte{append([]byte(nil), tctx.Node[:]...)}, nil
	})
	return rig
}

// produce pins a blocked producer of kib KiB onto node and returns its ref
// once the producer has been sent there.
func (rig *localityRig) produce(t *testing.T, node idgen.NodeID, kib byte) idgen.ObjectID {
	t.Helper()
	spec := task.NewSpec(rig.rt.Job(), "produce", []task.Arg{task.ValueArg([]byte{kib})}, 1)
	ref := rig.rt.SubmitTo(node, spec)[0]
	rig.awaitExecuting(t, spec)
	return ref
}

// consumer builds a "where" task over refs.
func (rig *localityRig) consumer(refs ...idgen.ObjectID) *task.Spec {
	args := make([]task.Arg, len(refs))
	for i, ref := range refs {
		args[i] = task.RefArg(ref)
	}
	return task.NewSpec(rig.rt.Job(), "where", args, 1)
}

// remoteFetches sums the servers' remote argument fetches.
func (rig *localityRig) remoteFetches() int64 {
	var n int64
	for _, rl := range rig.servers {
		n += rl.Stats().RemoteFetches
	}
	return n
}

// awaitExecuting returns once spec's exec RPC has been sent.
func (rig *localityRig) awaitExecuting(t *testing.T, spec *task.Spec) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		rig.rt.mu.Lock()
		ctl := rig.rt.tasks[spec.ID]
		rig.rt.mu.Unlock()
		if ctl != nil && ctl.executing.Load() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("task %s not sent to its node", spec.Fn)
		}
	}
}

// TestLocalityPlacesAfterArgsReady submits a consumer while its producers
// are running, then lets them finish. DataLocality must place it on
// the node holding most of its argument bytes; placed at submit time it
// would see no bytes anywhere and take the least-loaded node, which is not
// the one busy running the producers.
func TestLocalityPlacesAfterArgsReady(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kibs   []byte // one producer per entry: bytes on servers[0], or servers[1] if 1
		on     []int
		remote int64
	}{
		{"all on one node", []byte{64, 64}, []int{0, 0}, 0},
		{"most bytes on one node", []byte{64, 64, 1}, []int{0, 0, 1}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newLocalityRig(t)
			var refs []idgen.ObjectID
			for i, kib := range tc.kibs {
				refs = append(refs, rig.produce(t, rig.servers[tc.on[i]].Node(), kib))
			}
			ref := rig.rt.Submit(rig.consumer(refs...))[0]
			// Submit is asynchronous. The pause gives a dispatch that does
			// not wait for arguments time to place the consumer while its
			// producers still run; the outcome here never depends on it.
			time.Sleep(20 * time.Millisecond)
			close(rig.release)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			data, err := rig.rt.Get(ctx, ref)
			if err != nil {
				t.Fatal(err)
			}
			if want := rig.servers[0].Node(); !bytes.Equal(data, want[:]) {
				t.Errorf("consumer ran on %x, want %x (the node holding most argument bytes)", data, want[:])
			}
			if n := rig.remoteFetches(); n != tc.remote {
				t.Errorf("remote fetches = %d, want %d", n, tc.remote)
			}
		})
	}
}

// TestLocalityWaitIsRevocable: a consumer parked on its arguments returns
// its cancel or deadline cause promptly, while its producer still runs.
func TestLocalityWaitIsRevocable(t *testing.T) {
	const prompt = 100 * time.Millisecond
	for _, tc := range []struct {
		name string
		want skaderr.Code
		run  func(t *testing.T, rig *localityRig, cons *task.Spec) idgen.ObjectID
	}{
		{"cancel", skaderr.Cancelled, func(_ *testing.T, rig *localityRig, cons *task.Spec) idgen.ObjectID {
			ref := rig.rt.Submit(cons)[0]
			rig.rt.Cancel(ref)
			return ref
		}},
		{"deadline", skaderr.DeadlineExceeded, func(t *testing.T, rig *localityRig, cons *task.Spec) idgen.ObjectID {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			t.Cleanup(cancel)
			return rig.rt.SubmitCtx(ctx, cons)[0]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newLocalityRig(t)
			cons := rig.consumer(rig.produce(t, rig.servers[0].Node(), 1))
			start := time.Now()
			ref := tc.run(t, rig, cons)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, err := rig.rt.Get(ctx, ref)
			if took := time.Since(start); took > 20*time.Millisecond+prompt {
				t.Errorf("Get returned after %v, want within %v of the revocation", took, prompt)
			}
			if code := skaderr.CodeOf(err); code != tc.want {
				t.Errorf("Get = %v (code %v), want %v", err, code, tc.want)
			}
		})
	}
}

// TestLocalityFailedProducerReported: a consumer whose producer failed
// terminally stops waiting and reports the producer's error, code and all.
func TestLocalityFailedProducerReported(t *testing.T) {
	rig := newLocalityRig(t)
	rig.rt.Registry.Register("fail", func(*task.Context, [][]byte) ([][]byte, error) {
		return nil, errors.New("producer exploded")
	})
	prodRef := rig.rt.Submit(task.NewSpec(rig.rt.Job(), "fail", nil, 1))[0]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := rig.rt.Get(ctx, rig.rt.Submit(rig.consumer(prodRef))[0])
	prodErr := rig.rt.taskErr(prodRef)
	if prodErr == nil || err == nil || !strings.Contains(err.Error(), prodErr.Error()) ||
		skaderr.CodeOf(err) != skaderr.CodeOf(prodErr) {
		t.Fatalf("consumer Get = %v, want the producer's %v", err, prodErr)
	}
}

// TestLocalityPinnedAndActorTasksDoNotWait: only a placement decision waits
// for arguments. A pinned or actor task is sent to its node while its
// producer still runs, as under every other policy.
func TestLocalityPinnedAndActorTasksDoNotWait(t *testing.T) {
	for _, tc := range []struct {
		name   string
		submit func(rig *localityRig, cons *task.Spec) idgen.ObjectID
	}{
		{"pinned", func(rig *localityRig, cons *task.Spec) idgen.ObjectID {
			return rig.rt.SubmitTo(rig.servers[1].Node(), cons)[0]
		}},
		{"actor", func(rig *localityRig, cons *task.Spec) idgen.ObjectID {
			actor, err := rig.rt.CreateActor("cpu")
			if err != nil {
				t.Fatal(err)
			}
			cons.Actor = actor
			return rig.rt.Submit(cons)[0]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newLocalityRig(t)
			cons := rig.consumer(rig.produce(t, rig.servers[0].Node(), 1))
			ref := tc.submit(rig, cons)
			rig.awaitExecuting(t, cons)
			close(rig.release)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := rig.rt.Get(ctx, ref); err != nil {
				t.Fatal(err)
			}
		})
	}
}
