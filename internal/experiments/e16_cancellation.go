package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"skadi/internal/idgen"
	"skadi/internal/runtime"
	"skadi/internal/scheduler"
	"skadi/internal/skaderr"
	"skadi/internal/task"
)

func init() { register("e16", E16Cancellation) }

// E16 workload shape: a mixed job of surviving chains (short kernels, must
// complete untouched) and doomed chains (long kernels, revoked mid-job).
// Kernel time is simulated at TimeScale 1.0 so worker-slot occupancy
// (BusyMicros) measures real reclaimable compute.
const (
	e16Surviving  = 4
	e16Doomed     = 4
	e16Depth      = 3
	e16ShortStage = 4 * time.Millisecond
	e16LongStage  = 40 * time.Millisecond
	e16Payload    = 32 << 10
)

// E16Cancellation measures what cascading cancellation buys (§2.3: the
// control plane owns the full task graph, so revoking a computation can
// walk lineage edges and reclaim every queued and in-flight descendant —
// unlike FaaS runtimes, where orphaned downstream invocations run to
// completion on dead work).
//
// Four arms over the same mixed workload:
//
//   - baseline: nothing is cancelled; doomed chains burn their full budget.
//   - cancel-on-submit: doomed chains revoked immediately — descendants die
//     queued, before ever taking a worker slot.
//   - cancel-mid-flight: revoked halfway through the first long kernel —
//     the cancel rides the transport into the executing function body.
//   - deadline: doomed chains submitted with an end-to-end deadline shorter
//     than their critical path; the runtime revokes them without any
//     explicit Cancel call.
//
// The claim: worker-seconds reclaimed (baseline busy minus arm busy) is
// strictly positive for every revocation arm, surviving chains are
// untouched, and the counters account for every doomed task.
func E16Cancellation() (*Table, error) {
	t := &Table{
		ID:    "e16",
		Title: "Cascading cancellation & deadlines: reclaiming doomed work (§2.3 control plane)",
		Header: []string{
			"arm", "wall", "busy worker-ms", "reclaimed worker-ms",
			"cancelled", "workers reclaimed", "deadline exceeded", "bytes reclaimed", "survivors",
		},
	}
	var baselineBusy int64
	for _, arm := range []string{"baseline", "cancel-on-submit", "cancel-mid-flight", "deadline"} {
		r, err := e16Run(arm)
		if err != nil {
			return nil, fmt.Errorf("e16 %s: %w", arm, err)
		}
		if arm == "baseline" {
			baselineBusy = r.busyMicros
		}
		reclaimed := float64(baselineBusy-r.busyMicros) / 1e3
		t.Rows = append(t.Rows, []string{
			arm,
			msec(int64(r.wall)),
			fmt.Sprintf("%.1f", float64(r.busyMicros)/1e3),
			fmt.Sprintf("%.1f", reclaimed),
			fmt.Sprint(r.cancelled),
			fmt.Sprint(r.workersReclaimed),
			fmt.Sprint(r.deadlineExceeded),
			kib(r.bytesReclaimed),
			fmt.Sprintf("%d/%d", r.survived, e16Surviving),
		})
	}
	t.Notes = "Expected shape: every revocation arm reclaims worker-ms > 0 vs baseline. " +
		"cancel-on-submit kills the whole doomed graph while queued (few or no workers to reclaim, " +
		"maximum compute saved); cancel-mid-flight interrupts executing kernels (workers reclaimed > 0) " +
		"and frees already-committed stage outputs (bytes reclaimed); the deadline arm reclaims the same " +
		"compute with no explicit Cancel — the runtime revokes at the deadline, so workers-reclaimed " +
		"stays 0 while tasks-deadline-exceeded accounts the doomed tasks. Survivors always complete."
	return t, nil
}

type e16Result struct {
	wall             time.Duration
	busyMicros       int64
	cancelled        int64
	workersReclaimed int64
	deadlineExceeded int64
	bytesReclaimed   int64
	survived         int
}

func e16Run(arm string) (*e16Result, error) {
	rt, err := runtime.New(runtime.ClusterSpec{
		Servers: 4, ServerSlots: 2, ServerMemBytes: 256 << 20,
	}, runtime.Options{TimeScale: 1.0, Policy: scheduler.RoundRobin})
	if err != nil {
		return nil, err
	}
	defer rt.Shutdown()

	rt.Registry.Register("e16/stage", func(_ *task.Context, args [][]byte) ([][]byte, error) {
		out := make([]byte, len(args[0]))
		copy(out, args[0])
		return [][]byte{out}, nil
	})

	seed := make([]byte, e16Payload)
	start := time.Now()

	submitChain := func(ctx context.Context, stage time.Duration) ([]idgen.ObjectID, error) {
		prev, err := rt.Put(seed, "raw")
		if err != nil {
			return nil, err
		}
		refs := make([]idgen.ObjectID, 0, e16Depth)
		for d := 0; d < e16Depth; d++ {
			spec := task.NewSpec(rt.Job(), "e16/stage", []task.Arg{task.RefArg(prev)}, 1)
			spec.Duration = stage
			prev = rt.SubmitCtx(ctx, spec)[0]
			refs = append(refs, prev)
		}
		return refs, nil
	}

	// Doomed chains first so their long kernels take slots early.
	doomedCtx := context.Background()
	var doomedCancels []context.CancelFunc
	if arm == "deadline" {
		// Budget covers at most the first long stage; the rest of the chain
		// is revoked by the runtime at the deadline.
		ctx, cancel := context.WithTimeout(context.Background(), e16LongStage*3/2)
		doomedCtx, doomedCancels = ctx, append(doomedCancels, cancel)
	}
	defer func() {
		for _, c := range doomedCancels {
			c()
		}
	}()
	var doomedRoots, doomedLeaves []idgen.ObjectID
	for i := 0; i < e16Doomed; i++ {
		refs, err := submitChain(doomedCtx, e16LongStage)
		if err != nil {
			return nil, err
		}
		doomedRoots = append(doomedRoots, refs[0])
		doomedLeaves = append(doomedLeaves, refs[e16Depth-1])
	}
	var survivingLeaves []idgen.ObjectID
	for i := 0; i < e16Surviving; i++ {
		refs, err := submitChain(context.Background(), e16ShortStage)
		if err != nil {
			return nil, err
		}
		survivingLeaves = append(survivingLeaves, refs[e16Depth-1])
	}

	switch arm {
	case "cancel-on-submit":
		rt.Cancel(doomedRoots...)
	case "cancel-mid-flight":
		// Wait for the first long stage to commit, so the cancel both frees
		// its output and interrupts the second stage's kernels.
		if _, err := rt.Wait(context.Background(), doomedRoots, len(doomedRoots)); err != nil {
			return nil, fmt.Errorf("first doomed stage: %w", err)
		}
		rt.Cancel(doomedRoots...)
	}

	res := &e16Result{}
	for _, leaf := range survivingLeaves {
		data, err := rt.Get(context.Background(), leaf)
		if err != nil {
			return nil, fmt.Errorf("surviving chain failed: %w", err)
		}
		if len(data) == e16Payload {
			res.survived++
		}
	}
	for _, leaf := range doomedLeaves {
		_, err := rt.Get(context.Background(), leaf)
		switch arm {
		case "baseline":
			if err != nil {
				return nil, fmt.Errorf("baseline doomed chain failed: %w", err)
			}
		case "deadline":
			if !errors.Is(err, skaderr.DeadlineExceeded) {
				return nil, fmt.Errorf("deadline arm: leaf err = %v, want DeadlineExceeded", err)
			}
		default:
			if !errors.Is(err, skaderr.Cancelled) {
				return nil, fmt.Errorf("%s arm: leaf err = %v, want Cancelled", arm, err)
			}
		}
	}
	rt.Drain()
	res.wall = time.Since(start)

	for _, rl := range rt.Raylets() {
		res.busyMicros += rl.Stats().BusyMicros
	}
	res.cancelled = rt.Metrics.Counter(runtime.MetricTasksCancelled).Value()
	res.workersReclaimed = rt.Metrics.Counter(runtime.MetricWorkersReclaimed).Value()
	res.deadlineExceeded = rt.Metrics.Counter(runtime.MetricTasksDeadlineExceeded).Value()
	res.bytesReclaimed = rt.Metrics.Counter(runtime.MetricBytesReclaimed).Value()
	return res, nil
}
