package experiments

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"skadi/internal/caching"
	"skadi/internal/idgen"
	"skadi/internal/runtime"
	"skadi/internal/scheduler"
	"skadi/internal/task"
)

func init() { register("e14", E14Migration) }

// E14 workload shape. Every chain runs entirely on the victim node, so the
// victim accumulates one resident copy per stage; removing the victim then
// costs either one hop per resident object (live drain) or a full scattered
// re-execution of every chain (kill + lineage).
const (
	e14Payload = 64 << 10 // bytes per object
	e14Chains  = 6
	e14Depth   = 5
	e14Bumps   = 8 // actor increments before the event
	e14Bumps2  = 4 // actor increments submitted around the event
)

// E14Migration compares three ways of vacating a node in an elastic
// disaggregated pool (§1: the resource pool grows and shrinks while data
// systems keep running):
//
//   - live-drain: Decommission — actors and resident objects move the
//     same way (copy → retarget the record → drop, run by the source
//     raylet), then the raylet actually stops. No state is lost, no task fails.
//   - kill+lineage: the node dies and every object whose only copy it held
//     is re-derived by replaying its producing tasks (Ray's answer; as in
//     Ray, an actor task's result is not re-derived).
//   - kill+cache: the caching layer keeps replicas, so the kill loses
//     nothing — but every commit paid the replication bytes up front.
//
// The claim: a planned drain moves each live byte exactly once, so its
// recovery traffic is strictly lower than lineage re-execution (which
// re-moves every stage boundary of every chain) while keeping actor state
// exactly (no checkpoint gap) and failing zero tasks.
func E14Migration() (*Table, error) {
	t := &Table{
		ID:    "e14",
		Title: "Live migration vs kill-recovery: vacating a node (§1 elastic pool)",
		Header: []string{
			"strategy", "recovery", "bytes moved (event)", "bytes moved (workload)",
			"tasks re-executed", "failed tasks", "actor counter",
		},
	}
	for _, strategy := range []string{"live-drain", "kill+lineage", "kill+cache"} {
		r, err := e14Run(strategy)
		if err != nil {
			return nil, fmt.Errorf("e14 %s: %w", strategy, err)
		}
		wantCounter := e14Bumps + e14Bumps2
		counter := fmt.Sprintf("%d/%d", r.counter, wantCounter)
		t.Rows = append(t.Rows, []string{
			strategy, msec(int64(r.recDur)), kib(r.recBytes), kib(r.workBytes),
			fmt.Sprint(r.reexec), fmt.Sprint(r.failed), counter,
		})
		if r.drain != nil {
			t.Trace = append(t.Trace, fmt.Sprintf(
				"%s: drained %d actors + %d objects, %s over the fabric, raylet stopped",
				strategy, r.drain.ActorsMoved, r.drain.ObjectsMoved, kib(r.drain.BytesMoved)))
		}
	}
	t.Notes = "Expected shape: live-drain moves each resident byte once (event bytes ≈ resident set) and " +
		"re-executes nothing; kill+lineage re-runs every chain stage, re-moving each stage boundary " +
		"(strictly more event bytes); kill+cache recovers cheaply at the event but paid replication " +
		"bytes during the workload. No strategy loses counter increments, but the kill strategies " +
		"restore from the checkpoint and may double-apply an in-flight increment on retry " +
		"(at-least-once, counter can exceed the target); kill+lineage re-derives no actor result " +
		"(re-running an increment would apply it twice); live-drain ships the exact state, exactly once."
	return t, nil
}

type e14Result struct {
	workBytes int64
	recBytes  int64
	recDur    time.Duration
	reexec    int64
	failed    int
	counter   int
	drain     *runtime.DecommissionReport
}

func e14Run(strategy string) (*e14Result, error) {
	opts := runtime.Options{Policy: scheduler.RoundRobin, Recovery: runtime.Recover}
	if strategy == "kill+cache" {
		opts.Caching = caching.Config{Mode: caching.ModeReplicate, Replicas: 2}
	}
	rt, err := runtime.New(runtime.ClusterSpec{
		Servers: 4, ServerSlots: 4, ServerMemBytes: 256 << 20,
	}, opts)
	if err != nil {
		return nil, err
	}
	defer rt.Shutdown()

	rt.Registry.Register("e14/stage", func(_ *task.Context, args [][]byte) ([][]byte, error) {
		out := make([]byte, e14Payload)
		src := args[0]
		for i := range out {
			out[i] = src[i%len(src)] + 1
		}
		return [][]byte{out}, nil
	})
	rt.Registry.Register("e14/bump", func(tctx *task.Context, _ [][]byte) ([][]byte, error) {
		n, _ := strconv.Atoi(string(tctx.ActorState["n"]))
		n++
		tctx.ActorState["n"] = []byte(strconv.Itoa(n))
		return [][]byte{[]byte(strconv.Itoa(n))}, nil
	})

	workers := rt.Raylets()
	victim := workers[len(workers)-1].Node()
	actor, err := rt.CreateActorOn(victim, "cpu")
	if err != nil {
		return nil, err
	}

	// Workload: e14Chains dependency chains of depth e14Depth, every stage
	// pinned to the victim, plus e14Bumps counter increments on the actor.
	ctx := context.Background()
	seedData := make([]byte, e14Payload)
	seed, err := rt.Put(seedData, "raw")
	if err != nil {
		return nil, err
	}
	finals := make([]idgen.ObjectID, 0, e14Chains)
	var inters []idgen.ObjectID
	for c := 0; c < e14Chains; c++ {
		prev := seed
		for d := 0; d < e14Depth; d++ {
			spec := task.NewSpec(rt.Job(), "e14/stage", []task.Arg{task.RefArg(prev)}, 1)
			prev = rt.SubmitTo(victim, spec)[0]
			if d < e14Depth-1 {
				inters = append(inters, prev)
			}
		}
		finals = append(finals, prev)
	}
	for i := 0; i < e14Bumps; i++ {
		spec := task.NewSpec(rt.Job(), "e14/bump", nil, 1)
		spec.Actor = actor
		rt.Submit(spec)
	}
	rt.Drain()

	// Consumed intermediates are reclaimed from the victim's store (Ray's
	// reference counting would have evicted them); lineage still knows how
	// to re-derive them. Only live bytes — chain outputs, actor state —
	// should cost a drain.
	if store := rt.Layer.Store(victim); store != nil {
		for _, id := range inters {
			_ = store.Delete(id)
		}
	}

	res := &e14Result{workBytes: rt.FabricStats().Bytes}
	preExec := e14ExecCount(rt, victim)

	// The event: vacate the victim, with actor traffic in flight around it.
	start := time.Now()
	bumpRefs := make(chan idgen.ObjectID, e14Bumps2)
	go func() {
		for i := 0; i < e14Bumps2; i++ {
			spec := task.NewSpec(rt.Job(), "e14/bump", nil, 1)
			spec.Actor = actor
			bumpRefs <- rt.Submit(spec)[0]
		}
		close(bumpRefs)
	}()
	if strategy == "live-drain" {
		rep, err := rt.Decommission(ctx, victim)
		if err != nil {
			return nil, err
		}
		res.drain = &rep
	} else {
		rt.KillNode(victim)
	}

	// Recovery check: every chain output must still be readable, and every
	// in-flight counter increment must have landed.
	for _, f := range finals {
		if _, err := rt.Get(ctx, f); err != nil {
			res.failed++
		}
	}
	for ref := range bumpRefs {
		data, err := rt.Get(ctx, ref)
		if err != nil {
			res.failed++
			continue
		}
		if n, _ := strconv.Atoi(string(data)); n > res.counter {
			res.counter = n
		}
	}
	res.recBytes = rt.FabricStats().Bytes - res.workBytes
	res.recDur = time.Since(start)
	res.reexec = e14ExecCount(rt, victim) - preExec - e14Bumps2
	if res.reexec < 0 {
		res.reexec = 0
	}
	return res, nil
}

// e14ExecCount sums executed tasks across every raylet except the victim
// (whose counter disappears with it under live-drain).
func e14ExecCount(rt *runtime.Runtime, victim idgen.NodeID) int64 {
	var n int64
	for _, rl := range rt.Raylets() {
		if rl.Node() == victim {
			continue
		}
		n += rl.Stats().TasksExecuted
	}
	return n
}
