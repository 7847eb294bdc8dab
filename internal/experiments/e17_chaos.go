package experiments

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"skadi/internal/chaos"
	"skadi/internal/idgen"
	"skadi/internal/runtime"
	"skadi/internal/scheduler"
	"skadi/internal/skaderr"
	"skadi/internal/task"
)

func init() { register("e17", E17Chaos) }

// E17 workload shape: a fan-out / fan-in DAG (leaves square their input,
// aggregators sum a stripe of leaves) driven to completion while a seeded
// chaos plan injects faults at the fabric. Kernel time is simulated at
// TimeScale 1.0 so the fault window overlaps real execution.
const (
	e17Leaves    = 12
	e17Aggs      = 3
	e17Kernel    = time.Millisecond
	e17Window    = 4 * time.Millisecond
	e17Seed      = 220
	e17Servers   = 5
	e17ServerMem = 128 << 20
)

// E17Chaos measures what the runtime guarantees under injected failure
// (§3: a distributed runtime must own failure semantics, not leak them to
// the data system above). One arm per fault mix — message chaos
// (drop/delay/duplicate), partition/heal cycles, crash/restart cycles —
// each driven by a deterministic seeded plan, so every row is replayable
// bit-for-bit with the printed seed.
//
// The claim: whatever the mix, every submitted future terminates — resolved
// with the correct value or failed with a typed cause — and the five
// cross-subsystem invariants (futures, ownership, migration hygiene,
// goroutines, fabric accounting) hold at quiesce. "violations 0" is the
// experiment's payload; the fault columns prove the episode actually bit.
func E17Chaos() (*Table, error) {
	t := &Table{
		ID:    "e17",
		Title: "Chaos soak: typed failure & invariants under seeded fault schedules (§3 runtime semantics)",
		Header: []string{
			"mix", "wall", "futures ok", "futures failed-typed",
			"msgs dropped", "crashes", "tasks re-executed", "violations",
		},
	}
	for _, mix := range []chaos.Mix{chaos.MixMessage, chaos.MixPartition, chaos.MixCrash} {
		r, err := e17Run(mix)
		if err != nil {
			return nil, fmt.Errorf("e17 %s: %w", mix, err)
		}
		t.Rows = append(t.Rows, []string{
			mix.String(),
			msec(int64(r.wall)),
			fmt.Sprint(r.ok),
			fmt.Sprint(r.failedTyped),
			fmt.Sprintf("%d (%s)", r.dropped, kib(int64(r.droppedBytes))),
			fmt.Sprint(r.crashes),
			fmt.Sprint(r.reExecuted),
			fmt.Sprint(r.violations),
		})
		t.Trace = append(t.Trace, fmt.Sprintf("%s: plan seed=%d events=%d rules=%d — replay: go test ./internal/runtime -run TestChaosProperty -chaos.seed=%d",
			mix, e17Seed, r.events, r.rules, e17Seed))
	}
	t.Notes = "Expected shape: violations is 0 in every row — futures, ownership residency, migration hygiene, " +
		"goroutine baseline, and fabric byte accounting all hold at quiesce regardless of fault mix. " +
		"The message mix bites via dropped/duplicated RPCs (msgs dropped > 0; futures either resolve or fail " +
		"with a typed cause); the partition mix forces typed failures while the minority is cut off. The crash " +
		"mix typically shows zero re-execution on this DAG: consumer pulls replicate each leaf to its " +
		"aggregator before the crash lands, so surviving copies cover every read — location-transparent reads " +
		"over replicated commits are doing the recovery. tasks-re-executed counts lineage replays when a sole " +
		"copy does die (the property suite's crash seeds exercise that path). Every row replays bit-identically " +
		"from its printed seed."
	return t, nil
}

type e17Result struct {
	wall         time.Duration
	ok           int
	failedTyped  int
	reExecuted   int64
	dropped      uint64
	droppedBytes uint64
	crashes      int
	violations   int
	events       int
	rules        int
}

func e17Run(mix chaos.Mix) (*e17Result, error) {
	rt, err := runtime.New(runtime.ClusterSpec{
		Servers: e17Servers, ServerSlots: 2, ServerMemBytes: e17ServerMem,
	}, runtime.Options{TimeScale: 1.0, Policy: scheduler.RoundRobin, Recovery: runtime.Recover})
	if err != nil {
		return nil, err
	}
	defer rt.Shutdown()

	rt.Registry.Register("e17/leaf", func(tc *task.Context, args [][]byte) ([][]byte, error) {
		tc.Compute(e17Kernel)
		if err := tc.Err(); err != nil {
			return nil, err
		}
		v := int64(binary.LittleEndian.Uint64(args[0]))
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, uint64(v*v))
		return [][]byte{out}, nil
	})
	rt.Registry.Register("e17/agg", func(tc *task.Context, args [][]byte) ([][]byte, error) {
		tc.Compute(e17Kernel)
		if err := tc.Err(); err != nil {
			return nil, err
		}
		var sum int64
		for _, a := range args {
			sum += int64(binary.LittleEndian.Uint64(a))
		}
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, uint64(sum))
		return [][]byte{out}, nil
	})

	checker := rt.ChaosChecker()
	_, faultable := rt.ChaosNodes()
	plan := chaos.Generate(e17Seed, chaos.GenConfig{Faultable: faultable, Window: e17Window, Mix: mix})

	start := time.Now()
	leaves := make([]idgen.ObjectID, e17Leaves)
	want := make(map[idgen.ObjectID]int64, e17Leaves+e17Aggs)
	for i := range leaves {
		in := make([]byte, 8)
		binary.LittleEndian.PutUint64(in, uint64(i+1))
		spec := task.NewSpec(rt.Job(), "e17/leaf", []task.Arg{task.ValueArg(in)}, 1)
		leaves[i] = rt.Submit(spec)[0]
		want[leaves[i]] = int64(i+1) * int64(i+1)
	}
	aggs := make([]idgen.ObjectID, e17Aggs)
	for i := range aggs {
		var args []task.Arg
		var sum int64
		for j := i; j < e17Leaves; j += e17Aggs {
			args = append(args, task.RefArg(leaves[j]))
			sum += int64(j+1) * int64(j+1)
		}
		aggs[i] = rt.Submit(task.NewSpec(rt.Job(), "e17/agg", args, 1))[0]
		want[aggs[i]] = sum
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rt.RunPlan(ctx, plan)

	res := &e17Result{events: len(plan.Events), rules: len(plan.Rules)}
	for _, id := range append(append([]idgen.ObjectID(nil), leaves...), aggs...) {
		data, err := rt.Get(ctx, id)
		switch {
		case err == nil && len(data) == 8 && int64(binary.LittleEndian.Uint64(data)) == want[id]:
			res.ok++
		case err == nil:
			return nil, fmt.Errorf("future %s resolved with wrong value", id.Short())
		case skaderr.CodeOf(err) != skaderr.OK:
			res.failedTyped++
		default:
			return nil, fmt.Errorf("future %s failed untyped: %v", id.Short(), err)
		}
	}
	rt.Drain()
	res.wall = time.Since(start)

	acct := rt.Chaos().Accounting()
	res.dropped, res.droppedBytes = acct.Dropped, acct.DroppedBytes
	for _, e := range plan.Events {
		if e.Kind == chaos.EventCrash {
			res.crashes += len(e.Nodes)
		}
	}
	// Executions beyond one per submitted task are the price of the faults:
	// dispatch retries after unreachable verdicts plus lineage replays.
	// TasksExecuted is monotonic across crash/restart cycles.
	if extra := rt.TasksExecuted() - int64(e17Leaves+e17Aggs); extra > 0 {
		res.reExecuted = extra
	}
	res.violations = len(checker.Check())
	if res.violations > 0 {
		for _, v := range checker.Check() {
			return nil, fmt.Errorf("invariant violated at quiesce: %s", v)
		}
	}
	return res, nil
}
