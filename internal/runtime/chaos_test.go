package runtime

import (
	"context"
	"strconv"
	"testing"
	"time"

	"skadi/internal/chaos"
	"skadi/internal/idgen"
	"skadi/internal/skaderr"
	"skadi/internal/task"
)

// registerSquareAgg installs the fan-out/fan-in kernels the chaos suites
// share: "leaf" squares its input, "agg" sums its arguments.
func registerSquareAgg(rt *Runtime, compute time.Duration) {
	rt.Registry.Register("leaf", func(tctx *task.Context, args [][]byte) ([][]byte, error) {
		tctx.Compute(compute)
		n, err := strconv.Atoi(string(args[0]))
		if err != nil {
			return nil, err
		}
		return [][]byte{[]byte(strconv.Itoa(n * n))}, nil
	})
	rt.Registry.Register("agg", func(tctx *task.Context, args [][]byte) ([][]byte, error) {
		tctx.Compute(compute)
		total := 0
		for _, a := range args {
			n, err := strconv.Atoi(string(a))
			if err != nil {
				return nil, err
			}
			total += n
		}
		return [][]byte{[]byte(strconv.Itoa(total))}, nil
	})
}

// submitFanOutFanIn submits the two-level DAG and returns the aggregator
// refs, leaf refs, and expected aggregator values.
func submitFanOutFanIn(rt *Runtime, leaves, aggs int) (aggRefs, leafRefs []idgen.ObjectID, want []int) {
	want = make([]int, aggs)
	leafRefs = make([]idgen.ObjectID, leaves)
	for i := 0; i < leaves; i++ {
		spec := task.NewSpec(rt.Job(), "leaf", []task.Arg{task.ValueArg([]byte(strconv.Itoa(i)))}, 1)
		leafRefs[i] = rt.Submit(spec)[0]
		want[i%aggs] += i * i
	}
	aggRefs = make([]idgen.ObjectID, aggs)
	for a := 0; a < aggs; a++ {
		var args []task.Arg
		for i := a; i < leaves; i += aggs {
			args = append(args, task.RefArg(leafRefs[i]))
		}
		aggRefs[a] = rt.Submit(task.NewSpec(rt.Job(), "agg", args, 1))[0]
	}
	return aggRefs, leafRefs, want
}

// TestChaosKillsDuringFanOutFanIn runs a two-level DAG (24 leaf tasks
// feeding 4 aggregators) while a chaos plan kills worker nodes mid-flight,
// and asserts that lineage recovery still produces every correct result —
// exercising retry-on-unreachable dispatch, transitive recovery plans, and
// Get-level replay together. The fault schedule is a chaos.Plan: two
// timed crashes plus one restart, journaled and replayable.
func TestChaosKillsDuringFanOutFanIn(t *testing.T) {
	rt, err := New(ClusterSpec{
		Servers: 6, ServerSlots: 2, ServerMemBytes: 128 << 20,
	}, Options{Recovery: Recover, TimeScale: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	registerSquareAgg(rt, 2*time.Millisecond)

	aggRefs, _, want := submitFanOutFanIn(rt, 24, 4)

	// Chaos plan: kill two workers while the DAG is in flight, restart one.
	_, faultable := rt.ChaosNodes()
	plan := &chaos.Plan{Seed: chaos.FlagSeed(), Events: []chaos.Event{
		{At: 3 * time.Millisecond, Kind: chaos.EventCrash, Nodes: []int{faultable[0]}},
		{At: 5 * time.Millisecond, Kind: chaos.EventCrash, Nodes: []int{faultable[1]}},
		{At: 5 * time.Millisecond, Kind: chaos.EventRestart, Nodes: []int{faultable[0]}},
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rt.RunPlan(ctx, plan)

	for a, ref := range aggRefs {
		data, err := rt.Get(ctx, ref)
		if err != nil {
			t.Fatalf("agg %d after chaos: %v", a, err)
		}
		got, err := strconv.Atoi(string(data))
		if err != nil || got != want[a] {
			t.Errorf("agg %d = %q, want %d", a, data, want[a])
		}
	}
	rt.Drain()
}

// TestChaosRepeatedKillsSequential kills a different node between every
// read of a long chain, forcing repeated lineage replays. The kills are a
// stepped chaos plan: each round applies one crash step, reads through the
// recovery, then applies the matching restart step.
func TestChaosRepeatedKillsSequential(t *testing.T) {
	rt, err := New(ClusterSpec{
		Servers: 4, ServerSlots: 2, ServerMemBytes: 128 << 20,
	}, Options{Recovery: Recover})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	rt.Registry.Register("inc", func(_ *task.Context, args [][]byte) ([][]byte, error) {
		n, err := strconv.Atoi(string(args[0]))
		if err != nil {
			return nil, err
		}
		return [][]byte{[]byte(strconv.Itoa(n + 1))}, nil
	})

	ctx := context.Background()
	prev, err := rt.Put([]byte("0"), "raw")
	if err != nil {
		t.Fatal(err)
	}
	var refs []idgen.ObjectID
	for i := 0; i < 6; i++ {
		spec := task.NewSpec(rt.Job(), "inc", []task.Arg{task.RefArg(prev)}, 1)
		prev = rt.Submit(spec)[0]
		refs = append(refs, prev)
		if _, err := rt.Get(ctx, prev); err != nil {
			t.Fatal(err)
		}
	}
	rt.Drain()

	const rounds = 3
	_, faultable := rt.ChaosNodes()
	plan := &chaos.Plan{Seed: chaos.FlagSeed()}
	for round := 0; round < rounds; round++ {
		victim := faultable[round%len(faultable)]
		plan.Events = append(plan.Events,
			chaos.Event{Step: 2*round + 1, Kind: chaos.EventCrash, Nodes: []int{victim}},
			chaos.Event{Step: 2*round + 2, Kind: chaos.EventRestart, Nodes: []int{victim}},
		)
	}
	rt.InstallPlan(plan)
	defer rt.HealChaos()
	for round := 0; round < rounds; round++ {
		rt.ApplyStep(ctx, plan, 2*round+1)
		data, err := rt.Get(ctx, refs[len(refs)-1])
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if string(data) != "6" {
			t.Fatalf("round %d: result = %q, want 6", round, data)
		}
		rt.ApplyStep(ctx, plan, 2*round+2)
	}
}

// TestChaosDecommissionDuringFanOutFanIn runs the same two-level DAG while
// a chaos plan gracefully decommissions two workers (not kills) mid-flight.
// Unlike the kill test, recovery here must be invisible: the drain waits
// out in-flight tasks, live-migrates resident data, and zero tasks fail or
// replay.
func TestChaosDecommissionDuringFanOutFanIn(t *testing.T) {
	rt, err := New(ClusterSpec{
		Servers: 6, ServerSlots: 2, ServerMemBytes: 128 << 20,
	}, Options{Recovery: Recover, TimeScale: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	registerSquareAgg(rt, 2*time.Millisecond)

	aggRefs, leafRefs, want := submitFanOutFanIn(rt, 24, 4)
	workersBefore := len(rt.workerServers())

	// Chaos plan: shrink the pool by two workers while the DAG is in flight.
	_, faultable := rt.ChaosNodes()
	plan := &chaos.Plan{Seed: chaos.FlagSeed(), Events: []chaos.Event{
		{At: 3 * time.Millisecond, Kind: chaos.EventDecommission, Nodes: []int{faultable[0], faultable[1]}},
	}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rt.RunPlan(ctx, plan)

	failed := 0
	for a, ref := range aggRefs {
		data, err := rt.Get(ctx, ref)
		if err != nil {
			failed++
			t.Errorf("agg %d after decommission: %v", a, err)
			continue
		}
		got, err := strconv.Atoi(string(data))
		if err != nil || got != want[a] {
			t.Errorf("agg %d = %q, want %d", a, data, want[a])
		}
	}
	if failed != 0 {
		t.Fatalf("%d tasks failed during graceful decommission, want 0", failed)
	}
	// Every leaf intermediate is also still readable: the drain moved them
	// rather than dropping them on the floor.
	for i, ref := range leafRefs {
		data, err := rt.Get(ctx, ref)
		if err != nil {
			t.Fatalf("leaf %d after decommission: %v", i, err)
		}
		if got, _ := strconv.Atoi(string(data)); got != i*i {
			t.Errorf("leaf %d = %q, want %d", i, data, i*i)
		}
	}
	if got := len(rt.workerServers()); got != workersBefore-2 {
		t.Errorf("worker count after shrink = %d, want %d", got, workersBefore-2)
	}
	rt.Drain()
}

// TestChaosMigrationDuringPartition partitions the migration destination
// away mid-protocol: the freeze lands on the (reachable) source, the state
// transfer to the partitioned destination fails, and the migrator must
// roll back — the actor resumes on the source with no frozen-actor or
// lock leak (checker I3). After heal, the same migration succeeds. The
// destination choice is seeded, so a failure replays with -chaos.seed.
func TestChaosMigrationDuringPartition(t *testing.T) {
	rt, err := New(ClusterSpec{
		Servers: 4, ServerSlots: 2, ServerMemBytes: 64 << 20,
	}, Options{Recovery: Recover})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	registerCounter(rt)

	workers := rt.workerServers()
	actor, err := rt.CreateActorOn(workers[0], "cpu")
	if err != nil {
		t.Fatal(err)
	}
	if got := count(t, rt, actor); got != 1 {
		t.Fatalf("pre-chaos count = %d", got)
	}
	checker := rt.ChaosChecker()

	// Seed picks which worker to partition away (never the actor's host).
	seed := chaos.FlagSeed()
	_, faultable := rt.ChaosNodes()
	dstPick := 1 + int(uint64(seed)%uint64(len(faultable)-1))
	dst := workers[dstPick]
	plan := &chaos.Plan{Seed: seed, Events: []chaos.Event{
		{Step: 1, Kind: chaos.EventPartition, Nodes: []int{faultable[dstPick]}},
		{Step: 2, Kind: chaos.EventHeal},
	}}
	rt.InstallPlan(plan)
	defer rt.HealChaos()
	ctx := context.Background()
	rt.ApplyStep(ctx, plan, 1)

	if _, err := rt.MigrateActor(ctx, actor, dst); err == nil {
		t.Fatalf("migration to partitioned node %s succeeded, want failure (seed=%d)", dst.Short(), seed)
	}
	// Rollback must leave the actor live on the source: counting continues.
	if node, _ := rt.ActorNode(actor); node != workers[0] {
		t.Fatalf("actor moved to %s despite failed migration (seed=%d)", node.Short(), seed)
	}
	if got := count(t, rt, actor); got != 2 {
		t.Fatalf("count after rolled-back migration = %d, want 2 (seed=%d)", got, seed)
	}
	if vs := checker.Check(); len(vs) != 0 {
		t.Fatalf("invariant violations after rolled-back migration (seed=%d): %v", seed, vs)
	}

	rt.ApplyStep(ctx, plan, 2)
	if _, err := rt.MigrateActor(ctx, actor, dst); err != nil {
		t.Fatalf("post-heal migration: %v (seed=%d)", err, seed)
	}
	if node, _ := rt.ActorNode(actor); node != dst {
		t.Fatalf("actor on %s after successful migration, want %s (seed=%d)", node.Short(), dst.Short(), seed)
	}
	if got := count(t, rt, actor); got != 3 {
		t.Fatalf("count after successful migration = %d, want 3 (seed=%d)", got, seed)
	}
}

// TestChaosCancelDuringPartition cancels tasks that are stuck behind a
// full partition (every worker cut off from the head). The futures must
// fail with a typed Cancelled cause — not hang, not report a bare
// transport artifact — and after heal the cluster schedules normally.
func TestChaosCancelDuringPartition(t *testing.T) {
	rt, err := New(ClusterSpec{
		Servers: 3, ServerSlots: 2, ServerMemBytes: 64 << 20,
	}, Options{Recovery: Recover})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	rt.Registry.Register("spin", func(tctx *task.Context, _ [][]byte) ([][]byte, error) {
		tctx.Compute(100 * time.Millisecond)
		return [][]byte{[]byte("done")}, nil
	})
	checker := rt.ChaosChecker()

	seed := chaos.FlagSeed()
	_, faultable := rt.ChaosNodes()
	plan := &chaos.Plan{Seed: seed, Events: []chaos.Event{
		{Step: 1, Kind: chaos.EventPartition, Nodes: faultable},
		{Step: 2, Kind: chaos.EventHeal},
	}}
	rt.InstallPlan(plan)
	defer rt.HealChaos()
	ctx := context.Background()

	// Tasks start executing on the workers first; the partition then cuts
	// every worker off from the head while their kernels are mid-compute.
	var refs []idgen.ObjectID
	for i := 0; i < 4; i++ {
		refs = append(refs, rt.Submit(task.NewSpec(rt.Job(), "spin", nil, 1))[0])
	}
	time.Sleep(2 * time.Millisecond)
	rt.ApplyStep(ctx, plan, 1)
	rt.Cancel(refs...)

	getCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	for i, ref := range refs {
		_, err := rt.Get(getCtx, ref)
		if err == nil {
			t.Fatalf("task %d returned a value after cancel under partition (seed=%d)", i, seed)
		}
		if code := skaderr.CodeOf(err); code != skaderr.Cancelled {
			t.Fatalf("task %d failed with code %v, want Cancelled (seed=%d): %v", i, code, seed, err)
		}
	}
	rt.Drain()
	if vs := checker.Check(); len(vs) != 0 {
		t.Fatalf("invariant violations after cancel under partition (seed=%d): %v", seed, vs)
	}

	// Heal: the cluster must schedule again (dispatch marked every worker
	// dead while the partition held; heal revives them).
	rt.ApplyStep(ctx, plan, 2)
	ref := rt.Submit(task.NewSpec(rt.Job(), "spin", nil, 1))[0]
	if _, err := rt.Get(getCtx, ref); err != nil {
		t.Fatalf("post-heal task failed: %v (seed=%d)", err, seed)
	}
	rt.Drain()
}
