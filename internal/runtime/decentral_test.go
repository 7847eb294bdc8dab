package runtime

import (
	"context"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"skadi/internal/caching"
	"skadi/internal/chaos"
	"skadi/internal/gossip"
	"skadi/internal/idgen"
	"skadi/internal/ownership"
	"skadi/internal/skaderr"
	"skadi/internal/task"
	"skadi/internal/tenancy"
)

func ringHas(members []idgen.NodeID, n idgen.NodeID) bool {
	for _, m := range members {
		if m == n {
			return true
		}
	}
	return false
}

// TestDecentralizedEndToEnd: the full task API runs unchanged on the
// distributed control plane — sharded directory, work-stealing mesh, gossip
// liveness — and the control-plane sample is coherent at quiesce.
func TestDecentralizedEndToEnd(t *testing.T) {
	rt, err := New(ClusterSpec{
		Servers: 4, ServerSlots: 2, ServerMemBytes: 64 << 20,
	}, Options{Decentralized: true, Recovery: Recover})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	// Ring membership: the head (permanent member) plus every worker.
	members := rt.sharded.Members()
	if len(members) != 5 {
		t.Fatalf("ring members = %d, want 5", len(members))
	}
	if !ringHas(members, rt.Driver()) {
		t.Fatal("head missing from the ring")
	}

	registerSquareAgg(rt, 0)
	aggRefs, _, want := submitFanOutFanIn(rt, 8, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for a, ref := range aggRefs {
		data, err := rt.Get(ctx, ref)
		if err != nil {
			t.Fatalf("agg %d: %v", a, err)
		}
		if got, _ := strconv.Atoi(string(data)); got != want[a] {
			t.Fatalf("agg %d = %q, want %d", a, data, want[a])
		}
	}
	rt.Drain()

	s := rt.SampleControlPlane()
	if !s.Decentralized || s.Alive != 5 || s.Suspect != 0 || s.Dead != 0 {
		t.Fatalf("sample = %+v, want 5 alive members", s)
	}
	total := 0
	for _, n := range s.ShardEntries {
		total += n
	}
	if total != rt.Head.Table.Len() {
		t.Fatalf("shard sizes sum to %d, directory holds %d", total, rt.Head.Table.Len())
	}
}

// runControlPlaneLifecycle walks one worker through kill → restart →
// decommission and a second through partition → conviction → heal, on
// either configuration of the control plane. Liveness takes the same
// gossip-event path in both; the only thing the configuration changes is
// whether a worker hosts a directory shard, so every ring assertion is
// "member iff decentralized and up".
func runControlPlaneLifecycle(t *testing.T, decentralized bool) {
	rt, err := New(ClusterSpec{
		Servers: 4, ServerSlots: 2, ServerMemBytes: 64 << 20,
	}, Options{Decentralized: decentralized, Recovery: Recover,
		GossipInterval: time.Hour}) // manual ticks only
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	check := func(when string, node idgen.NodeID, up bool, wantStatus gossip.Status, wantSched int) {
		t.Helper()
		if got, want := ringHas(rt.sharded.Members(), node), up && decentralized; got != want {
			t.Fatalf("%s: ring member = %v, want %v", when, got, want)
		}
		if st, _, ok := rt.gossip.Status(node); !ok || st != wantStatus {
			t.Fatalf("%s: gossip status = %v, %v; want %v", when, st, ok, wantStatus)
		}
		if got := rt.Sched.NodeCount(); got != wantSched {
			t.Fatalf("%s: schedulable nodes = %d, want %d", when, got, wantSched)
		}
		if !ringHas(rt.sharded.Members(), rt.Driver()) {
			t.Fatalf("%s: head left the ring", when)
		}
	}

	registerSquareAgg(rt, 0)
	aggRefs, _, want := submitFanOutFanIn(rt, 12, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, ref := range aggRefs {
		if _, err := rt.Get(ctx, ref); err != nil {
			t.Fatal(err)
		}
	}
	rt.Drain()
	recordsBefore := len(rt.Head.Table.Records())
	workers := rt.workerServers()
	victim, second := workers[0], workers[1]
	check("boot", victim, true, gossip.Alive, 4)

	// Kill: the node leaves scheduling and hands off any shard it hosted
	// with nothing dropped (locations shrink, the directory does not);
	// results stay fetchable through lineage recovery + rerouted lookups.
	rt.KillNode(victim)
	check("kill", victim, false, gossip.Dead, 3)
	if got := len(rt.Head.Table.Records()); got != recordsBefore {
		t.Fatalf("records after kill = %d, want %d", got, recordsBefore)
	}
	for a, ref := range aggRefs {
		data, err := rt.Get(ctx, ref)
		if err != nil {
			t.Fatalf("agg %d after crash: %v", a, err)
		}
		if got, _ := strconv.Atoi(string(data)); got != want[a] {
			t.Fatalf("agg %d after crash = %q, want %d", a, data, want[a])
		}
	}

	// Restart: schedulable again, and a shard host takes a key range back.
	rt.RestartNode(victim)
	check("restart", victim, true, gossip.Alive, 4)

	// Decommission: a graceful drain leaves gossip and the ring for good —
	// further protocol rounds must not resurrect the node.
	if _, err := rt.Decommission(ctx, victim); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := rt.gossip.Status(victim); ok {
		t.Fatal("decommissioned node still a gossip member")
	}
	rt.StepGossip(4)
	if ringHas(rt.sharded.Members(), victim) {
		t.Fatal("gossip resurrected a decommissioned node")
	}
	check("decommission", second, true, gossip.Alive, 3)

	// Partition: a silent failure — no KillNode call — is convicted by the
	// protocol (one tick to suspect, SuspectTicks more to convict).
	rt.Chaos().Partition([]idgen.NodeID{second})
	rt.StepGossip(8)
	check("partition", second, false, gossip.Dead, 2)
	if s := rt.SampleControlPlane(); s.Dead != 1 {
		t.Fatalf("sample dead = %d, want 1", s.Dead)
	}

	// Heal: the node never actually died, so it refutes and rejoins, and
	// further ticks must not re-convict anyone.
	rt.Chaos().HealPartition()
	rt.HealChaos()
	check("heal", second, true, gossip.Alive, 3)
	if _, inc, _ := rt.gossip.Status(second); inc == 0 {
		t.Fatal("healed node kept incarnation 0: the death verdict was not refuted")
	}
	rt.StepGossip(8)
	s := rt.SampleControlPlane()
	if s.Decentralized != decentralized || s.Dead != 0 || s.Suspect != 0 {
		t.Fatalf("post-heal sample = %+v, want all alive", s)
	}
	wantShards := 1
	if decentralized {
		wantShards += 3
	}
	if len(s.ShardEntries) != wantShards {
		t.Fatalf("shards = %d, want %d", len(s.ShardEntries), wantShards)
	}
	if !decentralized && (s.Handoffs != 0 || s.Repl != (ownership.ReplicationStats{})) {
		t.Fatalf("one shard host moved or replicated entries: handoffs=%d repl=%+v", s.Handoffs, s.Repl)
	}
}

func TestControlPlaneLifecycle(t *testing.T) {
	t.Run("centralized", func(t *testing.T) { runControlPlaneLifecycle(t, false) })
	t.Run("decentralized", func(t *testing.T) { runControlPlaneLifecycle(t, true) })
}

// TestDecentralizedHandoffRacesCrash: two ring members crash and restart
// concurrently while the DAG is in flight — shard handoff triggered by one
// crash races the other crash and both rejoin handoffs. Every future must
// still resolve and every invariant hold.
func TestDecentralizedHandoffRacesCrash(t *testing.T) {
	// GossipInterval an hour: KillNode/RestartNode drive gossip
	// synchronously and StepGossip settles the rest, so nothing in this
	// test races the background pump on the wall clock.
	rt, err := New(ClusterSpec{
		Servers: 5, ServerSlots: 2, ServerMemBytes: 64 << 20,
	}, Options{Decentralized: true, Recovery: Recover, TimeScale: 1.0,
		GossipInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	registerSquareAgg(rt, 200*time.Microsecond)
	checker := rt.ChaosChecker()

	aggRefs, _, want := submitFanOutFanIn(rt, 12, 3)
	workers := rt.workerServers()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(victim idgen.NodeID) {
			defer wg.Done()
			rt.KillNode(victim)
			rt.RestartNode(victim)
		}(workers[i])
	}
	wg.Wait()
	rt.HealChaos()
	rt.StepGossip(8)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for a, ref := range aggRefs {
		data, err := rt.Get(ctx, ref)
		if err != nil {
			if skaderr.CodeOf(err) == skaderr.OK {
				t.Fatalf("agg %d failed untyped: %v", a, err)
			}
			continue
		}
		if got, _ := strconv.Atoi(string(data)); got != want[a] {
			t.Fatalf("agg %d = %q, want %d", a, data, want[a])
		}
	}
	rt.Drain()
	for i := 0; i < 2; i++ {
		if !ringHas(rt.sharded.Members(), workers[i]) {
			t.Fatalf("victim %d missing from the ring after restart", i)
		}
	}
	if vs := checker.Check(); len(vs) != 0 {
		t.Fatalf("%d invariant violation(s): %v", len(vs), vs)
	}
}

// runDecentralChaosEpisode is the sharded-directory version of the chaos
// property episode, with the tenancy plane armed so I6 (per-tenant
// accounting) is checked alongside I2 (ownership residency) against shard
// handoffs racing the generated crash/partition schedule.
func runDecentralChaosEpisode(t *testing.T, seed int64) {
	rt, err := New(ClusterSpec{
		Servers: 4, ServerSlots: 2, ServerMemBytes: 64 << 20,
	}, Options{
		Decentralized: true,
		Recovery:      Recover, TimeScale: 1.0,
		Tenancy: tenancy.Options{FairShare: true, Preemption: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	if err := rt.RegisterTenant(tenancy.Config{Name: "blue", Priority: 1}); err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterTenant(tenancy.Config{Name: "green"}); err != nil {
		t.Fatal(err)
	}
	registerSquareAgg(rt, 300*time.Microsecond)
	checker := rt.ChaosChecker()

	_, faultable := rt.ChaosNodes()
	plan := chaos.Generate(seed, chaos.GenConfig{
		Faultable: faultable,
		Window:    3 * time.Millisecond,
		Mix:       chaos.Mix(uint64(seed) % 4),
	})

	const leaves, aggs = 8, 2
	tenantOf := func(i int) string {
		if i%2 == 0 {
			return "blue"
		}
		return "green"
	}
	want := make([]int, aggs)
	leafRefs := make([]idgen.ObjectID, leaves)
	for i := 0; i < leaves; i++ {
		lctx := tenancy.ContextWith(context.Background(), tenantOf(i))
		spec := task.NewSpec(rt.Job(), "leaf", []task.Arg{task.ValueArg([]byte(strconv.Itoa(i)))}, 1)
		leafRefs[i] = rt.SubmitCtx(lctx, spec)[0]
		want[i%aggs] += i * i
	}
	aggRefs := make([]idgen.ObjectID, aggs)
	for a := 0; a < aggs; a++ {
		var args []task.Arg
		for i := a; i < leaves; i += aggs {
			args = append(args, task.RefArg(leafRefs[i]))
		}
		actx := tenancy.ContextWith(context.Background(), tenantOf(a))
		aggRefs[a] = rt.SubmitCtx(actx, task.NewSpec(rt.Job(), "agg", args, 1))[0]
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rt.RunPlan(ctx, plan)

	for a, ref := range aggRefs {
		data, err := rt.Get(ctx, ref)
		if err != nil {
			if skaderr.CodeOf(err) == skaderr.OK {
				failEpisode(t, rt, seed, "episode seed=%d: agg %d failed untyped: %v", seed, a, err)
			}
			continue
		}
		if got, _ := strconv.Atoi(string(data)); got != want[a] {
			failEpisode(t, rt, seed, "episode seed=%d: agg %d = %q, want %d", seed, a, data, want[a])
		}
	}
	rt.Drain()

	if vs := checker.Check(); len(vs) != 0 {
		failEpisode(t, rt, seed, "episode seed=%d: %d invariant violation(s): %v", seed, len(vs), vs)
	}
	checkResubmissions(t, rt, seed)
	// Quiesce sanity specific to this plane: shard sizes must cover the
	// whole directory (no entry stranded by a handoff).
	s := rt.SampleControlPlane()
	total := 0
	for _, n := range s.ShardEntries {
		total += n
	}
	if total != rt.Head.Table.Len() {
		failEpisode(t, rt, seed, "episode seed=%d: shards hold %d entries, directory %d",
			seed, total, rt.Head.Table.Len())
	}
}

// TestChaosPropertyDecentralized is the randomized chaos suite against the
// decentralized control plane: seeded fault plans (crashes, restarts,
// partitions, message chaos) over a two-tenant DAG, with shard handoff and
// gossip conviction happening mid-episode, all six invariants checked at
// quiesce. Uses the same seed space and replay recipe as TestChaosProperty.
func TestChaosPropertyDecentralized(t *testing.T) {
	base := chaos.FlagSeed()
	for ep := 0; ep < chaosEpisodes(); ep++ {
		seed := base + int64(ep)
		runDecentralChaosEpisode(t, seed)
		if t.Failed() {
			return
		}
	}
}

// runDurabilityChaosEpisode is the metadata-durability chaos schedule: a
// replicated data plane (three copies per object) under a decentralized
// control plane with replicated shard metadata, with a seeded shard
// primary crashed, followed by its ring successor, the very node whose
// replica was just promoted. Quiesced, the kills land after every task is
// done, every object is replicate-3 and the replication log is empty — the
// arm whose premise (three copies, two crashes) is true by construction,
// so I7's strongest form holds deterministically: zero lost directory
// entries, zero replica divergence, zero lineage replays. In flight, the
// kills race the DAG and the promotion (mid-handoff), so an object can
// still be on its way to three copies when its producer's node dies.
func runDurabilityChaosEpisode(t *testing.T, seed int64, quiesced bool) {
	rt, err := New(ClusterSpec{
		Servers: 5, ServerSlots: 2, ServerMemBytes: 64 << 20,
	}, Options{
		Decentralized:  true,
		GossipInterval: time.Hour, // stepped manually: no pump race
		Recovery:       Recover, TimeScale: 1.0,
		Caching: caching.Config{Mode: caching.ModeReplicate, Replicas: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	registerSquareAgg(rt, 300*time.Microsecond)
	checker := rt.ChaosChecker()

	// Seeded victim pair: a shard primary and its ring successor (the
	// replica host that promotion just made the new primary). The head is
	// a permanent member and never a victim.
	rng := rand.New(rand.NewSource(seed))
	workers := rt.workerServers()
	primary := workers[rng.Intn(len(workers))]
	succ, ok := rt.sharded.Successor(primary)
	if !ok {
		t.Fatalf("no ring successor for %s", primary.Short())
	}

	aggRefs, _, want := submitFanOutFanIn(rt, 8+rng.Intn(5), 2)
	if quiesced {
		rt.Drain()
		rt.sharded.FlushReplication()
	}

	// Crash the primary, then the successor — if it was a worker — hitting
	// the just-promoted shard before it fully re-settles.
	rt.KillNode(primary)
	if succ != rt.Driver() {
		rt.KillNode(succ)
	}
	rt.RestartNode(primary)
	if succ != rt.Driver() {
		rt.RestartNode(succ)
	}
	rt.HealChaos()
	rt.StepGossip(8)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for a, ref := range aggRefs {
		data, err := rt.Get(ctx, ref)
		if err != nil {
			// Three data copies and at most two crashes: every future must
			// resolve with the right bytes, not merely fail typed.
			failEpisode(t, rt, seed, "episode seed=%d: agg %d: %v", seed, a, err)
			continue
		}
		if got, _ := strconv.Atoi(string(data)); got != want[a] {
			failEpisode(t, rt, seed, "episode seed=%d: agg %d = %q, want %d", seed, a, data, want[a])
		}
	}
	rt.Drain()

	if vs := checker.Check(); len(vs) != 0 {
		failEpisode(t, rt, seed, "episode seed=%d: %d invariant violation(s): %v", seed, len(vs), vs)
	}
	checkResubmissions(t, rt, seed)
	// I7's evidence, asserted directly as well so a weakening of the
	// checker cannot silently pass: promotions happened, nothing was lost,
	// and lineage replay never fired.
	st := rt.sharded.ReplicationStats()
	if st.Promotions == 0 {
		failEpisode(t, rt, seed, "episode seed=%d: no promotions recorded (schedule did not exercise the replica path)", seed)
	}
	if st.Lost != 0 {
		failEpisode(t, rt, seed, "episode seed=%d: %d directory entries lost (restored %d)", seed, st.Lost, st.Restored)
	}
	if n := rt.Metrics.Counter(MetricLineageRecoveries).Value(); n != 0 {
		failEpisode(t, rt, seed, "episode seed=%d: %d lineage replays despite replicated metadata", seed, n)
	}
}

// TestChaosPropertyDurability runs the metadata-durability schedule over
// the seeded episode space, once with the kills after a replication barrier
// and once with them racing the DAG: crash a shard primary (then its
// promoted successor), and require zero lost directory entries, zero
// replica divergence, and zero lineage-replay fallbacks every time. Both
// arms share the seed space and the -chaos.seed replay line.
func TestChaosPropertyDurability(t *testing.T) {
	for _, arm := range []struct {
		name     string
		quiesced bool
	}{{"quiesced", true}, {"in-flight", false}} {
		t.Run(arm.name, func(t *testing.T) {
			base := chaos.FlagSeed()
			for ep := 0; ep < chaosEpisodes(); ep++ {
				runDurabilityChaosEpisode(t, base+int64(ep), arm.quiesced)
			}
		})
	}
}
