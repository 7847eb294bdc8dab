package runtime

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"skadi/internal/caching"
	"skadi/internal/chaos"
	"skadi/internal/idgen"
	"skadi/internal/scheduler"
	"skadi/internal/skaderr"
	"skadi/internal/task"
)

// chaosEpisodes is how many randomized episodes the property test runs.
// The full run is the nightly/soak depth; under the race detector or
// -short the suite keeps a 20-episode subset so CI stays fast.
func chaosEpisodes() int {
	if chaos.RaceEnabled || testing.Short() {
		return 20
	}
	return 200
}

// failEpisode dumps the chaos journal and fails with the replay recipe.
func failEpisode(t *testing.T, rt *Runtime, seed int64, format string, args ...any) {
	t.Helper()
	var sb strings.Builder
	_ = rt.Chaos().WriteJournal(&sb)
	t.Logf("chaos journal (seed=%d):\n%s", seed, sb.String())
	t.Logf("replay: go test ./internal/runtime -run '^%s$' -chaos.seed=%d", strings.ReplaceAll(t.Name(), "/", "$/^"), seed)
	t.Fatalf(format, args...)
}

// runChaosEpisode boots a small cluster placing tasks by policy, arms a
// generated plan, runs a fan-out/fan-in DAG through it, and checks every
// invariant at quiesce. The fault mix is derived from the seed so a
// replayed seed regenerates the identical episode.
func runChaosEpisode(t *testing.T, seed int64, policy scheduler.Policy) {
	rt, err := New(ClusterSpec{
		Servers: 4, ServerSlots: 2, ServerMemBytes: 64 << 20,
	}, Options{Recovery: Recover, TimeScale: 1.0, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	registerSquareAgg(rt, 300*time.Microsecond)
	checker := rt.ChaosChecker()

	_, faultable := rt.ChaosNodes()
	plan := chaos.Generate(seed, chaos.GenConfig{
		Faultable: faultable,
		Window:    3 * time.Millisecond,
		Mix:       chaos.Mix(uint64(seed) % 4),
	})

	aggRefs, _, want := submitFanOutFanIn(rt, 8, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rt.RunPlan(ctx, plan)

	// Every future must resolve: either the correct value, or a typed
	// failure. An untyped error or a wrong value fails the episode.
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
}

// checkResubmissions asserts that no first run executed twice: every
// lineage re-submission in the episode started with its outputs missing.
func checkResubmissions(t *testing.T, rt *Runtime, seed int64) {
	t.Helper()
	if n := rt.Metrics.Counter(MetricRedundantRuns).Value(); n != 0 {
		failEpisode(t, rt, seed, "episode seed=%d: %d of %d lineage re-submissions started while an output was live",
			seed, n, rt.Metrics.Counter(MetricLineageRecoveries).Value())
	}
}

// TestChaosProperty is the randomized stress suite: many short seeded
// episodes of mixed faults (message chaos, partitions, crash/restart
// cycles) over a fan-out/fan-in DAG, with all five invariants checked
// after every episode. On failure it prints the seed and the exact replay
// command. -chaos.seed=N re-runs episode 0 with seed N. The data-locality
// arm places each aggregate only once its leaves exist, so that wait meets
// the kills and the Orphaned arguments they leave.
func TestChaosProperty(t *testing.T) {
	for _, policy := range []scheduler.Policy{scheduler.RoundRobin, scheduler.DataLocality} {
		t.Run(policy.String(), func(t *testing.T) {
			base := chaos.FlagSeed()
			for ep := 0; ep < chaosEpisodes(); ep++ {
				runChaosEpisode(t, base+int64(ep), policy)
				if t.Failed() {
					return
				}
			}
		})
	}
}

// The violation tests below each plant one specific bug and prove the
// matching checker catches it — the checkers are themselves tested code,
// not decoration.

// TestCheckerCatchesOrphanFuture — I1: a pending future with no recorded
// cause (the classic lost-wakeup) must be flagged.
func TestCheckerCatchesOrphanFuture(t *testing.T) {
	rt, err := New(ClusterSpec{Servers: 2, ServerSlots: 1, ServerMemBytes: 32 << 20}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	checker := rt.ChaosChecker()

	orphan := idgen.Next()
	if err := rt.Head.Table.CreatePending(orphan, rt.Driver(), idgen.Nil); err != nil {
		t.Fatal(err)
	}
	vs := checker.Check()
	if len(vs) != 1 || vs[0].Invariant != "I1-futures" {
		t.Fatalf("violations = %v, want exactly one I1", vs)
	}
	// The same future failed with a typed cause on its record is not a
	// violation.
	if err := rt.Head.Table.MarkLost(orphan, skaderr.New(skaderr.Unavailable, "injected: producer crashed")); err != nil {
		t.Fatal(err)
	}
	if vs := checker.Check(); len(vs) != 0 {
		t.Fatalf("explained future still flagged: %v", vs)
	}
}

// TestCheckerCatchesGhostLocation — I2: an ownership record pointing at a
// node that silently lost the bytes must be flagged. With EC 2+1 the
// record is still vouched for while two shards survive, and flagged once
// only one does.
func TestCheckerCatchesGhostLocation(t *testing.T) {
	for _, tc := range []struct {
		name      string
		caching   caching.Config
		keepShard int // shard holders left intact; -1: no EC
	}{
		{"full-copy", caching.Config{}, -1},
		{"ec-2+1", caching.Config{Mode: caching.ModeEC, ECData: 2, ECParity: 1}, 1},
	} {
		rt, err := New(ClusterSpec{Servers: 4, ServerSlots: 1, ServerMemBytes: 32 << 20}, Options{Caching: tc.caching})
		if err != nil {
			t.Fatal(err)
		}
		checker := rt.ChaosChecker()

		node := rt.workerServers()[0]
		id, err := rt.PutAt(node, bytes.Repeat([]byte("payload"), 100), "raw")
		if err != nil {
			t.Fatal(err)
		}
		if vs := checker.Check(); len(vs) != 0 {
			t.Fatalf("%s: clean placement flagged: %v", tc.name, vs)
		}
		// Delete the bytes behind the ownership table's back.
		if err := rt.Layer.Store(node).Delete(id); err != nil {
			t.Fatal(err)
		}
		if tc.keepShard >= 0 {
			if vs := checker.Check(); len(vs) != 0 {
				t.Fatalf("%s: three shards survive, yet flagged: %v", tc.name, vs)
			}
			// Every other store key is a shard: keep keepShard holders.
			holders := 0
			for _, n := range rt.Cluster.Nodes() {
				st := rt.Layer.Store(n.ID)
				if st == nil || st.Len() == 0 {
					continue
				}
				if holders++; holders > tc.keepShard {
					for _, key := range st.List() {
						_ = st.Delete(key)
					}
				}
			}
			if holders != 3 {
				t.Fatalf("%s: %d stores hold shards, want 3", tc.name, holders)
			}
		}
		vs := checker.Check()
		if len(vs) != 1 || vs[0].Invariant != "I2-ownership" {
			t.Errorf("%s: violations = %v, want exactly one I2", tc.name, vs)
		}
		rt.Shutdown()
	}
}

// TestCheckerCatchesLeakedFreeze — I3: an actor a migration holds frozen
// must be flagged, and the flag must clear once the migration ends. A
// running actor call keeps the migration waiting with the gate up.
func TestCheckerCatchesLeakedFreeze(t *testing.T) {
	rt, err := New(ClusterSpec{Servers: 2, ServerSlots: 2, ServerMemBytes: 32 << 20}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	registerCounter(rt)
	started, release := make(chan struct{}), make(chan struct{})
	registerBlocker(rt, "block", started, release)
	checker := rt.ChaosChecker()

	workers := rt.workerServers()
	actor, err := rt.CreateActorOn(workers[0], "cpu")
	if err != nil {
		t.Fatal(err)
	}
	if got := count(t, rt, actor); got != 1 {
		t.Fatalf("count = %d", got)
	}
	spec := task.NewSpec(rt.Job(), "block", nil, 1)
	spec.Actor = actor
	ref := rt.Submit(spec)[0]
	<-started

	ctx := context.Background()
	migrated := make(chan error, 1)
	go func() {
		_, err := rt.MigrateActor(ctx, actor, workers[1])
		migrated <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); rt.Raylet(workers[0]).MigrationHygiene().FrozenActors == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the migration never raised the source's gate")
		}
		time.Sleep(time.Millisecond)
	}
	found := false
	for _, v := range checker.Check() {
		if v.Invariant == "I3-migration" {
			found = true
		}
	}
	if !found {
		t.Fatal("a frozen actor was not flagged as an I3 violation")
	}

	close(release)
	if err := <-migrated; err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Get(ctx, ref); err != nil {
		t.Fatal(err)
	}
	rt.Drain()
	if vs := checker.Check(); len(vs) != 0 {
		t.Fatalf("finished migration still flagged: %v", vs)
	}
}

// TestCheckerCatchesGoroutineLeak — I4: goroutines that outlive the
// episode must be flagged, and the flag must clear once they exit.
func TestCheckerCatchesGoroutineLeak(t *testing.T) {
	rt, err := New(ClusterSpec{Servers: 2, ServerSlots: 1, ServerMemBytes: 32 << 20}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	checker := rt.ChaosChecker()

	release := make(chan struct{})
	const leaked = 16 // comfortably above the checker's slack
	for i := 0; i < leaked; i++ {
		go func() { <-release }()
	}
	vs := checker.Check() // polls ~2s before conceding the leak is real
	if len(vs) != 1 || vs[0].Invariant != "I4-goroutines" {
		close(release)
		t.Fatalf("violations = %v, want exactly one I4", vs)
	}
	close(release)
	if vs := checker.Check(); len(vs) != 0 {
		t.Fatalf("released goroutines still flagged: %v", vs)
	}
}

// TestCheckerCatchesAccountingHole — I5: a message the engine saw
// attempted but no transport outcome accounted for must be flagged.
func TestCheckerCatchesAccountingHole(t *testing.T) {
	rt, err := New(ClusterSpec{Servers: 2, ServerSlots: 1, ServerMemBytes: 32 << 20}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	rt.Drain()
	checker := rt.ChaosChecker()
	if vs := checker.Check(); len(vs) != 0 {
		t.Fatalf("quiesced runtime flagged: %v", vs)
	}

	nodes, _ := rt.ChaosNodes()
	hole := rt.Chaos().Intercept(nodes[0], nodes[1], "test.hole", 4096)
	vs := checker.Check()
	if len(vs) != 1 || vs[0].Invariant != "I5-accounting" {
		t.Fatalf("violations = %v, want exactly one I5", vs)
	}
	rt.Chaos().Undeliverable(hole, nodes[0], nodes[1], "test.hole", 4096)
	if vs := checker.Check(); len(vs) != 0 {
		t.Fatalf("balanced accounting still flagged: %v", vs)
	}
}

// TestRedundantRunsCatchesLiveResubmission: a re-submission of a task
// whose output is still live — a first run executed twice — is counted,
// and one whose output is gone is not.
func TestRedundantRunsCatchesLiveResubmission(t *testing.T) {
	rt := newRuntime(t, Options{Recovery: Recover})
	spec := task.NewSpec(rt.Job(), "add", []task.Arg{task.ValueArg([]byte("1"))}, 1)
	ref := rt.Submit(spec)[0]
	if _, err := rt.Get(context.Background(), ref); err != nil {
		t.Fatal(err)
	}
	rt.Drain()
	redundant := rt.Metrics.Counter(MetricRedundantRuns)
	rt.start(context.Background(), idgen.Nil, spec, true)
	rt.Drain()
	if n := redundant.Value(); n != 1 {
		t.Fatalf("redundant runs after re-submitting a live task = %d, want 1", n)
	}
	rt.Free(ref)
	rt.start(context.Background(), idgen.Nil, spec, true)
	rt.Drain()
	if n := redundant.Value(); n != 1 {
		t.Fatalf("redundant runs after re-submitting a freed task = %d, want still 1", n)
	}
}
