package runtime

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"skadi/internal/chaos"
	"skadi/internal/idgen"
	"skadi/internal/scheduler"
	"skadi/internal/task"
)

// newMigrateRuntime boots a worker-only cluster (no GPUs, no mem blade) so
// migration tests control placement precisely.
func newMigrateRuntime(t *testing.T, servers int) *Runtime {
	t.Helper()
	rt, err := New(ClusterSpec{
		Servers: servers, ServerSlots: 4, ServerMemBytes: 64 << 20,
	}, Options{Policy: scheduler.RoundRobin, Recovery: Recover})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt
}

func TestMigrateActorStateContinuity(t *testing.T) {
	rt := newMigrateRuntime(t, 3)
	registerCounter(rt)

	workers := rt.workerServers()
	src, dst := workers[0], workers[1]
	actor, err := rt.CreateActorOn(src, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if got := count(t, rt, actor); got != i {
			t.Fatalf("pre-migration count %d = %d", i, got)
		}
	}

	rep, err := rt.MigrateActor(context.Background(), actor, dst)
	if err != nil {
		t.Fatal(err)
	}
	if rep.From != src || rep.To != dst {
		t.Errorf("report route %s→%s, want %s→%s", rep.From.Short(), rep.To.Short(), src.Short(), dst.Short())
	}
	if rep.Bytes == 0 {
		t.Error("actor state transfer reported zero bytes")
	}
	if node, _ := rt.ActorNode(actor); node != dst {
		t.Errorf("actor pinned to %s, want %s", node.Short(), dst.Short())
	}
	// The counter continues exactly where it left off: the state shipped,
	// not a checkpoint.
	for i := 6; i <= 10; i++ {
		if got := count(t, rt, actor); got != i {
			t.Fatalf("post-migration count %d = %d", i, got)
		}
	}
}

// TestMigrateActorRedirectsStaleDispatch drives a submission through the
// source raylet's tombstone after cutover: the dispatch layer must follow
// the redirect rather than fail the task.
func TestMigrateActorRedirectsStaleDispatch(t *testing.T) {
	rt := newMigrateRuntime(t, 3)
	registerCounter(rt)

	workers := rt.workerServers()
	actor, err := rt.CreateActorOn(workers[0], "cpu")
	if err != nil {
		t.Fatal(err)
	}
	// Bounce the actor around the fleet; every hop leaves a tombstone and
	// every count() must land on the current home.
	n := 0
	for hop := 0; hop < 6; hop++ {
		n++
		if got := count(t, rt, actor); got != n {
			t.Fatalf("hop %d: count = %d, want %d", hop, got, n)
		}
		dst := workers[(hop+1)%len(workers)]
		if _, err := rt.MigrateActor(context.Background(), actor, dst); err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
	}
	migratedIn := 0
	for _, rl := range rt.Raylets() {
		migratedIn += int(rl.Stats().ActorsMigratedIn)
	}
	if migratedIn != 6 {
		t.Errorf("ActorsMigratedIn total = %d, want 6", migratedIn)
	}
}

// TestConcurrentGetDuringObjectMigration races readers against a migrating
// object: every Get must resolve — possibly via the source's tombstone
// forward — and return the exact payload. Run under -race.
func TestConcurrentGetDuringObjectMigration(t *testing.T) {
	rt := newMigrateRuntime(t, 3)
	rt.Registry.Register("blob", func(_ *task.Context, args [][]byte) ([][]byte, error) {
		out := make([]byte, 32<<10)
		for i := range out {
			out[i] = args[0][0]
		}
		return [][]byte{out}, nil
	})

	workers := rt.workerServers()
	spec := task.NewSpec(rt.Job(), "blob", []task.Arg{task.ValueArg([]byte("x"))}, 1)
	id := rt.SubmitTo(workers[0], spec)[0]
	want, err := rt.Get(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	rt.Drain()
	// The driver holds a copy after the Get above; evict it so readers must
	// chase the migrating copy.
	if store := rt.Layer.Store(rt.driver); store != nil {
		_ = store.Delete(id)
		rt.Layer.ForgetLocation(rt.driver, id)
	}

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				data, err := rt.Get(context.Background(), id)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(data, want) {
					errs <- context.DeadlineExceeded // sentinel; payload mismatch
					return
				}
				// Readers cache a driver copy; evict it again so the next
				// iteration goes back over the fabric.
				if store := rt.Layer.Store(rt.driver); store != nil {
					_ = store.Delete(id)
					rt.Layer.ForgetLocation(rt.driver, id)
				}
			}
		}()
	}
	for hop := 0; hop < 16; hop++ {
		from := workers[hop%2]
		to := workers[(hop+1)%2]
		if _, err := rt.MigrateObject(context.Background(), id, from, to); err != nil {
			t.Fatalf("hop %d %s→%s: %v", hop, from.Short(), to.Short(), err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("reader failed mid-migration: %v", err)
	}
	follows := int64(0)
	for _, rl := range rt.Raylets() {
		follows += rl.Stats().ObjectsMigratedOut
	}
	if follows == 0 {
		t.Error("no object migrations recorded on any raylet")
	}
}

func TestDecommissionStopsNodeAndPreservesData(t *testing.T) {
	rt := newMigrateRuntime(t, 4)
	registerCounter(rt)
	rt.Registry.Register("echo14", func(_ *task.Context, args [][]byte) ([][]byte, error) {
		return [][]byte{args[0]}, nil
	})

	workers := rt.workerServers()
	victim := workers[len(workers)-1]
	actor, err := rt.CreateActorOn(victim, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		count(t, rt, actor)
	}
	var refs []idgen.ObjectID
	for i := 0; i < 5; i++ {
		spec := task.NewSpec(rt.Job(), "echo14", []task.Arg{task.ValueArg([]byte{byte('a' + i)})}, 1)
		refs = append(refs, rt.SubmitTo(victim, spec)[0])
	}
	rt.Drain()

	rep, err := rt.Decommission(context.Background(), victim)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ActorsMoved != 1 {
		t.Errorf("ActorsMoved = %d, want 1", rep.ActorsMoved)
	}
	if rep.ObjectsMoved == 0 || rep.BytesMoved == 0 {
		t.Errorf("drain moved %d objects / %d bytes, want > 0", rep.ObjectsMoved, rep.BytesMoved)
	}

	// The node is actually gone: no raylet, not schedulable, cluster node
	// dead, caching layer detached.
	for _, rl := range rt.Raylets() {
		if rl.Node() == victim {
			t.Error("victim raylet still registered after Decommission")
		}
	}
	for _, n := range rt.workerServers() {
		if n == victim {
			t.Error("victim still listed as worker server")
		}
	}
	if n := rt.Cluster.Node(victim); n != nil && n.Alive() {
		t.Error("victim cluster node still alive")
	}
	if _, err := rt.Decommission(context.Background(), victim); err == nil {
		t.Error("second Decommission should fail: node is gone")
	}

	// Data and actor state both survived the shrink.
	for i, ref := range refs {
		data, err := rt.Get(context.Background(), ref)
		if err != nil || len(data) != 1 || data[0] != byte('a'+i) {
			t.Errorf("object %d after drain: %q, %v", i, data, err)
		}
	}
	if got := count(t, rt, actor); got != 4 {
		t.Errorf("counter after drain = %d, want 4", got)
	}
	if node, _ := rt.ActorNode(actor); node == victim {
		t.Error("actor still pinned to decommissioned node")
	}
}

// TestMigrateNeverRanActorPreservesCheckpoint covers the failover/drain
// interleaving: an actor runs (and checkpoints) at A, A dies and the actor
// is re-pinned to B, and B is migrated away from before the actor's next
// task runs there. The actor never executed at B, so the migration must
// not ship B's nonexistent state as if it were real — the actor's first
// task at the final destination has to restore the head checkpoint, not
// start over from empty state.
func TestMigrateNeverRanActorPreservesCheckpoint(t *testing.T) {
	rt := newMigrateRuntime(t, 4)
	registerCounter(rt)

	workers := rt.workerServers()
	src := workers[0]
	actor, err := rt.CreateActorOn(src, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if got := count(t, rt, actor); got != i {
			t.Fatalf("pre-failure count %d = %d", i, got)
		}
	}

	// Node failure re-pins the actor onto a healthy node; no task runs
	// there before the drain below.
	rt.KillNode(src)
	mid, ok := rt.ActorNode(actor)
	if !ok || mid == src {
		t.Fatalf("actor not re-placed after kill: %v on %s", ok, mid.Short())
	}

	var dst idgen.NodeID
	for _, w := range rt.workerServers() {
		if w != mid && w != src {
			dst = w
			break
		}
	}
	if dst.IsNil() {
		t.Fatal("no destination worker available")
	}
	rep, err := rt.MigrateActor(context.Background(), actor, dst)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bytes != 0 {
		t.Errorf("never-ran actor shipped %d bytes of phantom state", rep.Bytes)
	}
	if node, _ := rt.ActorNode(actor); node != dst {
		t.Fatalf("actor pinned to %s, want %s", node.Short(), dst.Short())
	}

	// First task at the destination: checkpoint restore must still fire.
	if got := count(t, rt, actor); got != 4 {
		t.Errorf("count after migrating never-ran actor = %d, want 4 (checkpoint lost)", got)
	}
	if got := count(t, rt, actor); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
}

// TestMigrateActorRollback fails the transfer (dead destination) and checks
// the actor resumes at the source instead of wedging behind the freeze.
func TestMigrateActorRollback(t *testing.T) {
	rt := newMigrateRuntime(t, 3)
	registerCounter(rt)

	workers := rt.workerServers()
	src, dst := workers[0], workers[1]
	actor, err := rt.CreateActorOn(src, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		count(t, rt, actor)
	}

	rt.Cluster.Kill(dst) // destination unreachable, raylet still registered
	if _, err := rt.MigrateActor(context.Background(), actor, dst); err == nil {
		t.Fatal("MigrateActor to a dead node should fail")
	}
	if node, _ := rt.ActorNode(actor); node != src {
		t.Errorf("actor moved to %s despite failed migration", node.Short())
	}
	// The rollback lifted the freeze: the actor serves again at the source.
	if got := count(t, rt, actor); got != 4 {
		t.Errorf("counter after rollback = %d, want 4", got)
	}
}

func TestSampleNodeGaugesAndRebalance(t *testing.T) {
	rt := newMigrateRuntime(t, 3)
	rt.Registry.Register("blob", func(_ *task.Context, args [][]byte) ([][]byte, error) {
		out := make([]byte, 64<<10)
		for i := range out {
			out[i] = args[0][0]
		}
		return [][]byte{out}, nil
	})

	workers := rt.workerServers()
	hot := workers[0]
	var ids []idgen.ObjectID
	for i := 0; i < 8; i++ {
		spec := task.NewSpec(rt.Job(), "blob", []task.Arg{task.ValueArg([]byte{byte(i)})}, 1)
		ids = append(ids, rt.SubmitTo(hot, spec)[0])
	}
	rt.Drain()

	loads := rt.SampleNodeGauges()
	if len(loads) != len(workers) {
		t.Fatalf("sampled %d nodes, want %d", len(loads), len(workers))
	}
	var hotLoad *scheduler.NodeLoad
	for i := range loads {
		if loads[i].ID == hot {
			hotLoad = &loads[i]
		}
	}
	if hotLoad == nil || hotLoad.ResidentBytes < 8*(64<<10) {
		t.Fatalf("hot node load = %+v", hotLoad)
	}
	if v := rt.Metrics.GaugeVec(GaugeResidentBytes).Values()[hot.Short()]; v != hotLoad.ResidentBytes {
		t.Errorf("gauge %s{%s} = %d, want %d", GaugeResidentBytes, hot.Short(), v, hotLoad.ResidentBytes)
	}

	moves, err := rt.Rebalance(context.Background(), scheduler.RebalanceConfig{HotFactor: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 {
		t.Fatal("rebalance planned no moves off the hot node")
	}
	after := rt.SampleNodeGauges()
	for _, l := range after {
		if l.ID == hot && l.ResidentBytes >= hotLoad.ResidentBytes {
			t.Errorf("hot node still holds %d bytes (was %d)", l.ResidentBytes, hotLoad.ResidentBytes)
		}
	}
	// Every object is still readable from wherever it landed.
	for i, id := range ids {
		data, err := rt.Get(context.Background(), id)
		if err != nil || len(data) != 64<<10 || data[0] != byte(i) {
			t.Errorf("object %d after rebalance: len=%d err=%v", i, len(data), err)
		}
	}
}

// A partitioned-away node must never be a rebalance spill target: bytes
// migrated onto it would strand behind the partition.
func TestRebalanceSkipsPartitionedNode(t *testing.T) {
	rt := newMigrateRuntime(t, 3)
	rt.Registry.Register("blob", func(_ *task.Context, args [][]byte) ([][]byte, error) {
		out := make([]byte, 64<<10)
		for i := range out {
			out[i] = args[0][0]
		}
		return [][]byte{out}, nil
	})

	workers := rt.workerServers()
	hot, parted := workers[0], workers[1]
	for i := 0; i < 8; i++ {
		spec := task.NewSpec(rt.Job(), "blob", []task.Arg{task.ValueArg([]byte{byte(i)})}, 1)
		rt.SubmitTo(hot, spec)
	}
	rt.Drain()

	rt.InstallPlan(&chaos.Plan{Seed: 1})
	defer rt.HealChaos()
	rt.Chaos().Partition([]idgen.NodeID{parted})

	var partedLoad *scheduler.NodeLoad
	loads := rt.SampleNodeGauges()
	for i := range loads {
		if loads[i].ID == parted {
			partedLoad = &loads[i]
		}
	}
	if partedLoad == nil || !partedLoad.Unreachable {
		t.Fatalf("partitioned node load = %+v, want Unreachable", partedLoad)
	}
	moves, err := rt.Rebalance(context.Background(), scheduler.RebalanceConfig{HotFactor: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 {
		t.Fatal("rebalance planned no moves off the hot node")
	}
	for _, mv := range moves {
		if mv.To == parted || mv.From == parted {
			t.Errorf("plan touches partitioned node: %v", mv)
		}
	}
}
