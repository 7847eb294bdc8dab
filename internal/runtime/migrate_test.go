package runtime

import (
	"bytes"
	"context"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skadi/internal/chaos"
	"skadi/internal/idgen"
	"skadi/internal/raylet"
	"skadi/internal/scheduler"
	"skadi/internal/task"
	"skadi/internal/transport"
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

// TestMigrateActorRedirectsStaleDispatch bounces the actor around the
// fleet: every call must land on the home its record names, and no node it
// left may still serve it.
func TestMigrateActorRedirectsStaleDispatch(t *testing.T) {
	rt := newMigrateRuntime(t, 3)
	registerCounter(rt)

	workers := rt.workerServers()
	actor, err := rt.CreateActorOn(workers[0], "cpu")
	if err != nil {
		t.Fatal(err)
	}
	// Bounce the actor around the fleet; every count() must land on the
	// current home.
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

// TestConcurrentGetDuringObjectMigration races readers against an object
// that ping-pongs between two workers 16 times: every Get must resolve —
// a reader whose location went stale reads the record again — and return
// the exact payload. Run under -race.
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

// TestMigrateObjectRefusedByDestinationKeepsSource: a destination whose
// store cannot hold the object refuses the push. The move must fail before
// the source lets go: the record keeps naming the source, the source keeps
// the bytes, and a Get reads them without re-running the producer.
func TestMigrateObjectRefusedByDestinationKeepsSource(t *testing.T) {
	rt := newMigrateRuntime(t, 2)
	var runs atomic.Int64
	rt.Registry.Register("blob32k", func(_ *task.Context, args [][]byte) ([][]byte, error) {
		runs.Add(1)
		return [][]byte{bytes.Repeat(args[0], 32<<10)}, nil
	})
	src := rt.workerServers()[0]
	tiny, err := rt.ScaleUp(1, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	spec := task.NewSpec(rt.Job(), "blob32k", []task.Arg{task.ValueArg([]byte{7})}, 1)
	id := rt.SubmitTo(src, spec)[0]
	rt.Drain() // the driver never reads the output: worker 0 holds the only copy

	rep, err := rt.MigrateObject(context.Background(), id, src, tiny)
	if err == nil {
		t.Fatalf("migration onto a 1 KiB store succeeded: %+v", rep)
	}
	rec, err := rt.Head.Table.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Locations) != 1 || rec.Locations[0] != src {
		t.Errorf("record names %v after a refused move, want [%s]", rec.Locations, src.Short())
	}
	data, err := rt.Get(context.Background(), id)
	if err != nil {
		t.Fatalf("Get after a refused move: %v", err)
	}
	if !bytes.Equal(data, bytes.Repeat([]byte{7}, 32<<10)) {
		t.Errorf("Get returned %d wrong bytes", len(data))
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("producer ran %d times, want 1 (no re-execution)", n)
	}
}

// TestDecommissionTriesNextTargetWhenOneRefuses: a drain target whose
// store has no room refuses each object it is offered; the drain moves the
// object to the next target instead of stopping, and the node is removed.
func TestDecommissionTriesNextTargetWhenOneRefuses(t *testing.T) {
	rt := newMigrateRuntime(t, 2)
	var runs atomic.Int64
	rt.Registry.Register("blob32k", func(_ *task.Context, args [][]byte) ([][]byte, error) {
		runs.Add(1)
		return [][]byte{bytes.Repeat(args[0], 32<<10)}, nil
	})
	victim := rt.workerServers()[0]
	if _, err := rt.ScaleUp(1, 1<<10); err != nil {
		t.Fatal(err)
	}
	var ids []idgen.ObjectID
	for b := byte(1); b <= 4; b++ {
		spec := task.NewSpec(rt.Job(), "blob32k", []task.Arg{task.ValueArg([]byte{b})}, 1)
		ids = append(ids, rt.SubmitTo(victim, spec)[0])
	}
	rt.Drain() // the driver never reads the outputs: the victim holds the only copies

	rep, err := rt.Decommission(context.Background(), victim)
	if err != nil {
		t.Fatalf("Decommission: %v", err)
	}
	if rep.ObjectsMoved != 4 {
		t.Errorf("drain moved %d objects, want 4", rep.ObjectsMoved)
	}
	for _, rl := range rt.Raylets() {
		if rl.Node() == victim {
			t.Error("victim raylet still registered after Decommission")
		}
	}
	for i, id := range ids {
		data, err := rt.Get(context.Background(), id)
		if err != nil || !bytes.Equal(data, bytes.Repeat([]byte{byte(i + 1)}, 32<<10)) {
			t.Errorf("Get(output %d) after the drain = %d bytes, %v", i, len(data), err)
		}
	}
	if n := runs.Load(); n != 4 {
		t.Errorf("producers ran %d times, want 4 (no re-execution)", n)
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

// scriptedFaults is a transport interposer that scripts two faults: it
// drops the first message of kind drop, and holds the first message of kind
// hold until release is closed, closing held when that message arrives.
// Every other message passes.
type scriptedFaults struct {
	drop, hold      string
	held, release   chan struct{}
	dropped, caught atomic.Bool
}

func (s *scriptedFaults) Intercept(_, _ idgen.NodeID, kind string, _ int) transport.Verdict {
	if kind == s.drop && s.dropped.CompareAndSwap(false, true) {
		return transport.Verdict{Drop: true}
	}
	if kind == s.hold && s.caught.CompareAndSwap(false, true) {
		close(s.held)
		<-s.release
	}
	return transport.Verdict{}
}

func (*scriptedFaults) Delivered(transport.Verdict, idgen.NodeID, idgen.NodeID, string, int)     {}
func (*scriptedFaults) Undeliverable(transport.Verdict, idgen.NodeID, idgen.NodeID, string, int) {}

// TestLostMigrationMessageNeverWedgesActor drops the first message of one
// RPC kind the actor protocol sends, from the moment MigrateActor starts.
// A migration sends migrate.transfer, migrate.install and actor.move once
// each, so their drop fails that step; actor.restore is the record read of
// the first call after the move. Whether or not the migration committed,
// the actor keeps serving: the next call returns the next value within
// 2 s, the one after it the value after that (no call ran twice), and
// Shutdown returns.
func TestLostMigrationMessageNeverWedgesActor(t *testing.T) {
	for _, kind := range []string{raylet.KindMigrateTransfer, raylet.KindMigrateInstall, raylet.KindActorMove, raylet.KindActorRestore} {
		t.Run(kind, func(t *testing.T) {
			rt, err := New(ClusterSpec{Servers: 3, ServerSlots: 2, ServerMemBytes: 32 << 20},
				Options{Policy: scheduler.RoundRobin})
			if err != nil {
				t.Fatal(err)
			}
			// A wedged runtime can hang Shutdown; fail instead of hanging.
			defer func() {
				done := make(chan struct{})
				go func() { rt.Shutdown(); close(done) }()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Error("Shutdown did not return")
				}
			}()
			registerCounter(rt)
			workers := rt.workerServers()
			actor, err := rt.CreateActorOn(workers[0], "cpu")
			if err != nil {
				t.Fatal(err)
			}
			call := func() (int, error) {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				spec := task.NewSpec(rt.Job(), "counter", nil, 1)
				spec.Actor = actor
				data, err := rt.Get(ctx, rt.Submit(spec)[0])
				if err != nil {
					return 0, err
				}
				return strconv.Atoi(string(data))
			}
			for want := 1; want <= 2; want++ {
				if n, err := call(); err != nil || n != want {
					t.Fatalf("call %d before the migration = %d, %v", want, n, err)
				}
			}

			faults := &scriptedFaults{drop: kind}
			rt.Cluster.Transport.SetInterposer(faults)
			_, merr := rt.MigrateActor(context.Background(), actor, workers[1])
			t.Logf("MigrateActor with the first %s dropped: %v", kind, merr)

			for want := 3; want <= 4; want++ {
				if n, err := call(); err != nil || n != want {
					t.Fatalf("call %d after the migration = %d, %v; want %d within 2 s", want, n, err, want)
				}
			}
			if !faults.dropped.Load() {
				t.Errorf("no %s was sent", kind)
			}
		})
	}
}

// TestParkedCallAcrossMoveAndBackRunsAlone: the actor moves X→Y and back
// to X while a call that parked at X's gate is held inside its record read
// (actor.restore). The move back installs a new entry at X, and a second
// call starts on it. The held call, whose read then names X, must not run
// on the entry it made before the move back, beside the second call under
// another lock: the two calls return distinct counter values.
func TestParkedCallAcrossMoveAndBackRunsAlone(t *testing.T) {
	rt := newMigrateRuntime(t, 2)
	registerCounter(rt)
	started, release := make(chan struct{}, 4), make(chan struct{}, 4)
	rt.Registry.Register("hold", func(tctx *task.Context, _ [][]byte) ([][]byte, error) {
		n, _ := strconv.Atoi(string(tctx.ActorState["n"]))
		n++
		tctx.ActorState["n"] = []byte(strconv.Itoa(n))
		started <- struct{}{}
		<-release
		return [][]byte{[]byte(strconv.Itoa(n))}, nil
	})
	faults := &scriptedFaults{hold: raylet.KindActorRestore, held: make(chan struct{}), release: make(chan struct{})}
	var unhold sync.Once
	t.Cleanup(func() {
		unhold.Do(func() { close(faults.release) })
		close(release)
	})
	w := rt.workerServers()
	x, y := w[0], w[1]
	actor, err := rt.CreateActorOn(x, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	submit := func(fn string) idgen.ObjectID {
		spec := task.NewSpec(rt.Job(), fn, nil, 1)
		spec.Actor = actor
		return rt.Submit(spec)[0]
	}
	value := func(ctx context.Context, ref idgen.ObjectID) (int, error) {
		data, err := rt.Get(ctx, ref)
		if err != nil {
			return 0, err
		}
		return strconv.Atoi(string(data))
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	ctx := context.Background()

	// Call A runs at X and holds the actor while the move X→Y raises X's
	// gate; call B is sent to X behind it.
	first := submit("hold")
	<-started
	rt.Cluster.Transport.SetInterposer(faults)
	moved := make(chan error, 1)
	go func() {
		_, err := rt.MigrateActor(ctx, actor, y)
		moved <- err
	}()
	waitFor("X's gate", func() bool { return rt.Raylet(x).MigrationHygiene().FrozenActors == 1 })
	parked := submit("counter")
	waitFor("call B placed on X", func() bool { return rt.Sched.Inflight(x) == 2 })
	release <- struct{}{}
	if n, err := value(ctx, first); err != nil || n != 1 {
		t.Fatalf("call A = %d, %v; want 1", n, err)
	}
	if err := <-moved; err != nil {
		t.Fatalf("move X→Y: %v", err)
	}

	// B woke at X after the move and now waits on its record read.
	select {
	case <-faults.held:
	case <-time.After(5 * time.Second):
		t.Fatal("call B never read the actor's record at X")
	}
	if _, err := rt.MigrateActor(ctx, actor, x); err != nil {
		t.Fatalf("move Y→X: %v", err)
	}
	second := submit("hold")
	<-started
	unhold.Do(func() { close(faults.release) })
	// B's record read now names X. Give B time to finish if it runs beside
	// the second call; it must not.
	bctx, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
	nb, errB := value(bctx, parked)
	cancel()
	release <- struct{}{}
	nc, err := value(ctx, second)
	if err != nil {
		t.Fatal(err)
	}
	if errB != nil {
		if nb, errB = value(ctx, parked); errB != nil {
			t.Fatal(errB)
		}
	}
	if nb == nc || nb+nc != 5 {
		t.Fatalf("calls B and C returned %d and %d, want 2 and 3 in some order", nb, nc)
	}
	if got := count(t, rt, actor); got != 4 {
		t.Errorf("count after the moves = %d, want 4", got)
	}
}

// TestActorCallsRunOnceAcrossMoves: calls flow without pause while the
// actor moves a→b→c and while two migrations race to different targets.
// Every call runs exactly once and sees every earlier update — the counter
// values are 1..N, none missing or repeated — at most one of the racing
// migrations commits, and no node the actor left keeps an entry for it.
func TestActorCallsRunOnceAcrossMoves(t *testing.T) {
	rt := newMigrateRuntime(t, 5)
	registerCounter(rt)
	started, release := make(chan struct{}), make(chan struct{})
	rt.Registry.Register("slowcount", func(tctx *task.Context, _ [][]byte) ([][]byte, error) {
		n, _ := strconv.Atoi(string(tctx.ActorState["n"]))
		n++
		tctx.ActorState["n"] = []byte(strconv.Itoa(n))
		close(started)
		<-release
		return [][]byte{[]byte(strconv.Itoa(n))}, nil
	})
	w := rt.workerServers()
	actor, err := rt.CreateActorOn(w[0], "cpu")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var mu sync.Mutex
	var values []int
	record := func(data []byte) {
		n, _ := strconv.Atoi(string(data))
		mu.Lock()
		values = append(values, n)
		mu.Unlock()
	}
	seen := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(values)
	}
	// Two submitters keep a window of four calls each in flight.
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var refs []idgen.ObjectID
				for i := 0; i < 4; i++ {
					spec := task.NewSpec(rt.Job(), "counter", nil, 1)
					spec.Actor = actor
					refs = append(refs, rt.Submit(spec)[0])
				}
				for _, ref := range refs {
					data, err := rt.Get(ctx, ref)
					if err != nil {
						errs <- err
						return
					}
					record(data)
				}
			}
		}()
	}
	waitCalls := func(n int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); seen() < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("calls stalled at %d, want %d", seen(), n)
			}
		}
	}

	// a→b→c, with calls in flight across each move.
	for i, to := range []idgen.NodeID{w[1], w[2]} {
		waitCalls(8 * (i + 1))
		if _, err := rt.MigrateActor(ctx, actor, to); err != nil {
			t.Fatalf("move to %s: %v", to.Short(), err)
		}
	}

	// Two migrations race from c. A running call holds the actor, so
	// neither can commit before it ends: the loser fails while the winner
	// still waits.
	waitCalls(24)
	slow := task.NewSpec(rt.Job(), "slowcount", nil, 1)
	slow.Actor = actor
	slowRef := rt.Submit(slow)[0]
	<-started
	results := make(chan error, 2)
	for _, to := range []idgen.NodeID{w[3], w[4]} {
		go func() {
			_, err := rt.MigrateActor(ctx, actor, to)
			results <- err
		}()
	}
	select {
	case err := <-results:
		if err == nil {
			t.Error("a racing migration committed while the actor was busy")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("neither racing migration returned while the actor was busy")
	}
	close(release)
	if err := <-results; err != nil {
		t.Errorf("the other racing migration failed too: %v", err)
	}
	data, err := rt.Get(ctx, slowRef)
	if err != nil {
		t.Fatal(err)
	}
	record(data)
	waitCalls(seen() + 8)
	close(stop)
	wg.Wait()
	rt.Drain()
	close(errs)
	for err := range errs {
		t.Fatalf("a call failed across the moves: %v", err)
	}

	sort.Ints(values)
	for i, n := range values {
		if n != i+1 {
			t.Fatalf("counter values %v…: value %d at position %d, want 1..%d with none missing or repeated",
				values[max(0, i-3):i+1], n, i, len(values))
		}
	}
	if got := count(t, rt, actor); got != len(values)+1 {
		t.Errorf("count after the moves = %d, want %d", got, len(values)+1)
	}
	home, _ := rt.ActorNode(actor)
	for _, rl := range rt.Raylets() {
		if h := rl.MigrationHygiene(); rl.Node() != home && h.Actors != 0 {
			t.Errorf("node %s keeps %d actor entries after the actor left", rl.Node().Short(), h.Actors)
		}
	}
}
