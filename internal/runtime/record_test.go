package runtime

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"skadi/internal/idgen"
	"skadi/internal/ownership"
	"skadi/internal/raylet"
	"skadi/internal/skaderr"
	"skadi/internal/task"
	"skadi/internal/transport"
)

// TestRecordSurvivesHandoffAndPromotion: an object's producer and its
// failure live on its ownership record, so they travel wherever the record
// goes. Records are handed off (a shard host is decommissioned), then the
// shard that took them is promoted from its replica (its host is killed).
// Killing the only holder of an intermediate then re-derives it from the
// producer its record kept, and a failed task's cause reads the same
// through own.get over the transport, from a ring member that is not the
// driver, as through Get.
func TestRecordSurvivesHandoffAndPromotion(t *testing.T) {
	rt, err := New(ClusterSpec{Servers: 5, ServerSlots: 2, ServerMemBytes: 64 << 20},
		Options{Decentralized: true, Recovery: Recover, GossipInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	rt.Registry.Register("echo", func(_ *task.Context, args [][]byte) ([][]byte, error) {
		return [][]byte{args[0]}, nil
	})
	rt.Registry.Register("boom", func(*task.Context, [][]byte) ([][]byte, error) {
		return nil, errors.New("kernel failed")
	})
	ctx := context.Background()
	workers := rt.workerServers()
	holder := workers[0]

	// Intermediates all held by one node; failures recorded anywhere.
	const n = 64
	var mids, fails []idgen.ObjectID
	for i := 0; i < n; i++ {
		mids = append(mids, rt.SubmitTo(holder, task.NewSpec(rt.Job(), "echo", []task.Arg{task.ValueArg([]byte{byte(i)})}, 1))...)
		fails = append(fails, rt.Submit(task.NewSpec(rt.Job(), "boom", nil, 1))...)
	}
	if _, err := rt.Wait(ctx, mids, len(mids)); err != nil {
		t.Fatal(err)
	}
	rt.Drain()
	owners := func(ids []idgen.ObjectID) map[idgen.ObjectID]idgen.NodeID {
		out := make(map[idgen.ObjectID]idgen.NodeID)
		for _, id := range ids {
			out[id], _ = rt.sharded.OwnerOf(id)
		}
		return out
	}
	all := append(append([]idgen.ObjectID(nil), mids...), fails...)
	before := owners(all)

	// Hand off: the worker (not the holder) owning the most intermediates'
	// records leaves.
	tally := make(map[idgen.NodeID]int)
	for _, id := range mids {
		tally[before[id]]++
	}
	var leaver idgen.NodeID
	for _, w := range workers[1:] {
		if tally[w] > tally[leaver] {
			leaver = w
		}
	}
	if _, err := rt.Decommission(ctx, leaver); err != nil {
		t.Fatal(err)
	}
	handed := owners(all)

	// Promote: kill the worker that took the most of those records.
	tally = make(map[idgen.NodeID]int)
	for _, id := range mids {
		if before[id] == leaver && handed[id] != rt.Driver() && handed[id] != holder {
			tally[handed[id]]++
		}
	}
	var promoted idgen.NodeID
	for node, c := range tally {
		if c > tally[promoted] {
			promoted = node
		}
	}
	if promoted.IsNil() {
		t.Fatal("no handed-off record landed on a killable worker")
	}
	rt.KillNode(promoted)
	if st := rt.sharded.ReplicationStats(); st.Promotions == 0 || st.Lost != 0 {
		t.Fatalf("replication after the kill = %+v, want a promotion and nothing lost", st)
	}
	travelled := func(id idgen.ObjectID) bool { return before[id] == leaver && handed[id] == promoted }

	// The holder dies: every intermediate is re-derived from its record.
	executed := rt.TasksExecuted()
	if lost := rt.KillNode(holder); len(lost) != 0 {
		t.Fatalf("KillNode(holder) judged %d objects lost, want 0", len(lost))
	}
	moved := 0
	for i, id := range mids {
		data, err := rt.Get(ctx, id)
		if err != nil || len(data) != 1 || data[0] != byte(i) {
			t.Fatalf("intermediate %d after its holder died = %v, %v", i, data, err)
		}
		if travelled(id) {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no intermediate's record was both handed off and promoted")
	}
	rt.Drain() // a run counts once its exec RPC returns, after the commit
	if rt.TasksExecuted()-executed < int64(len(mids)) {
		t.Fatalf("re-executed %d tasks, want >= %d", rt.TasksExecuted()-executed, len(mids))
	}

	// A failure reads the same over the wire as through Get.
	reader := workers[len(workers)-1]
	for _, w := range workers {
		if w != leaver && w != promoted && w != holder {
			reader = w
		}
	}
	checked := 0
	for _, id := range fails {
		_, gerr := rt.Get(ctx, id)
		if gerr == nil {
			t.Fatalf("failed task's output %s read fine", id.Short())
		}
		owner, _ := rt.sharded.OwnerOf(id)
		if owner == reader {
			continue
		}
		resp, err := rt.Cluster.Transport.Call(ctx, reader, owner, raylet.KindOwnGet,
			transport.MustEncode(raylet.OwnGetRequest{ID: id}))
		if err != nil {
			t.Fatal(err)
		}
		var got raylet.OwnGetResponse
		if err := transport.Decode(resp, &got); err != nil {
			t.Fatal(err)
		}
		cause := got.Rec.Cause
		if got.Rec.State != ownership.Lost || cause == nil {
			t.Fatalf("own.get of %s = %v with cause %v, want lost with a cause", id.Short(), got.Rec.State, cause)
		}
		if skaderr.CodeOf(cause) != skaderr.CodeOf(gerr) || !strings.HasPrefix(gerr.Error(), cause.Error()) {
			t.Fatalf("own.get cause %q (%v), Get error %q (%v)",
				cause, skaderr.CodeOf(cause), gerr, skaderr.CodeOf(gerr))
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no failure was read over the wire")
	}
}
