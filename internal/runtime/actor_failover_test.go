package runtime

import (
	"context"
	"errors"
	"strconv"
	"testing"

	"skadi/internal/idgen"
	"skadi/internal/ownership"
	"skadi/internal/task"
)

// registerCounter installs an actor function incrementing a counter in
// actor state.
func registerCounter(rt *Runtime) {
	rt.Registry.Register("counter", func(tctx *task.Context, _ [][]byte) ([][]byte, error) {
		n, _ := strconv.Atoi(string(tctx.ActorState["n"]))
		n++
		tctx.ActorState["n"] = []byte(strconv.Itoa(n))
		return [][]byte{[]byte(strconv.Itoa(n))}, nil
	})
}

// count runs one counter task on the actor and returns the value.
func count(t *testing.T, rt *Runtime, actor [16]byte) int {
	t.Helper()
	spec := task.NewSpec(rt.Job(), "counter", nil, 1)
	spec.Actor = actor
	refs := rt.Submit(spec)
	data, err := rt.Get(context.Background(), refs[0])
	if err != nil {
		t.Fatal(err)
	}
	n, err := strconv.Atoi(string(data))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestActorStateSurvivesNodeKill(t *testing.T) {
	rt, err := New(ClusterSpec{
		Servers: 3, ServerSlots: 2, ServerMemBytes: 64 << 20,
	}, Options{Recovery: Recover})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	registerCounter(rt)

	actor, err := rt.CreateActor("cpu")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if got := count(t, rt, actor); got != i {
			t.Fatalf("count %d = %d", i, got)
		}
	}
	home, ok := rt.ActorNode(actor)
	if !ok {
		t.Fatal("actor has no node")
	}

	// Kill the actor's node: the actor must be re-placed and its state
	// restored from the last checkpoint.
	rt.KillNode(home)
	newHome, ok := rt.ActorNode(actor)
	if !ok || newHome == home {
		t.Fatalf("actor not re-placed: %v on %v", ok, newHome)
	}
	if got := count(t, rt, actor); got != 6 {
		t.Errorf("count after failover = %d, want 6 (state restored)", got)
	}
	if got := count(t, rt, actor); got != 7 {
		t.Errorf("count = %d, want 7", got)
	}
}

// TestKillNodeDoesNotReapplyActorTasks: results of actor tasks that died
// with the actor's node are judged Lost, not re-derived — running the
// method again would apply its increment to the actor a second time.
func TestKillNodeDoesNotReapplyActorTasks(t *testing.T) {
	rt, err := New(ClusterSpec{
		Servers: 3, ServerSlots: 2, ServerMemBytes: 64 << 20,
	}, Options{Recovery: Recover})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	registerCounter(rt)

	home := rt.Raylets()[0].Node()
	actor, err := rt.CreateActorOn(home, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	var first []idgen.ObjectID
	for i := 0; i < 5; i++ {
		spec := task.NewSpec(rt.Job(), "counter", nil, 1)
		spec.Actor = actor
		first = append(first, rt.Submit(spec)[0])
	}
	rt.Drain()
	lost := rt.KillNode(home)
	if len(lost) != len(first) {
		t.Fatalf("KillNode judged %d objects Lost, want the %d actor results", len(lost), len(first))
	}
	if _, err := rt.Get(context.Background(), first[0]); !errors.Is(err, ownership.ErrObjectLost) {
		t.Fatalf("Get of a lost actor result = %v, want ErrObjectLost", err)
	}
	if got := count(t, rt, actor); got != 6 {
		t.Fatalf("count after the kill = %d, want 6: the lost increments ran again", got)
	}
}

func TestActorFailoverIsolation(t *testing.T) {
	// Two actors on different nodes; killing one node must not disturb the
	// other actor's state.
	rt, err := New(ClusterSpec{
		Servers: 2, ServerSlots: 2, ServerMemBytes: 64 << 20,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	registerCounter(rt)

	a, err := rt.CreateActor("cpu")
	if err != nil {
		t.Fatal(err)
	}
	b, err := rt.CreateActor("cpu")
	if err != nil {
		t.Fatal(err)
	}
	nodeA, _ := rt.ActorNode(a)
	nodeB, _ := rt.ActorNode(b)
	if nodeA == nodeB {
		t.Skip("actors co-located; isolation scenario needs distinct nodes")
	}
	count(t, rt, a)
	count(t, rt, a)
	count(t, rt, b)

	rt.KillNode(nodeA)
	if got := count(t, rt, a); got != 3 {
		t.Errorf("actor a after failover = %d, want 3", got)
	}
	if got := count(t, rt, b); got != 2 {
		t.Errorf("actor b (undisturbed) = %d, want 2", got)
	}
}
