package ownership

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"skadi/internal/idgen"
	"skadi/internal/skaderr"
	"skadi/internal/task"
)

func newShardedWith(members int) (*ShardedTable, []idgen.NodeID) {
	s := NewSharded(16)
	nodes := make([]idgen.NodeID, members)
	for i := range nodes {
		nodes[i] = idgen.Next()
		s.AddMember(nodes[i])
	}
	return s, nodes
}

func TestShardedLifecycle(t *testing.T) {
	s, _ := newShardedWith(3)
	owner, task, loc := idgen.Next(), idgen.Next(), idgen.Next()
	ids := make([]idgen.ObjectID, 50)
	for i := range ids {
		ids[i] = idgen.Next()
		if err := s.CreatePending(ids[i], owner, task); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Len(); got != len(ids) {
		t.Fatalf("Len = %d, want %d", got, len(ids))
	}
	if got := s.PendingIDs(); len(got) != len(ids) {
		t.Fatalf("PendingIDs = %d, want %d", len(got), len(ids))
	}
	// Entries must actually be spread over more than one shard.
	spread := 0
	for _, n := range s.ShardSizes() {
		if n > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("entries on %d shards, want >= 2", spread)
	}
	for _, id := range ids {
		if _, err := s.MarkReady(id, 8, loc, idgen.Nil, ""); err != nil {
			t.Fatal(err)
		}
	}
	recs := s.Records()
	if len(recs) != len(ids) {
		t.Fatalf("Records = %d, want %d", len(recs), len(ids))
	}
	for _, rec := range recs {
		if rec.State != Ready || len(rec.Locations) != 1 || rec.Locations[0] != loc {
			t.Fatalf("rec = %+v", rec)
		}
	}
	if err := s.WaitReady(context.Background(), ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(idgen.Next()); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("Get unknown = %v", err)
	}
}

// pickMigratingID creates pending entries until it finds one whose owner
// changes when `joiner` joins the ring — i.e. an entry that will be handed
// off. Ring hashing is deterministic, so probing a few IDs always finds one.
func pickMigratingID(t *testing.T, s *ShardedTable, joiner idgen.NodeID, owner, task idgen.NodeID) idgen.ObjectID {
	t.Helper()
	probe := NewRing(16)
	for _, m := range s.Members() {
		probe.Add(m)
	}
	probe.Add(joiner)
	for i := 0; i < 10000; i++ {
		id := idgen.Next()
		before, _ := s.OwnerOf(id)
		after, _ := probe.OwnerOf(id)
		if after == joiner && before != joiner {
			if err := s.CreatePending(id, owner, task); err != nil {
				t.Fatal(err)
			}
			return id
		}
	}
	t.Fatal("no migrating key found")
	return idgen.Nil
}

func TestShardedHandoffPreservesWaiters(t *testing.T) {
	s, _ := newShardedWith(3)
	joiner := idgen.Next()
	id := pickMigratingID(t, s, joiner, idgen.Next(), idgen.Next())

	done := make(chan error, 1)
	ready := make(chan struct{})
	go func() {
		close(ready)
		done <- s.WaitReady(context.Background(), id)
	}()
	<-ready
	time.Sleep(5 * time.Millisecond) // let the waiter park

	if moved := s.AddMember(joiner); moved == 0 {
		t.Fatal("AddMember moved nothing; expected at least the test entry")
	}
	if got, _ := s.OwnerOf(id); got != joiner {
		t.Fatalf("owner after join = %s, want joiner", got.Short())
	}
	if _, err := s.MarkReady(id, 4, idgen.Next(), idgen.Nil, ""); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitReady across handoff = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never released after handoff + MarkReady")
	}
}

func TestShardedHandoffPreservesLocations(t *testing.T) {
	s, nodes := newShardedWith(3)
	joiner := idgen.Next()
	id := pickMigratingID(t, s, joiner, idgen.Next(), idgen.Next())
	a, b := nodes[0], nodes[1]
	if _, err := s.MarkReady(id, 4, a, idgen.Nil, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.MoveLocation(id, a, b); err != nil {
		t.Fatal(err)
	}
	s.AddMember(joiner)
	rec, err := s.Get(id)
	if err != nil || len(rec.Locations) != 1 || rec.Locations[0] != b {
		t.Fatalf("locations after handoff = %v (%v), want [%s]", rec.Locations, err, b.Short())
	}
}

func TestShardedSubscribeAcrossHandoff(t *testing.T) {
	s, _ := newShardedWith(3)
	joiner := idgen.Next()
	id := pickMigratingID(t, s, joiner, idgen.Next(), idgen.Next())
	sub := idgen.Next()
	if ready, _, err := s.Subscribe(id, sub); err != nil || ready {
		t.Fatalf("Subscribe = (%v,%v)", ready, err)
	}
	s.AddMember(joiner)
	loc := idgen.Next()
	subs, err := s.MarkReady(id, 4, loc, idgen.Nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0] != sub {
		t.Fatalf("subscribers after handoff = %v, want [%s]", subs, sub.Short())
	}
}

func TestShardedRemoveMemberHandsOff(t *testing.T) {
	s, nodes := newShardedWith(4)
	owner, task := idgen.Next(), idgen.Next()
	ids := make([]idgen.ObjectID, 80)
	for i := range ids {
		ids[i] = idgen.Next()
		if err := s.CreatePending(ids[i], owner, task); err != nil {
			t.Fatal(err)
		}
	}
	victim := nodes[1]
	s.RemoveMember(victim)
	if s.Len() != len(ids) {
		t.Fatalf("Len after RemoveMember = %d, want %d", s.Len(), len(ids))
	}
	for _, id := range ids {
		if _, err := s.Get(id); err != nil {
			t.Fatalf("Get(%s) after handoff: %v", id.Short(), err)
		}
		if host, _ := s.OwnerOf(id); host == victim {
			t.Fatal("id still routed to removed member")
		}
	}
	if s.RemoveMember(victim) != 0 {
		t.Fatal("second RemoveMember not a no-op")
	}
}

func TestShardedLastMemberOrphans(t *testing.T) {
	s, nodes := newShardedWith(1)
	id, owner, task := idgen.Next(), idgen.Next(), idgen.Next()
	if err := s.CreatePending(id, owner, task); err != nil {
		t.Fatal(err)
	}
	s.RemoveMember(nodes[0])
	if err := s.CreatePending(idgen.Next(), owner, task); !errors.Is(err, ErrNoShards) {
		t.Fatalf("create on empty ring = %v", err)
	}
	if skaderr.CodeOf(errNoShards()) != skaderr.Unavailable {
		t.Fatalf("ErrNoShards code = %v", skaderr.CodeOf(errNoShards()))
	}
	if s.Len() != 1 || len(s.PendingIDs()) != 1 {
		t.Fatalf("orphan not accounted: Len=%d", s.Len())
	}
	// Rejoining adopts the orphan.
	fresh := idgen.Next()
	s.AddMember(fresh)
	if _, err := s.Get(id); err != nil {
		t.Fatalf("Get after orphan adoption: %v", err)
	}
	if _, err := s.MarkReady(id, 4, idgen.Next(), idgen.Nil, ""); err != nil {
		t.Fatalf("MarkReady after orphan adoption: %v", err)
	}
}

func TestShardedCommitGuardCoversNewShards(t *testing.T) {
	s, _ := newShardedWith(2)
	bad := idgen.Next()
	s.SetCommitGuard(func(loc idgen.NodeID, _ idgen.ObjectID, _ bool) bool { return loc != bad })
	joiner := idgen.Next()
	id := pickMigratingID(t, s, joiner, idgen.Next(), idgen.Next())
	s.AddMember(joiner)
	// The entry now lives on a shard created after SetCommitGuard; the
	// guard must still apply there.
	if _, err := s.MarkReady(id, 4, bad, idgen.Nil, ""); skaderr.CodeOf(err) != skaderr.Unavailable {
		t.Fatalf("guard bypassed on new shard: %v", err)
	}
	if _, err := s.MarkReady(id, 4, idgen.Next(), idgen.Nil, ""); err != nil {
		t.Fatal(err)
	}
}

// TestShardedChurnRace hammers the directory from concurrent writers while
// membership churns — run under -race this is the shard-handoff-vs-ops
// data-race probe.
func TestShardedChurnRace(t *testing.T) {
	s, _ := newShardedWith(3)
	owner, task := idgen.Next(), idgen.Next()
	const workers = 4
	const perWorker = 200
	var wg sync.WaitGroup
	idsCh := make(chan idgen.ObjectID, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := idgen.Next()
				if err := s.CreatePending(id, owner, task); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.MarkReady(id, 4, owner, idgen.Nil, ""); err != nil {
					t.Error(err)
					return
				}
				if err := s.WaitReady(context.Background(), id); err != nil {
					t.Error(err)
					return
				}
				idsCh <- id
			}
		}()
	}
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		var extras []idgen.NodeID
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := idgen.Next()
			s.AddMember(n)
			extras = append(extras, n)
			if len(extras) > 2 {
				s.RemoveMember(extras[0])
				extras = extras[1:]
			}
		}
	}()
	wg.Wait()
	// Every entry now exists, so any churn iteration from here must move
	// some; under a loaded scheduler the churn goroutine may not have run
	// at all yet, so give it a bounded beat before stopping — otherwise
	// the handoffs assertion below flakes on starvation, not on a bug.
	for i := 0; i < 1000 && s.Handoffs() == 0; i++ {
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	churn.Wait()
	close(idsCh)
	count := 0
	for id := range idsCh {
		rec, err := s.Get(id)
		if err != nil || rec.State != Ready {
			t.Fatalf("post-churn Get(%s) = %+v, %v", id.Short(), rec, err)
		}
		count++
	}
	if count != workers*perWorker {
		t.Fatalf("resolved %d of %d", count, workers*perWorker)
	}
	if s.Handoffs() == 0 {
		t.Fatal("churn produced no handoffs; test proved nothing")
	}
}

// TestOneMemberRingMatchesTable: the centralized control plane is a
// ShardedTable whose ring has one member. A seeded random walk over every
// Directory operation must be indistinguishable from the same walk on a
// bare Table — same results, same errors, same Records — and must never
// touch the replication machinery (a lone member has no successor).
func TestOneMemberRingMatchesTable(t *testing.T) {
	sharded, _ := newShardedWith(1)
	dirs := [2]Directory{NewTable(), sharded}

	rng := rand.New(rand.NewSource(15))
	objs := make([]idgen.ObjectID, 24)
	for i := range objs {
		objs[i] = idgen.Next()
	}
	nodes := make([]idgen.NodeID, 5)
	for i := range nodes {
		nodes[i] = idgen.Next()
	}
	ghost := nodes[len(nodes)-1] // the commit guard, when armed, rejects it
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return skaderr.CodeOf(err).String() + ": " + err.Error()
	}
	causes := []error{nil, skaderr.New(skaderr.Cancelled, "cancelled"), skaderr.New(skaderr.Internal, "kernel failed")}
	for step := 0; step < 6000; step++ {
		op := rng.Intn(19)
		obj := objs[rng.Intn(len(objs))]
		n1, n2 := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
		size := int64(rng.Intn(1 << 20))
		armed := rng.Intn(2) == 0
		cause := causes[rng.Intn(len(causes))]
		spec := &task.Spec{ID: idgen.Next(), Returns: []idgen.ObjectID{obj, objs[rng.Intn(len(objs))]}}
		var got [2]any
		for i, d := range dirs {
			switch op {
			case 0:
				var g CommitGuard
				if armed {
					g = func(loc idgen.NodeID, _ idgen.ObjectID, _ bool) bool { return loc != ghost }
				}
				d.SetCommitGuard(g)
			case 1:
				got[i] = errText(d.CreatePending(obj, n1, idgen.TaskID(n2)))
			case 2:
				subs, err := d.MarkReady(obj, size, n1, idgen.Nil, "")
				got[i] = []any{subs, errText(err)}
			case 3:
				got[i] = errText(d.AddLocation(obj, n1))
			case 4:
				got[i] = errText(d.MoveLocation(obj, n1, n2))
			case 5:
				ready, rec, err := d.Subscribe(obj, n1)
				got[i] = []any{ready, rec, errText(err)}
			case 6:
				rec, err := d.Get(obj)
				got[i] = []any{rec, errText(err)}
			case 7:
				got[i] = d.Records()
			case 8:
				// A pre-cancelled wait resolves at once whatever the state:
				// nil if Ready, lost if Lost, the context error if Pending
				// or orphaned.
				got[i] = errText(d.WaitReady(cancelled, obj))
			case 9:
				got[i] = d.PendingIDs()
			case 10:
				got[i] = d.AbortPending(cause)
			case 11:
				got[i] = d.RemoveNodeLocations(n1)
			case 12:
				got[i] = errText(d.MarkLost(obj, cause))
			case 13:
				// Out of orphaned (or Lost) only; a no-op on anything else.
				got[i] = d.Settle(obj, Pending)
			case 14:
				d.Delete(obj)
			case 15:
				got[i] = d.Len()
			case 16:
				got[i] = d.Settle(obj, Lost)
			case 17:
				got[i] = errText(d.CreateTask(spec, n1))
			case 18:
				var producer idgen.TaskID
				p, ok := d.Producer(obj)
				if ok {
					producer = p.ID
				}
				got[i] = []any{producer, ok}
			}
		}
		// Rendered, so a nil and an empty slice compare equal.
		if a, b := fmt.Sprintf("%+v", got[0]), fmt.Sprintf("%+v", got[1]); a != b {
			t.Fatalf("step %d op %d: Table = %s, one-member ring = %s", step, op, a, b)
		}
	}
	if a, b := dirs[0].Records(), dirs[1].Records(); !reflect.DeepEqual(a, b) {
		t.Fatalf("final Records differ:\nTable: %+v\nring:  %+v", a, b)
	}
	if st := sharded.ReplicationStats(); st != (ReplicationStats{}) {
		t.Fatalf("ReplicationStats = %+v, want all zero", st)
	}
	if h := sharded.Handoffs(); h != 0 {
		t.Fatalf("Handoffs = %d, want 0", h)
	}
}
