package ownership

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"skadi/internal/idgen"
)

// idOwnedBy probes IDs until one routes to host. Hashing is deterministic,
// so a few thousand probes always find one on small rings.
func idOwnedBy(t *testing.T, s *ShardedTable, host idgen.NodeID) idgen.ObjectID {
	t.Helper()
	for i := 0; i < 100000; i++ {
		id := idgen.Next()
		if owner, _ := s.OwnerOf(id); owner == host {
			return id
		}
	}
	t.Fatalf("no key owned by %s", host.Short())
	return idgen.Nil
}

func TestRingSuccessor(t *testing.T) {
	r := NewRing(16)
	a := idgen.Next()
	r.Add(a)
	if _, ok := r.SuccessorOf(a); ok {
		t.Fatal("ring of one has no successor")
	}
	var members []idgen.NodeID
	members = append(members, a)
	for i := 0; i < 5; i++ {
		n := idgen.Next()
		r.Add(n)
		members = append(members, n)
	}
	succ := r.successors()
	if len(succ) != len(members) {
		t.Fatalf("successors() covers %d members, want %d", len(succ), len(members))
	}
	for _, m := range members {
		got, ok := r.SuccessorOf(m)
		if !ok {
			t.Fatalf("no successor for %s", m.Short())
		}
		if got == m {
			t.Fatalf("member %s is its own successor", m.Short())
		}
		if succ[m] != got {
			t.Fatalf("successors()[%s] = %s, SuccessorOf = %s",
				m.Short(), succ[m].Short(), got.Short())
		}
	}
	// Removing a member's successor must re-route to a live member.
	target := members[2]
	old, _ := r.SuccessorOf(target)
	r.Remove(old)
	fresh, ok := r.SuccessorOf(target)
	if !ok || fresh == old || fresh == target {
		t.Fatalf("successor after removal = (%s,%v)", fresh.Short(), ok)
	}
	if _, ok := r.SuccessorOf(old); ok {
		t.Fatal("removed member still has a successor")
	}
}

func TestShardReplicationMirrorsPrimary(t *testing.T) {
	s, nodes := newShardedWith(3)
	owner, task := idgen.Next(), idgen.Next()
	loc, loc2 := idgen.Next(), idgen.Next()
	var ids []idgen.ObjectID
	for i := 0; i < 60; i++ {
		id := idgen.Next()
		ids = append(ids, id)
		if err := s.CreatePending(id, owner, task); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range ids {
		switch i % 5 {
		case 0: // stays pending with a subscriber
			if _, _, err := s.Subscribe(id, loc2); err != nil {
				t.Fatal(err)
			}
		case 1: // ready with two locations
			if _, err := s.MarkReady(id, 8, loc, idgen.Nil, ""); err != nil {
				t.Fatal(err)
			}
			if err := s.AddLocation(id, loc2); err != nil {
				t.Fatal(err)
			}
		case 2: // ready then moved (forward chain)
			if _, err := s.MarkReady(id, 8, loc, idgen.Nil, ""); err != nil {
				t.Fatal(err)
			}
			if err := s.MoveLocation(id, loc, loc2); err != nil {
				t.Fatal(err)
			}
		case 3: // lost
			if err := s.MarkLost(id); err != nil {
				t.Fatal(err)
			}
		case 4: // ready then deleted
			if _, err := s.MarkReady(id, 8, loc, idgen.Nil, ""); err != nil {
				t.Fatal(err)
			}
			s.Delete(id)
		}
	}
	if n := s.FlushReplication(); n == 0 {
		t.Fatal("flush applied nothing; replication log never filled")
	}
	if d := s.ReplicaDivergence(); len(d) != 0 {
		t.Fatalf("replica diverged:\n%v", d)
	}
	st := s.ReplicationStats()
	if st.Replicas != len(nodes) {
		t.Fatalf("replicas = %d, want %d", st.Replicas, len(nodes))
	}
	if st.Appended == 0 || st.Applied != st.Appended {
		t.Fatalf("appended=%d applied=%d, want equal and nonzero", st.Appended, st.Applied)
	}
}

func TestShardReplicationBoundedLog(t *testing.T) {
	s, nodes := newShardedWith(2)
	owner, task := idgen.Next(), idgen.Next()
	// Hammer one shard far past replogCap without ever flushing: the
	// inline drain must keep the log bounded.
	host := nodes[0]
	for i := 0; i < 3*replogCap; i++ {
		id := idOwnedBy(t, s, host)
		if err := s.CreatePending(id, owner, task); err != nil {
			t.Fatal(err)
		}
	}
	st := s.ReplicationStats()
	if st.LogDepth >= replogCap {
		t.Fatalf("log depth %d not bounded by %d", st.LogDepth, replogCap)
	}
	if st.Applied == 0 {
		t.Fatal("inline drain never fired")
	}
	if d := s.ReplicaDivergence(); len(d) != 0 {
		t.Fatalf("replica diverged:\n%v", d)
	}
}

// TestPromotionRestoresState is the heart of the durability change: kill a
// shard primary via RemoveMemberDead and verify the successor's replica —
// not the dead member's table — restores records, parked waiters, push
// subscriptions, and forwarding chains.
func TestPromotionRestoresState(t *testing.T) {
	s, nodes := newShardedWith(4)
	owner, task := idgen.Next(), idgen.Next()
	victim := nodes[1]
	loc, loc2, sub := idgen.Next(), idgen.Next(), idgen.Next()

	pending := idOwnedBy(t, s, victim)
	moved := idOwnedBy(t, s, victim)
	for _, id := range []idgen.ObjectID{pending, moved} {
		if err := s.CreatePending(id, owner, task); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.Subscribe(pending, sub); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MarkReady(moved, 8, loc, idgen.Nil, ""); err != nil {
		t.Fatal(err)
	}
	if err := s.MoveLocation(moved, loc, loc2); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.WaitReady(context.Background(), pending) }()
	for i := 0; i < 1000; i++ { // wait for the waiter to register
		st := s.ReplicationStats()
		if st.Appended >= 6 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Promote WITHOUT flushing first: the death path must drain the log
	// itself before taking over.
	restored, lost := s.RemoveMemberDead(victim)
	if restored < 2 || lost != 0 {
		t.Fatalf("RemoveMemberDead = (restored %d, lost %d), want (>=2, 0)", restored, lost)
	}
	if host, _ := s.OwnerOf(pending); host == victim {
		t.Fatal("key still routed to dead member")
	}
	// Records survived.
	if rec, err := s.Get(pending); err != nil || rec.State != Pending {
		t.Fatalf("pending entry after promotion: %+v, %v", rec, err)
	}
	// Forward chain survived.
	if to, found := s.ResolveForward(moved, loc); !found || to != loc2 {
		t.Fatalf("forward after promotion = (%s,%v), want (%s,true)", to.Short(), found, loc2.Short())
	}
	// Subscriber and waiter survived: MarkReady on the promoted shard
	// releases both.
	subs, err := s.MarkReady(pending, 4, loc, idgen.Nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0] != sub {
		t.Fatalf("subscribers after promotion = %v, want [%s]", subs, sub.Short())
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitReady across promotion = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never released after promotion + MarkReady")
	}
	st := s.ReplicationStats()
	if st.Promotions != 1 || st.Lost != 0 || st.Restored < 2 {
		t.Fatalf("stats after promotion = %+v", st)
	}
	if d := s.ReplicaDivergence(); len(d) != 0 {
		t.Fatalf("survivor replicas diverged:\n%v", d)
	}
}

func TestPromotionLosesNothingUnderBulkLoad(t *testing.T) {
	s, nodes := newShardedWith(4)
	owner, task := idgen.Next(), idgen.Next()
	ids := make([]idgen.ObjectID, 300)
	for i := range ids {
		ids[i] = idgen.Next()
		if err := s.CreatePending(ids[i], owner, task); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if _, err := s.MarkReady(ids[i], 8, owner, idgen.Nil, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := s.Len()
	// Kill two members back to back — the second may host replicas the
	// first promotion just reseeded.
	if _, lost := s.RemoveMemberDead(nodes[0]); lost != 0 {
		t.Fatalf("lost %d entries on first death", lost)
	}
	if _, lost := s.RemoveMemberDead(nodes[2]); lost != 0 {
		t.Fatalf("lost %d entries on second death", lost)
	}
	if got := s.Len(); got != before {
		t.Fatalf("Len after two deaths = %d, want %d", got, before)
	}
	for _, id := range ids {
		if _, err := s.Get(id); err != nil {
			t.Fatalf("Get(%s) after promotions: %v", id.Short(), err)
		}
	}
	if d := s.ReplicaDivergence(); len(d) != 0 {
		t.Fatalf("replicas diverged:\n%v", d)
	}
}

func TestGracefulRemoveKeepsReplicaParity(t *testing.T) {
	s, nodes := newShardedWith(3)
	owner, task := idgen.Next(), idgen.Next()
	for i := 0; i < 100; i++ {
		if err := s.CreatePending(idgen.Next(), owner, task); err != nil {
			t.Fatal(err)
		}
	}
	s.RemoveMember(nodes[1])
	if d := s.ReplicaDivergence(); len(d) != 0 {
		t.Fatalf("replicas diverged after graceful remove:\n%v", d)
	}
	st := s.ReplicationStats()
	if st.Promotions != 0 {
		t.Fatalf("graceful remove counted as promotion: %+v", st)
	}
	if st.Replicas != 2 {
		t.Fatalf("replicas after remove = %d, want 2", st.Replicas)
	}
}

// TestShardReplicationChurnRace hammers ops + flushes while membership
// churns through both graceful removals and dead-promotions; under -race
// this is the replication-vs-handoff data-race probe.
func TestShardReplicationChurnRace(t *testing.T) {
	s, _ := newShardedWith(3)
	owner, task := idgen.Next(), idgen.Next()
	const workers = 4
	const perWorker = 150
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
				idsCh <- id
			}
		}()
	}
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(2)
	go func() {
		defer churn.Done()
		var extras []idgen.NodeID
		dead := false
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
				if dead {
					s.RemoveMemberDead(extras[0])
				} else {
					s.RemoveMember(extras[0])
				}
				dead = !dead
				extras = extras[1:]
			}
		}
	}()
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.FlushReplication()
		}
	}()
	wg.Wait()
	close(stop)
	churn.Wait()
	close(idsCh)
	for id := range idsCh {
		rec, err := s.Get(id)
		if err != nil || rec.State != Ready {
			t.Fatalf("post-churn Get(%s) = %+v, %v", id.Short(), rec, err)
		}
	}
	st := s.ReplicationStats()
	if st.Lost != 0 {
		t.Fatalf("churn lost %d entries", st.Lost)
	}
	if d := s.ReplicaDivergence(); len(d) != 0 {
		t.Fatalf("replicas diverged after churn:\n%v", d)
	}
}

// TestOrphanedSurvivesPromotion: an object orphaned on a primary is
// orphaned on its replica too, with the same parked waiter, so after the
// primary dies the promoted shard agrees with it and settling the record
// there still releases the caller (I7).
func TestOrphanedSurvivesPromotion(t *testing.T) {
	s, nodes := newShardedWith(4)
	victim, holder := nodes[1], idgen.Next()
	id := idOwnedBy(t, s, victim)
	orphan(t, s, id, holder)
	done := parked(t, s, id)
	s.FlushReplication()
	if d := s.ReplicaDivergence(); len(d) != 0 {
		t.Fatalf("replica diverged after opRemoveNode:\n%v", d)
	}
	if _, lost := s.RemoveMemberDead(victim); lost != 0 {
		t.Fatalf("promotion lost %d entries", lost)
	}
	if rec, err := s.Get(id); err != nil || rec.State != Orphaned {
		t.Fatalf("after promotion: %+v, %v; want orphaned", rec, err)
	}
	if d := s.ReplicaDivergence(); len(d) != 0 {
		t.Fatalf("survivor replicas diverged:\n%v", d)
	}
	if !s.Settle(id, Lost) {
		t.Fatal("Settle refused the promoted orphaned record")
	}
	if err := released(t, done); !errors.Is(err, ErrObjectLost) {
		t.Fatalf("waiter released with %v, want ErrObjectLost", err)
	}
}
