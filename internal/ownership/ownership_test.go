package ownership

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"skadi/internal/idgen"
)

func TestCreateAndGet(t *testing.T) {
	tbl := NewTable()
	id, owner, task := idgen.Next(), idgen.Next(), idgen.Next()
	if err := tbl.CreatePending(id, owner, task); err != nil {
		t.Fatal(err)
	}
	rec, err := tbl.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != Pending || rec.Owner != owner || rec.Task != task {
		t.Errorf("rec = %+v", rec)
	}
	if err := tbl.CreatePending(id, owner, task); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate create = %v", err)
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

func TestGetUnknown(t *testing.T) {
	tbl := NewTable()
	if _, err := tbl.Get(idgen.Next()); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("Get = %v", err)
	}
}

func TestMarkReadyWithDevicePlacement(t *testing.T) {
	tbl := NewTable()
	id, loc, dev := idgen.Next(), idgen.Next(), idgen.Next()
	if err := tbl.CreatePending(id, idgen.Next(), idgen.Next()); err != nil {
		t.Fatal(err)
	}
	subs, err := tbl.MarkReady(id, 1024, loc, dev, "cuda:0/buf#42")
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 0 {
		t.Errorf("subs = %v", subs)
	}
	rec, _ := tbl.Get(id)
	if rec.State != Ready || rec.Size != 1024 {
		t.Errorf("rec = %+v", rec)
	}
	if rec.DeviceID != dev || rec.DeviceHandle != "cuda:0/buf#42" {
		t.Error("heterogeneity-aware fields not stored")
	}
	if len(rec.Locations) != 1 || rec.Locations[0] != loc {
		t.Errorf("locations = %v", rec.Locations)
	}
}

func TestMarkReadyUnknown(t *testing.T) {
	tbl := NewTable()
	if _, err := tbl.MarkReady(idgen.Next(), 1, idgen.Next(), idgen.Nil, ""); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("MarkReady = %v", err)
	}
}

func TestSubscribeBeforeReady(t *testing.T) {
	tbl := NewTable()
	id, producer := idgen.Next(), idgen.Next()
	consumer1, consumer2 := idgen.Next(), idgen.Next()
	if err := tbl.CreatePending(id, idgen.Next(), idgen.Next()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []idgen.NodeID{consumer1, consumer2} {
		ready, _, err := tbl.Subscribe(id, c)
		if err != nil || ready {
			t.Fatalf("Subscribe = ready=%v err=%v", ready, err)
		}
	}
	subs, err := tbl.MarkReady(id, 10, producer, idgen.Nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 2 {
		t.Fatalf("subs = %v, want both consumers", subs)
	}
	// Subscribers are consumed: a second MarkReady-like commit would see none.
	ready, rec, err := tbl.Subscribe(id, consumer1)
	if err != nil || !ready {
		t.Errorf("Subscribe after ready = %v/%v", ready, err)
	}
	if rec.State != Ready {
		t.Error("record should be ready")
	}
}

func TestSubscriberColocatedWithProducerSkipped(t *testing.T) {
	tbl := NewTable()
	id, node := idgen.Next(), idgen.Next()
	if err := tbl.CreatePending(id, idgen.Next(), idgen.Next()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tbl.Subscribe(id, node); err != nil {
		t.Fatal(err)
	}
	subs, err := tbl.MarkReady(id, 10, node, idgen.Nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 0 {
		t.Errorf("subs = %v; co-located subscriber needs no push", subs)
	}
}

func TestWaitReadyBlocksUntilReady(t *testing.T) {
	tbl := NewTable()
	id := idgen.Next()
	if err := tbl.CreatePending(id, idgen.Next(), idgen.Next()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- tbl.WaitReady(context.Background(), id)
	}()
	select {
	case err := <-done:
		t.Fatalf("WaitReady returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := tbl.MarkReady(id, 1, idgen.Next(), idgen.Nil, ""); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("WaitReady = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("WaitReady did not wake")
	}
}

func TestWaitReadyImmediate(t *testing.T) {
	tbl := NewTable()
	id := idgen.Next()
	if err := tbl.CreatePending(id, idgen.Next(), idgen.Next()); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.MarkReady(id, 1, idgen.Next(), idgen.Nil, ""); err != nil {
		t.Fatal(err)
	}
	if err := tbl.WaitReady(context.Background(), id); err != nil {
		t.Errorf("WaitReady on ready object = %v", err)
	}
}

func TestWaitReadyContextCancel(t *testing.T) {
	tbl := NewTable()
	id := idgen.Next()
	if err := tbl.CreatePending(id, idgen.Next(), idgen.Next()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := tbl.WaitReady(ctx, id); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("WaitReady = %v", err)
	}
}

func TestWaitReadyOnLost(t *testing.T) {
	tbl := NewTable()
	id := idgen.Next()
	if err := tbl.CreatePending(id, idgen.Next(), idgen.Next()); err != nil {
		t.Fatal(err)
	}
	if err := tbl.MarkLost(id); err != nil {
		t.Fatal(err)
	}
	if err := tbl.WaitReady(context.Background(), id); !errors.Is(err, ErrObjectLost) {
		t.Errorf("WaitReady = %v", err)
	}
}

func TestRemoveNodeLocations(t *testing.T) {
	tbl := NewTable()
	nodeA, nodeB := idgen.Next(), idgen.Next()
	// obj1 only on A, obj2 on A and B, obj3 pending.
	obj1, obj2, obj3 := idgen.Next(), idgen.Next(), idgen.Next()
	for _, id := range []idgen.ObjectID{obj1, obj2, obj3} {
		if err := tbl.CreatePending(id, idgen.Next(), idgen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.MarkReady(obj1, 1, nodeA, idgen.Nil, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.MarkReady(obj2, 1, nodeA, idgen.Nil, ""); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddLocation(obj2, nodeB); err != nil {
		t.Fatal(err)
	}

	orphaned := tbl.RemoveNodeLocations(nodeA)
	if len(orphaned) != 1 || orphaned[0] != obj1 {
		t.Errorf("orphaned = %v, want [obj1]", orphaned)
	}
	rec1, _ := tbl.Get(obj1)
	if rec1.State != Orphaned {
		t.Errorf("obj1 state = %v", rec1.State)
	}
	rec2, _ := tbl.Get(obj2)
	if rec2.State != Ready || len(rec2.Locations) != 1 || rec2.Locations[0] != nodeB {
		t.Errorf("obj2 = %+v", rec2)
	}
	rec3, _ := tbl.Get(obj3)
	if rec3.State != Pending {
		t.Errorf("obj3 state = %v, pending objects unaffected", rec3.State)
	}
}

// orphan commits id at node and removes the node: the record is orphaned.
func orphan(t *testing.T, d Directory, id idgen.ObjectID, node idgen.NodeID) {
	t.Helper()
	if err := d.CreatePending(id, idgen.Next(), idgen.Next()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.MarkReady(id, 1, node, idgen.Nil, ""); err != nil {
		t.Fatal(err)
	}
	if got := d.RemoveNodeLocations(node); len(got) != 1 || got[0] != id {
		t.Fatalf("RemoveNodeLocations = %v, want [%s]", got, id.Short())
	}
}

// parked starts a WaitReady on id and returns its result channel after
// checking the caller is still parked a moment later.
func parked(t *testing.T, d Directory, id idgen.ObjectID) chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- d.WaitReady(context.Background(), id) }()
	select {
	case err := <-done:
		t.Fatalf("WaitReady on an orphaned object returned %v, want it parked", err)
	case <-time.After(20 * time.Millisecond):
	}
	return done
}

// released waits for a parked WaitReady to return.
func released(t *testing.T, done chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Second):
		t.Fatal("parked waiter never released")
		return nil
	}
}

// TestOrphanedParksWaiters: losing the last holder judges nothing — a
// caller waiting on the object stays parked, as on Pending, until the
// record is settled.
func TestOrphanedParksWaiters(t *testing.T) {
	tbl := NewTable()
	id, node := idgen.Next(), idgen.Next()
	orphan(t, tbl, id, node)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := tbl.WaitReady(ctx, id); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitReady on an orphaned object = %v, want it parked until the deadline", err)
	}
	if ids := tbl.PendingIDs(); len(ids) != 1 || ids[0] != id {
		t.Fatalf("PendingIDs = %v, want the orphaned object", ids)
	}
}

// TestOrphanedTransitions walks each way out of the orphaned state and what
// it does to a parked caller.
func TestOrphanedTransitions(t *testing.T) {
	node := idgen.Next()
	for _, tc := range []struct {
		name   string
		settle func(tbl *Table, id idgen.ObjectID)
		want   State
		parked bool // the caller is still waiting afterwards
		lost   bool // the caller is released with ErrObjectLost
	}{
		{"MarkReady", func(tbl *Table, id idgen.ObjectID) {
			if _, err := tbl.MarkReady(id, 1, idgen.Next(), idgen.Nil, ""); err != nil {
				t.Fatal(err)
			}
		}, Ready, false, false},
		{"MarkLost", func(tbl *Table, id idgen.ObjectID) {
			if err := tbl.MarkLost(id); err != nil {
				t.Fatal(err)
			}
		}, Lost, false, true},
		{"Settle/Pending", func(tbl *Table, id idgen.ObjectID) {
			if !tbl.Settle(id, Pending) {
				t.Fatal("Settle(Pending) refused an orphaned object")
			}
		}, Pending, true, false},
		{"Settle/Lost", func(tbl *Table, id idgen.ObjectID) {
			if !tbl.Settle(id, Lost) {
				t.Fatal("Settle(Lost) refused an orphaned object")
			}
		}, Lost, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl := NewTable()
			id := idgen.Next()
			orphan(t, tbl, id, node)
			done := parked(t, tbl, id)
			tc.settle(tbl, id)
			if rec, _ := tbl.Get(id); rec.State != tc.want {
				t.Fatalf("state = %v, want %v", rec.State, tc.want)
			}
			if tc.parked {
				select {
				case err := <-done:
					t.Fatalf("waiter released with %v, want it still parked", err)
				case <-time.After(20 * time.Millisecond):
				}
				if _, err := tbl.MarkReady(id, 1, idgen.Next(), idgen.Nil, ""); err != nil {
					t.Fatal(err)
				}
			}
			err := released(t, done)
			if tc.lost != errors.Is(err, ErrObjectLost) || !tc.lost && err != nil {
				t.Fatalf("released waiter got %v, want lost=%v", err, tc.lost)
			}
		})
	}
}

// TestSettleOnlyJudgesFailedObjects: Settle is a compare-and-set — a
// Pending or Ready object is someone else's, and an unknown one is nobody's.
func TestSettleOnlyJudgesFailedObjects(t *testing.T) {
	tbl := NewTable()
	pending, ready, lost := idgen.Next(), idgen.Next(), idgen.Next()
	for _, id := range []idgen.ObjectID{pending, ready, lost} {
		if err := tbl.CreatePending(id, idgen.Next(), idgen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.MarkReady(ready, 1, idgen.Next(), idgen.Nil, ""); err != nil {
		t.Fatal(err)
	}
	if err := tbl.MarkLost(lost); err != nil {
		t.Fatal(err)
	}
	for _, to := range []State{Pending, Lost} {
		if tbl.Settle(pending, to) || tbl.Settle(ready, to) || tbl.Settle(idgen.Next(), to) {
			t.Fatalf("Settle(%v) judged a Pending, Ready or unknown object", to)
		}
	}
	if !tbl.Settle(lost, Pending) {
		t.Fatal("Settle(Pending) refused a Lost object")
	}
	if tbl.Settle(lost, Pending) {
		t.Fatal("second Settle(Pending) succeeded: a producer would be re-submitted twice")
	}
}

func TestNodeFailureWakesWaitersWithLost(t *testing.T) {
	tbl := NewTable()
	id, node := idgen.Next(), idgen.Next()
	if err := tbl.CreatePending(id, idgen.Next(), idgen.Next()); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.MarkReady(id, 1, node, idgen.Nil, ""); err != nil {
		t.Fatal(err)
	}
	// A waiter arriving after ready returns immediately; losing the holder
	// orphans the object, which parks the waiter until it is judged Lost.
	tbl.RemoveNodeLocations(node)
	done := make(chan error, 1)
	go func() { done <- tbl.WaitReady(context.Background(), id) }()
	time.Sleep(10 * time.Millisecond)
	if err := tbl.MarkLost(id); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrObjectLost) {
			t.Errorf("WaitReady = %v, want ErrObjectLost", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter not woken on loss")
	}
}

func TestResetAllowsRecommit(t *testing.T) {
	tbl := NewTable()
	id := idgen.Next()
	if err := tbl.CreatePending(id, idgen.Next(), idgen.Next()); err != nil {
		t.Fatal(err)
	}
	nodeA, nodeB := idgen.Next(), idgen.Next()
	if _, err := tbl.MarkReady(id, 1, nodeA, idgen.Nil, ""); err != nil {
		t.Fatal(err)
	}
	if err := tbl.MarkLost(id); err != nil {
		t.Fatal(err)
	}
	if !tbl.Settle(id, Pending) {
		t.Fatal("Settle(Pending) refused a Lost object")
	}
	rec, _ := tbl.Get(id)
	if rec.State != Pending || len(rec.Locations) != 0 {
		t.Errorf("after reset to Pending: %+v", rec)
	}
	if _, err := tbl.MarkReady(id, 2, nodeB, idgen.Nil, ""); err != nil {
		t.Fatal(err)
	}
	rec, _ = tbl.Get(id)
	if rec.State != Ready || rec.Size != 2 {
		t.Errorf("after recommit: %+v", rec)
	}
}

func TestDeleteWakesWaiters(t *testing.T) {
	tbl := NewTable()
	id := idgen.Next()
	if err := tbl.CreatePending(id, idgen.Next(), idgen.Next()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- tbl.WaitReady(context.Background(), id) }()
	time.Sleep(10 * time.Millisecond)
	tbl.Delete(id)
	select {
	case err := <-done:
		if !errors.Is(err, ErrObjectLost) {
			t.Errorf("WaitReady after Delete = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter leaked on Delete")
	}
	if tbl.Len() != 0 {
		t.Error("entry not removed")
	}
}

func TestConcurrentWaitersAllWake(t *testing.T) {
	tbl := NewTable()
	id := idgen.Next()
	if err := tbl.CreatePending(id, idgen.Next(), idgen.Next()); err != nil {
		t.Fatal(err)
	}
	const waiters = 32
	var wg sync.WaitGroup
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- tbl.WaitReady(context.Background(), id)
		}()
	}
	time.Sleep(10 * time.Millisecond)
	if _, err := tbl.MarkReady(id, 1, idgen.Next(), idgen.Nil, ""); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("waiter error: %v", err)
		}
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Pending: "pending", Ready: "ready", Lost: "lost"} {
		if s.String() != want {
			t.Errorf("String = %q", s.String())
		}
	}
}

func TestMoveLocationRecordsForward(t *testing.T) {
	tbl := NewTable()
	id := idgen.Next()
	a, b := idgen.Next(), idgen.Next()
	if err := tbl.CreatePending(id, a, idgen.Next()); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.MarkReady(id, 8, a, idgen.Nil, ""); err != nil {
		t.Fatal(err)
	}
	if err := tbl.MoveLocation(id, a, b); err != nil {
		t.Fatal(err)
	}
	rec, err := tbl.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Locations) != 1 || rec.Locations[0] != b {
		t.Errorf("Locations = %v, want [%v]", rec.Locations, b)
	}
	to, found := tbl.ResolveForward(id, a)
	if !found || to != b {
		t.Errorf("ResolveForward(a) = %v,%v, want %v,true", to, found, b)
	}
	if _, found := tbl.ResolveForward(id, b); found {
		t.Error("ResolveForward(current holder) should report no forward")
	}
}

func TestResolveForwardChainsAndPingPong(t *testing.T) {
	tbl := NewTable()
	id := idgen.Next()
	a, b, c := idgen.Next(), idgen.Next(), idgen.Next()
	if err := tbl.CreatePending(id, a, idgen.Next()); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.MarkReady(id, 8, a, idgen.Nil, ""); err != nil {
		t.Fatal(err)
	}
	// a → b → c: a reader holding the original location must resolve to c.
	if err := tbl.MoveLocation(id, a, b); err != nil {
		t.Fatal(err)
	}
	if err := tbl.MoveLocation(id, b, c); err != nil {
		t.Fatal(err)
	}
	if to, found := tbl.ResolveForward(id, a); !found || to != c {
		t.Errorf("chained ResolveForward(a) = %v,%v, want %v,true", to, found, c)
	}
	// Ping-pong back to a: the chase must terminate at a, not loop.
	if err := tbl.MoveLocation(id, c, a); err != nil {
		t.Fatal(err)
	}
	if to, found := tbl.ResolveForward(id, b); !found || to != a {
		t.Errorf("ping-pong ResolveForward(b) = %v,%v, want %v,true", to, found, a)
	}
	if _, found := tbl.ResolveForward(id, a); found {
		t.Error("current holder must not have a forward after ping-pong")
	}
}

func TestMoveLocationConcurrentReaders(t *testing.T) {
	tbl := NewTable()
	id := idgen.Next()
	nodes := []idgen.NodeID{idgen.Next(), idgen.Next(), idgen.Next(), idgen.Next()}
	if err := tbl.CreatePending(id, nodes[0], idgen.Next()); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.MarkReady(id, 8, nodes[0], idgen.Nil, ""); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec, err := tbl.Get(id)
				if err != nil || len(rec.Locations) != 1 {
					t.Errorf("mid-migration record: %v %v", rec.Locations, err)
					return
				}
				tbl.ResolveForward(id, nodes[0])
			}
		}()
	}
	for hop := 0; hop < 64; hop++ {
		from := nodes[hop%len(nodes)]
		to := nodes[(hop+1)%len(nodes)]
		if err := tbl.MoveLocation(id, from, to); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
