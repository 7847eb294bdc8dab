package ownership

import (
	"errors"
	"strings"
	"testing"

	"skadi/internal/idgen"
	"skadi/internal/skaderr"
	"skadi/internal/task"
	"skadi/internal/wire"
)

func TestCreateTaskRecordsProducer(t *testing.T) {
	tbl := NewTable()
	owner := idgen.Next()
	spec := task.NewSpec(idgen.Next(), "f", nil, 2)
	if err := tbl.CreateTask(spec, owner); err != nil {
		t.Fatal(err)
	}
	for _, ret := range spec.Returns {
		got, ok := tbl.Producer(ret)
		if !ok || got != spec {
			t.Errorf("Producer(%s) = %v, %v", ret.Short(), got, ok)
		}
		if rec, err := tbl.Get(ret); err != nil || rec.State != Pending || rec.Task != spec.ID || rec.Owner != owner {
			t.Errorf("Get(%s) = %+v, %v", ret.Short(), rec, err)
		}
	}
	// A Put's record names no producer.
	put := idgen.Next()
	if err := tbl.CreatePending(put, owner, idgen.Nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Producer(put); ok {
		t.Error("CreatePending recorded a producer")
	}
	// Submitting the spec again keeps its records.
	again := *spec
	if err := tbl.CreateTask(&again, owner); !errors.Is(err, ErrExists) {
		t.Errorf("second CreateTask = %v, want ErrExists", err)
	}
	if got, _ := tbl.Producer(spec.Returns[0]); got != spec {
		t.Error("second CreateTask replaced the producer")
	}
}

func TestDeleteForgetsProducer(t *testing.T) {
	tbl := NewTable()
	spec := task.NewSpec(idgen.Next(), "f", nil, 1)
	if err := tbl.CreateTask(spec, idgen.Next()); err != nil {
		t.Fatal(err)
	}
	tbl.Delete(spec.Returns[0])
	if _, ok := tbl.Producer(spec.Returns[0]); ok {
		t.Error("Producer after Delete")
	}
}

// TestLostKeepsFirstCause: a Lost record keeps the first non-nil cause,
// Settle to Pending clears it, and AbortPending gives every unresolved
// record its cause.
func TestLostKeepsFirstCause(t *testing.T) {
	tbl := NewTable()
	id, owner := idgen.Next(), idgen.Next()
	if err := tbl.CreatePending(id, owner, idgen.Next()); err != nil {
		t.Fatal(err)
	}
	first := skaderr.New(skaderr.Cancelled, "first")
	second := skaderr.New(skaderr.Internal, "second")
	if err := tbl.MarkLost(id, nil); err != nil {
		t.Fatal(err)
	}
	for _, cause := range []error{first, second, nil} {
		if err := tbl.MarkLost(id, cause); err != nil {
			t.Fatal(err)
		}
	}
	if rec, _ := tbl.Get(id); rec.State != Lost || rec.Cause != first {
		t.Fatalf("record = %v/%v, want lost with the first cause", rec.State, rec.Cause)
	}
	if !tbl.Settle(id, Pending) {
		t.Fatal("Settle(Pending) refused a Lost record")
	}
	if rec, _ := tbl.Get(id); rec.Cause != nil {
		t.Fatalf("cause after Settle(Pending) = %v, want nil", rec.Cause)
	}
	shutdown := skaderr.New(skaderr.Unavailable, "shutdown")
	if got := tbl.AbortPending(shutdown); len(got) != 1 || got[0] != id {
		t.Fatalf("AbortPending = %v", got)
	}
	if rec, _ := tbl.Get(id); rec.State != Lost || rec.Cause != shutdown {
		t.Fatalf("record after AbortPending = %v/%v", rec.State, rec.Cause)
	}
}

// TestRecordWireCarriesCause: the cause crosses the wire as its code and
// message; no cause costs one byte and no decode allocation.
func TestRecordWireCarriesCause(t *testing.T) {
	rec := Record{ID: idgen.Next(), Owner: idgen.Next(), State: Lost, Task: idgen.Next()}
	bare := wire.Marshal(&rec)
	var got Record
	if err := wire.Unmarshal(bare, &got); err != nil || got.Cause != nil {
		t.Fatalf("nil cause decoded as %v (%v)", got.Cause, err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = wire.Unmarshal(bare, &got) }); allocs != 0 {
		t.Errorf("decoding a record with no cause allocates %v times, want 0", allocs)
	}

	cause := skaderr.Mark(skaderr.DeadlineExceeded, errors.New("task t1 (f): deadline"))
	rec.Cause = cause
	withCause := wire.Marshal(&rec)
	if want := len(bare) + 1 + len(cause.Error()); len(withCause) != want {
		t.Errorf("encoded size with cause = %d, want %d", len(withCause), want)
	}
	if err := wire.Unmarshal(withCause, &got); err != nil {
		t.Fatal(err)
	}
	if skaderr.CodeOf(got.Cause) != skaderr.DeadlineExceeded || got.Cause.Error() != cause.Error() {
		t.Fatalf("decoded cause = %v (%v), want %v (%v)",
			got.Cause, skaderr.CodeOf(got.Cause), cause, skaderr.DeadlineExceeded)
	}
	// Decoding into a record that had a cause clears it.
	if err := wire.Unmarshal(bare, &got); err != nil || got.Cause != nil {
		t.Fatalf("stale cause survived decode: %v (%v)", got.Cause, err)
	}
}

// TestHandoffAndPromotionKeepProducerAndCause moves records by every path a
// shard changes hands — a join, a graceful leave, a promotion — and checks
// each keeps its producer and its cause.
func TestHandoffAndPromotionKeepProducerAndCause(t *testing.T) {
	s, nodes := newShardedWith(3)
	owner := idgen.Next()
	cause := skaderr.New(skaderr.Cancelled, "runtime: cancelled")
	specs := make([]*task.Spec, 64)
	for i := range specs {
		specs[i] = task.NewSpec(idgen.Next(), "f", nil, 1)
		if err := s.CreateTask(specs[i], owner); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := s.MarkLost(specs[i].Returns[0], cause); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(stage string) {
		t.Helper()
		for i, spec := range specs {
			id := spec.Returns[0]
			if got, ok := s.Producer(id); !ok || got != spec {
				t.Fatalf("%s: Producer(%s) = %v, %v", stage, id.Short(), got, ok)
			}
			rec, err := s.Get(id)
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			if want := map[bool]error{true: cause, false: nil}[i%2 == 0]; rec.Cause != want {
				t.Fatalf("%s: cause of %s = %v, want %v", stage, id.Short(), rec.Cause, want)
			}
		}
		if d := s.ReplicaDivergence(); len(d) != 0 {
			t.Fatalf("%s: replicas diverged:\n%v", stage, d)
		}
	}
	check("created")
	s.AddMember(idgen.Next())
	check("after a join")
	s.RemoveMember(nodes[0])
	check("after a graceful leave")
	if _, lost := s.RemoveMemberDead(nodes[1]); lost != 0 {
		t.Fatalf("promotion lost %d entries", lost)
	}
	check("after a promotion")
}

// TestDivergenceSeesProducerAndCause: a replica whose producer or cause
// differs from its primary's is reported.
func TestDivergenceSeesProducerAndCause(t *testing.T) {
	s, nodes := newShardedWith(2)
	spec := task.NewSpec(idgen.Next(), "f", nil, 1)
	for owner, _ := s.OwnerOf(spec.Returns[0]); owner != nodes[0]; owner, _ = s.OwnerOf(spec.Returns[0]) {
		spec = task.NewSpec(idgen.Next(), "f", nil, 1)
	}
	id := spec.Returns[0]
	if err := s.CreateTask(spec, idgen.Next()); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkLost(id, skaderr.New(skaderr.Internal, "kernel failed")); err != nil {
		t.Fatal(err)
	}
	s.FlushReplication()
	replica := s.repl[nodes[0]].table.entries[id]
	replica.rec.Cause = skaderr.New(skaderr.Internal, "another failure")
	if d := s.ReplicaDivergence(); len(d) != 1 || !strings.Contains(d[0], "cause diverges") {
		t.Fatalf("divergence = %v, want one cause mismatch", d)
	}
	replica.rec.Cause = s.shards[nodes[0]].entries[id].rec.Cause
	replica.producer = task.NewSpec(idgen.Next(), "f", nil, 1)
	if d := s.ReplicaDivergence(); len(d) != 1 || !strings.Contains(d[0], "producer diverges") {
		t.Fatalf("divergence = %v, want one producer mismatch", d)
	}
}
