package migrate

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"skadi/internal/caching"
	"skadi/internal/cluster"
	"skadi/internal/idgen"
	"skadi/internal/objectstore"
	"skadi/internal/ownership"
	"skadi/internal/raylet"
	"skadi/internal/task"
	"skadi/internal/transport"
)

// step is one RPC the migrator or the source raylet issued.
type step struct {
	to   idgen.NodeID
	kind string
}

// scripted is a fake transport that records every call. Calls to the
// source node go to a real source raylet when one is attached; the rest
// are answered from a script: transfer reports found, install signals
// shipping and waits on hold when hold is set, and any kind in fail returns
// an error.
type scripted struct {
	found          bool
	fail           map[string]bool
	shipping, hold chan struct{}

	source  idgen.NodeID
	handler transport.Handler

	mu    sync.Mutex
	steps []step
}

func (s *scripted) Listen(idgen.NodeID, transport.Handler) error { return nil }
func (s *scripted) Unlisten(idgen.NodeID)                        {}
func (s *scripted) Close() error                                 { return nil }

func (s *scripted) Call(ctx context.Context, from, to idgen.NodeID, kind string, payload []byte) ([]byte, error) {
	s.mu.Lock()
	s.steps = append(s.steps, step{to, kind})
	fail := s.fail[kind]
	s.mu.Unlock()
	if fail {
		return nil, errors.New("scripted failure: " + kind)
	}
	if to == s.source && s.handler != nil {
		return s.handler(ctx, from, kind, payload)
	}
	switch kind {
	case raylet.KindMigrateTransfer:
		return transport.MustEncode(raylet.MigrateTransferResponse{Bytes: 42, Found: s.found}), nil
	case raylet.KindMigrateInstall:
		if s.hold != nil {
			s.shipping <- struct{}{}
			<-s.hold
		}
	}
	return nil, nil
}

// record returns the steps so far and forgets them.
func (s *scripted) record() []step {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.steps
	s.steps = nil
	return out
}

// rig returns a migrator over the script and the two nodes it talks to.
func rig(s *scripted) (m *Migrator, from, to idgen.NodeID) {
	from, to = idgen.Next(), idgen.Next()
	return New(Config{Self: idgen.Next(), Transport: s}), from, to
}

// actorRig attaches a real source raylet to the script and returns a
// migrator, the source, destination and head nodes, and the raylet.
func actorRig(t *testing.T, s *scripted) (m *Migrator, from, to, head idgen.NodeID, src *raylet.Raylet) {
	t.Helper()
	c := cluster.New(cluster.Config{})
	from = c.AddServer("source", 0, 2, 1<<20).ID
	to, head = idgen.Next(), idgen.Next()
	layer, err := caching.NewLayer(c.Fabric, caching.Config{})
	if err != nil {
		t.Fatal(err)
	}
	layer.AddStore(from, caching.HostDRAM, objectstore.New(1<<20, nil))
	src, err = raylet.New(raylet.Config{
		Node: from, Backend: "cpu", Slots: 2, Head: head, Transport: s, Fabric: c.Fabric,
		Layer: layer, Registry: task.NewRegistry(), Directory: ownership.NewTable(),
		OwnerRouter: func(idgen.ObjectID) (idgen.NodeID, bool) { return head, true },
	})
	if err != nil {
		t.Fatal(err)
	}
	s.source, s.handler = from, src.Handler()
	return New(Config{Self: idgen.Next(), Transport: s}), from, to, head, src
}

// seed gives the source raylet state for actor, as a transfer into it
// would.
func seed(t *testing.T, s *scripted, actor idgen.ActorID) {
	t.Helper()
	install := transport.MustEncode(raylet.MigrateInstallRequest{Actor: actor, Seq: 3, State: map[string][]byte{"n": []byte("333")}})
	if _, err := s.handler(context.Background(), idgen.Next(), raylet.KindMigrateInstall, install); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateActorSuccessOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		state bool // the source holds state for the actor
	}{
		{"state shipped", true},
		{"never ran at source", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &scripted{}
			m, from, to, head, src := actorRig(t, s)
			actor := idgen.Next()
			if tc.state {
				seed(t, s, actor)
			}
			rep, err := m.MigrateActor(context.Background(), actor, from, to)
			if err != nil {
				t.Fatal(err)
			}
			// The source ships the state, then retargets the record.
			want := []step{{from, raylet.KindMigrateTransfer}, {to, raylet.KindMigrateInstall}, {head, raylet.KindActorMove}}
			wantBytes := int64(len("n") + len("333"))
			if !tc.state {
				want = []step{want[0], want[2]}
				wantBytes = 0
			}
			if got := s.record(); !reflect.DeepEqual(got, want) {
				t.Errorf("steps = %v, want %v", got, want)
			}
			if rep.Bytes != wantBytes {
				t.Errorf("report = %+v, want %d bytes", rep, wantBytes)
			}
			// Only after the retarget does the source drop the actor.
			if h := src.MigrationHygiene(); h != (raylet.HygieneCounts{}) {
				t.Errorf("source hygiene after the move = %+v, want nothing left", h)
			}
		})
	}
}

// TestMigrateActorFailureRollsBackOnce: a move that fails at any step ends
// with the gate lifted and the state still at the source, and no step
// follows the failed one. The rollback is local to the source, so there is
// no rollback message to lose.
func TestMigrateActorFailureRollsBackOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail string
		want []string // the steps, in order, ending with the failed one
	}{
		{"transfer fails", raylet.KindMigrateTransfer, []string{raylet.KindMigrateTransfer}},
		{"install fails", raylet.KindMigrateInstall, []string{raylet.KindMigrateTransfer, raylet.KindMigrateInstall}},
		{"retarget fails", raylet.KindActorMove, []string{raylet.KindMigrateTransfer, raylet.KindMigrateInstall, raylet.KindActorMove}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &scripted{fail: map[string]bool{tc.fail: true}}
			m, from, to, _, src := actorRig(t, s)
			actor := idgen.Next()
			seed(t, s, actor)
			if _, err := m.MigrateActor(context.Background(), actor, from, to); err == nil {
				t.Fatal("migration succeeded through a failed step")
			}
			var kinds []string
			for _, st := range s.record() {
				kinds = append(kinds, st.kind)
			}
			if !reflect.DeepEqual(kinds, tc.want) {
				t.Errorf("steps = %v, want %v", kinds, tc.want)
			}
			if h := src.MigrationHygiene(); h != (raylet.HygieneCounts{Actors: 1}) {
				t.Errorf("source hygiene after the failed move = %+v, want the actor kept and unfrozen", h)
			}
			// The kept state ships in full on the next try.
			s.fail = nil
			rep, err := m.MigrateActor(context.Background(), actor, from, to)
			if err != nil || rep.Bytes != int64(len("n")+len("333")) {
				t.Errorf("retry = %+v, %v; want the kept state shipped", rep, err)
			}
		})
	}

	// A second migration of an actor whose gate is up fails at the freeze,
	// before it ships or retargets anything.
	t.Run("freeze fails", func(t *testing.T) {
		s := &scripted{shipping: make(chan struct{}), hold: make(chan struct{})}
		m, from, to, _, _ := actorRig(t, s)
		actor := idgen.Next()
		seed(t, s, actor)
		first := make(chan error, 1)
		go func() {
			_, err := m.MigrateActor(context.Background(), actor, from, to)
			first <- err
		}()
		<-s.shipping
		s.record()
		if _, err := m.MigrateActor(context.Background(), actor, from, idgen.Next()); err == nil {
			t.Error("a second migration of a frozen actor succeeded")
		}
		if got := s.record(); !reflect.DeepEqual(got, []step{{from, raylet.KindMigrateTransfer}}) {
			t.Errorf("second migration steps = %v, want only the refused transfer", got)
		}
		close(s.hold)
		if err := <-first; err != nil {
			t.Errorf("first migration: %v", err)
		}
	})
}

func TestMigrateSameNodeFailsBeforeRPC(t *testing.T) {
	s := &scripted{found: true}
	m, from, _ := rig(s)
	if _, err := m.MigrateActor(context.Background(), idgen.Next(), from, from); err == nil {
		t.Error("actor migration onto its own node succeeded")
	}
	if _, err := m.MigrateObject(context.Background(), idgen.Next(), from, from); err == nil {
		t.Error("object migration onto its own node succeeded")
	}
	if len(s.steps) != 0 {
		t.Errorf("steps = %v, want none", s.steps)
	}
}

func TestMigrateObject(t *testing.T) {
	s := &scripted{found: true}
	m, from, to := rig(s)
	rep, err := m.MigrateObject(context.Background(), idgen.Next(), from, to)
	if err != nil {
		t.Fatal(err)
	}
	// One RPC: the source pushes, retargets the record and drops its copy.
	want := []step{{from, raylet.KindMigrateTransfer}}
	if !rep.Moved || rep.Bytes != 42 || !reflect.DeepEqual(s.steps, want) {
		t.Errorf("report = %+v, steps = %v, want moved with %v", rep, s.steps, want)
	}

	// No copy at the source: nothing moved.
	s = &scripted{found: false}
	m, from, to = rig(s)
	rep, err = m.MigrateObject(context.Background(), idgen.Next(), from, to)
	if err != nil || rep.Moved {
		t.Fatalf("report = %+v, err = %v, want not moved", rep, err)
	}

	// The source could not finish the move (push refused, record not
	// retargeted): the migration fails and reports nothing moved.
	s = &scripted{found: true, fail: map[string]bool{raylet.KindMigrateTransfer: true}}
	m, from, to = rig(s)
	rep, err = m.MigrateObject(context.Background(), idgen.Next(), from, to)
	if err == nil || rep.Moved {
		t.Fatalf("report = %+v, err = %v, want an error and not moved", rep, err)
	}
}
