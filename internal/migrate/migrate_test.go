package migrate

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"skadi/internal/idgen"
	"skadi/internal/raylet"
	"skadi/internal/transport"
)

// step is one coordination RPC the migrator issued.
type step struct {
	to   idgen.NodeID
	kind string
}

// scripted is a fake transport that records every call and answers from a
// script: freeze reports known, transfer reports found, and any kind in
// fail returns an error.
type scripted struct {
	known, found bool
	fail         map[string]bool

	mu      sync.Mutex
	steps   []step
	commits []bool // Commit of every resume, in order
}

func (s *scripted) Listen(idgen.NodeID, transport.Handler) error { return nil }
func (s *scripted) Unlisten(idgen.NodeID)                        {}
func (s *scripted) Close() error                                 { return nil }

func (s *scripted) Call(_ context.Context, _, to idgen.NodeID, kind string, payload []byte) ([]byte, error) {
	s.mu.Lock()
	s.steps = append(s.steps, step{to, kind})
	if kind == raylet.KindMigrateResume {
		var req raylet.MigrateResumeRequest
		if err := transport.Decode(payload, &req); err != nil {
			panic(err)
		}
		s.commits = append(s.commits, req.Commit)
	}
	s.mu.Unlock()
	if s.fail[kind] {
		return nil, errors.New("scripted failure: " + kind)
	}
	switch kind {
	case raylet.KindMigrateFreeze:
		return transport.MustEncode(raylet.MigrateFreezeResponse{Seq: 7, Known: s.known}), nil
	case raylet.KindMigrateTransfer:
		return transport.MustEncode(raylet.MigrateTransferResponse{Bytes: 42, Found: s.found}), nil
	}
	return nil, nil
}

// rig returns a migrator over the script and the two nodes it talks to.
func rig(s *scripted) (m *Migrator, from, to idgen.NodeID) {
	from, to = idgen.Next(), idgen.Next()
	return New(Config{Self: idgen.Next(), Transport: s}), from, to
}

func TestMigrateActorSuccessOrder(t *testing.T) {
	for _, tc := range []struct {
		name    string
		known   bool
		install bool // a stateless install replaces the transfer
	}{
		{"state shipped", true, false},
		{"never ran at source", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &scripted{known: tc.known, found: true}
			m, from, to := rig(s)
			rep, err := m.MigrateActor(context.Background(), idgen.Next(), from, to)
			if err != nil {
				t.Fatal(err)
			}
			want := []step{{from, raylet.KindMigrateFreeze}, {from, raylet.KindMigrateTransfer}, {from, raylet.KindMigrateResume}}
			wantBytes := int64(42)
			if tc.install {
				want[1] = step{to, raylet.KindMigrateInstall}
				wantBytes = 0
			}
			if !reflect.DeepEqual(s.steps, want) {
				t.Errorf("steps = %v, want %v", s.steps, want)
			}
			if !reflect.DeepEqual(s.commits, []bool{true}) {
				t.Errorf("resume commits = %v, want one commit", s.commits)
			}
			if rep.Seq != 7 || rep.Bytes != wantBytes {
				t.Errorf("report = %+v", rep)
			}
		})
	}
}

func TestMigrateActorFailureRollsBackOnce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		known   bool
		fail    string
		commits []bool
	}{
		{"transfer fails", true, raylet.KindMigrateTransfer, []bool{false}},
		{"install fails", false, raylet.KindMigrateInstall, []bool{false}},
		{"freeze fails", true, raylet.KindMigrateFreeze, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &scripted{known: tc.known, found: true, fail: map[string]bool{tc.fail: true}}
			m, from, to := rig(s)
			if _, err := m.MigrateActor(context.Background(), idgen.Next(), from, to); err == nil {
				t.Fatal("migration succeeded through a failed step")
			}
			if !reflect.DeepEqual(s.commits, tc.commits) {
				t.Errorf("resume commits = %v, want %v", s.commits, tc.commits)
			}
			if last := s.steps[len(s.steps)-1]; tc.commits != nil && last != (step{from, raylet.KindMigrateResume}) {
				t.Errorf("last step = %v, want the rollback at the source", last)
			}
		})
	}
}

func TestMigrateSameNodeFailsBeforeRPC(t *testing.T) {
	s := &scripted{known: true, found: true}
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
