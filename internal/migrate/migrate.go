// Package migrate implements Skadi's live-migration subsystem: moving
// actors and resident objects between nodes *without* losing work — the
// third leg of the runtime's placement story next to scheduling (where
// work starts) and lineage recovery (where work restarts after failure).
//
// In a disaggregated data center the resource pool is elastic by design
// (§1): servers and device blades join and leave while data systems keep
// running. Killing a node and re-executing its lineage is correct but
// wasteful — the paper's runtime can instead *drain*: checkpoint → transfer
// → restore → cutover for actors, copy + ownership-location move +
// tombstone-forward for objects. Experiment E14 quantifies the gap.
//
// The migrator is a pure coordinator: it sequences RPCs against the source
// and destination raylets and the head's ownership table, but the bytes
// flow directly source → destination over the fabric, never through the
// coordinator.
//
// The actor protocol is freeze → transfer → resume:
//
//  1. migrate.freeze on the source: the running task finishes, queued
//     tasks park on a gate (not the actor lock, so the freeze can drain).
//  2. migrate.transfer: the source ships the quiescent state directly to
//     the destination (migrate.install).
//  3. migrate.resume with Commit: the source installs a cutover tombstone
//     and lifts the gate; parked tasks bounce back to their submitter with
//     ExecResponse.ActorMovedTo and are re-dispatched to the destination.
//     Any step failing instead resumes with rollback: the gate lifts and
//     the actor keeps running at the source. No submission is lost either
//     way.
//
// The object protocol is copy → move → forward: migrate.transfer pushes
// the bytes to the destination, own.moveloc atomically retargets the
// ownership location set and records a forwarding entry, and the source
// keeps a tombstone so in-flight readers holding a stale location chase
// the move (GetResponse.MovedTo) instead of failing.
package migrate

import (
	"context"
	"fmt"

	"skadi/internal/idgen"
	"skadi/internal/raylet"
	"skadi/internal/trace"
	"skadi/internal/transport"
)

// Config configures a Migrator.
type Config struct {
	// Self is the node the migrator issues RPCs from (the head or driver
	// node of the runtime embedding it).
	Self idgen.NodeID
	// Head is the node hosting the ownership service.
	Head idgen.NodeID
	// Transport carries the coordination RPCs.
	Transport transport.Transport
}

// Migrator coordinates live migrations. It holds no per-migration state;
// one migrator serves a whole runtime and is safe for concurrent use.
type Migrator struct {
	cfg Config
}

// New returns a migrator.
func New(cfg Config) *Migrator { return &Migrator{cfg: cfg} }

// ActorReport describes one completed actor migration.
type ActorReport struct {
	Actor    idgen.ActorID
	From, To idgen.NodeID
	// Bytes is the state payload that crossed the fabric.
	Bytes int64
	// Seq is the checkpoint sequence the destination adopted.
	Seq uint64
}

// ObjectReport describes one completed object migration.
type ObjectReport struct {
	Object   idgen.ObjectID
	From, To idgen.NodeID
	Bytes    int64
	// Moved is false when the source held no copy (nothing to do).
	Moved bool
}

// call issues one coordination RPC.
func (m *Migrator) call(ctx context.Context, to idgen.NodeID, kind string, payload []byte) ([]byte, error) {
	return m.cfg.Transport.Call(ctx, m.cfg.Self, to, kind, payload)
}

// MigrateActor live-migrates one actor from → to using the freeze /
// transfer / resume protocol. On any failure after the freeze the source
// is rolled back (gate lifted, actor resumes locally) before the error is
// returned, so a failed migration never wedges the actor.
func (m *Migrator) MigrateActor(ctx context.Context, actor idgen.ActorID, from, to idgen.NodeID) (ActorReport, error) {
	ctx, sp := trace.Start(ctx, trace.KindMigrateActor, m.cfg.Self)
	sp.SetAttr("actor", actor.Short()).SetAttr("from", from.Short()).SetAttr("to", to.Short())
	defer sp.End()

	rep := ActorReport{Actor: actor, From: from, To: to}
	if from == to {
		return rep, fmt.Errorf("migrate: actor %s: source and destination are both %s", actor.Short(), from.Short())
	}

	// 1. Freeze: running task drains, queued tasks park.
	frozeB, err := m.call(ctx, from, raylet.KindMigrateFreeze,
		transport.MustEncode(raylet.MigrateFreezeRequest{Actor: actor}))
	if err != nil {
		return rep, fmt.Errorf("migrate: freeze %s at %s: %w", actor.Short(), from.Short(), err)
	}
	var froze raylet.MigrateFreezeResponse
	if err := transport.Decode(frozeB, &froze); err != nil {
		return rep, err
	}
	rep.Seq = froze.Seq

	// 2. Transfer: state flows source → destination directly. An actor the
	// source never executed (froze.Known false, e.g. re-pinned after a node
	// failure but not yet run) has no state worth shipping: the destination
	// instead gets a *stateless* install, which clears stale migration
	// leftovers there without marking the actor known — so the actor's
	// first task at the destination restores the latest head checkpoint
	// (first-arrival restore) rather than starting from empty state.
	shipped := false
	if froze.Known {
		xferB, err := m.call(ctx, from, raylet.KindMigrateTransfer,
			transport.MustEncode(raylet.MigrateTransferRequest{Actor: actor, Dest: to}))
		if err != nil {
			m.rollback(ctx, actor, from)
			return rep, fmt.Errorf("migrate: transfer %s: %w", actor.Short(), err)
		}
		var xfer raylet.MigrateTransferResponse
		if err := transport.Decode(xferB, &xfer); err != nil {
			m.rollback(ctx, actor, from)
			return rep, err
		}
		rep.Bytes = xfer.Bytes
		shipped = xfer.Found
	}
	if !shipped {
		install := transport.MustEncode(raylet.MigrateInstallRequest{Actor: actor, Stateless: true})
		if _, err := m.call(ctx, to, raylet.KindMigrateInstall, install); err != nil {
			m.rollback(ctx, actor, from)
			return rep, fmt.Errorf("migrate: install %s at %s: %w", actor.Short(), to.Short(), err)
		}
	}

	// 3. Resume with commit: cutover tombstone, parked tasks bounce to the
	// destination.
	if _, err := m.call(ctx, from, raylet.KindMigrateResume,
		transport.MustEncode(raylet.MigrateResumeRequest{Actor: actor, Dest: to, Commit: true})); err != nil {
		return rep, fmt.Errorf("migrate: resume %s: %w", actor.Short(), err)
	}
	sp.SetAttr("bytes", fmt.Sprint(rep.Bytes))
	return rep, nil
}

// rollback lifts a freeze without cutting over; best effort.
func (m *Migrator) rollback(ctx context.Context, actor idgen.ActorID, from idgen.NodeID) {
	_, _ = m.call(ctx, from, raylet.KindMigrateResume,
		transport.MustEncode(raylet.MigrateResumeRequest{Actor: actor, Commit: false}))
}

// MigrateObject moves one resident object's copy from → to: the source
// pushes the bytes to the destination, drops its copy behind a tombstone,
// and the ownership table's location set is atomically retargeted with a
// forwarding entry for readers holding the stale location.
func (m *Migrator) MigrateObject(ctx context.Context, id idgen.ObjectID, from, to idgen.NodeID) (ObjectReport, error) {
	ctx, sp := trace.Start(ctx, trace.KindMigrateObject, m.cfg.Self)
	sp.SetAttr("obj", id.Short()).SetAttr("from", from.Short()).SetAttr("to", to.Short())
	defer sp.End()

	rep := ObjectReport{Object: id, From: from, To: to}
	if from == to {
		return rep, fmt.Errorf("migrate: object %s: source and destination are both %s", id.Short(), from.Short())
	}
	xferB, err := m.call(ctx, from, raylet.KindMigrateTransfer,
		transport.MustEncode(raylet.MigrateTransferRequest{Object: id, Dest: to}))
	if err != nil {
		return rep, fmt.Errorf("migrate: transfer object %s: %w", id.Short(), err)
	}
	var xfer raylet.MigrateTransferResponse
	if err := transport.Decode(xferB, &xfer); err != nil {
		return rep, err
	}
	if !xfer.Found {
		return rep, nil // no local copy: DSM-only or already drained
	}
	rep.Bytes = xfer.Bytes
	rep.Moved = true

	// Cutover: retarget the ownership location set and record the forward.
	if _, err := m.call(ctx, m.cfg.Head, raylet.KindOwnMoveLoc,
		transport.MustEncode(raylet.OwnMoveLocRequest{ID: id, From: from, To: to})); err != nil {
		// The bytes are at the destination and the source has a tombstone,
		// so reads still resolve; only the table is stale. Surface it.
		return rep, fmt.Errorf("migrate: own.moveloc %s: %w", id.Short(), err)
	}
	sp.SetAttr("bytes", fmt.Sprint(rep.Bytes))
	return rep, nil
}
