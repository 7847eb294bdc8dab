// Package migrate implements Skadi's live-migration subsystem: moving
// actors and resident objects between nodes *without* losing work — the
// third leg of the runtime's placement story next to scheduling (where
// work starts) and lineage recovery (where work restarts after failure).
//
// In a disaggregated data center the resource pool is elastic by design
// (§1): servers and device blades join and leave while data systems keep
// running. Killing a node and re-executing its lineage is correct but
// wasteful — the paper's runtime can instead *drain*. Experiment E14
// quantifies the gap.
//
// The migrator is a pure coordinator: it sends one RPC, migrate.transfer,
// to the source raylet, which runs the move; the bytes flow directly
// source → destination over the fabric, never through the coordinator.
// Actors and objects move the same way: one record says where each lives,
// and the source copies, retargets the record, and only then drops.
//
// An actor's record is its entry at the head. The source raylet runs:
//
//  1. raise the actor's admission gate and wait out the running task;
//     queued tasks park at the gate;
//  2. ship the state to the destination (migrate.install), which stages it;
//  3. retarget the record from the source to the destination (actor.move,
//     a compare-and-swap on the expected home);
//  4. only after that succeeds, drop its own entry and lift the gate.
//
// If step 2 or 3 fails the source lifts the gate and keeps the state, so a
// failed migration never wedges the actor and no rollback message can be
// lost. Tasks parked at the gate, and any that reach a node the record no
// longer names, get a typed NotFound before their kernel runs; the
// submitter reads the record again and follows it. A destination runs on
// staged state only once the record names it, taking the newer of that
// state and the head checkpoint by sequence number.
//
// An object's record is its ownership entry. The source raylet pushes the
// bytes to the destination, asks the object's owner to retarget the record
// (own.moveloc, which checks that the destination's store holds the bytes),
// and only then drops its own copy. The record names a node holding the
// bytes at every step, so a reader whose location went stale reads the
// record again and finds the new holder. A destination that refused the
// push fails the move, and the source keeps its copy and its place in the
// record.
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
}

// ObjectReport describes one completed object migration.
type ObjectReport struct {
	Object   idgen.ObjectID
	From, To idgen.NodeID
	Bytes    int64
	// Moved is false when the source held no copy (nothing to do).
	Moved bool
}

// transfer sends one migrate.transfer to the source raylet.
func (m *Migrator) transfer(ctx context.Context, from idgen.NodeID, req raylet.MigrateTransferRequest) (raylet.MigrateTransferResponse, error) {
	var resp raylet.MigrateTransferResponse
	b, err := m.cfg.Transport.Call(ctx, m.cfg.Self, from, raylet.KindMigrateTransfer, transport.MustEncode(req))
	if err != nil {
		return resp, err
	}
	err = transport.Decode(b, &resp)
	return resp, err
}

// MigrateActor moves one actor from → to with one migrate.transfer to the
// source, which ships the state, retargets the record and drops its entry
// (see the package doc). On error the source still hosts the actor, unless
// only the reply to a retarget that did commit was lost; either way the
// record says where the actor lives.
func (m *Migrator) MigrateActor(ctx context.Context, actor idgen.ActorID, from, to idgen.NodeID) (ActorReport, error) {
	ctx, sp := trace.Start(ctx, trace.KindMigrateActor, m.cfg.Self)
	sp.SetAttr("actor", actor.Short()).SetAttr("from", from.Short()).SetAttr("to", to.Short())
	defer sp.End()

	rep := ActorReport{Actor: actor, From: from, To: to}
	if from == to {
		return rep, fmt.Errorf("migrate: actor %s: source and destination are both %s", actor.Short(), from.Short())
	}
	xfer, err := m.transfer(ctx, from, raylet.MigrateTransferRequest{Actor: actor, Dest: to})
	if err != nil {
		return rep, fmt.Errorf("migrate: transfer actor %s: %w", actor.Short(), err)
	}
	rep.Bytes = xfer.Bytes
	sp.SetAttr("bytes", fmt.Sprint(rep.Bytes))
	return rep, nil
}

// MigrateObject moves one resident object's copy from → to with one
// migrate.transfer to the source, which pushes the bytes, retargets the
// record and drops its copy (see the package doc). On error the record
// still names the source and the source still holds the bytes.
func (m *Migrator) MigrateObject(ctx context.Context, id idgen.ObjectID, from, to idgen.NodeID) (ObjectReport, error) {
	ctx, sp := trace.Start(ctx, trace.KindMigrateObject, m.cfg.Self)
	sp.SetAttr("obj", id.Short()).SetAttr("from", from.Short()).SetAttr("to", to.Short())
	defer sp.End()

	rep := ObjectReport{Object: id, From: from, To: to}
	if from == to {
		return rep, fmt.Errorf("migrate: object %s: source and destination are both %s", id.Short(), from.Short())
	}
	xfer, err := m.transfer(ctx, from, raylet.MigrateTransferRequest{Object: id, Dest: to})
	if err != nil {
		return rep, fmt.Errorf("migrate: transfer object %s: %w", id.Short(), err)
	}
	if !xfer.Found {
		return rep, nil // no local copy: DSM-only or already drained
	}
	rep.Bytes = xfer.Bytes
	rep.Moved = true
	sp.SetAttr("bytes", fmt.Sprint(rep.Bytes))
	return rep, nil
}
