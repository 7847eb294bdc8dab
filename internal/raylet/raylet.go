// Package raylet implements Skadi's per-node daemon — the component the
// paper overhauls from Ray (§2.3). A raylet executes tasks from the shared
// registry, resolves reference arguments with either the pull-based or the
// push-based future-resolution protocol, commits results to the caching
// layer, and reports ownership to the head service.
//
// The two hardware generations of §2.3.2 are configurations, not forks:
//
//   - Gen-1 (CPU-centric): a device's raylet logically runs on the DPU;
//     every control and data message to or from the device transits the
//     DPU, charged as explicit DPU hops on the fabric.
//   - Gen-2 (device-centric): the raylet runs on the device itself
//     (DPUProxy unset); devices talk to peers and the head directly.
package raylet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"skadi/internal/caching"
	"skadi/internal/fabric"
	"skadi/internal/idgen"
	"skadi/internal/metrics"
	"skadi/internal/objectstore"
	"skadi/internal/ownership"
	"skadi/internal/skaderr"
	"skadi/internal/task"
	"skadi/internal/tenancy"
	"skadi/internal/trace"
	"skadi/internal/transport"
)

// Resolution selects the future-resolution protocol (§2.3.2).
type Resolution int

// Resolution protocols.
const (
	// Pull is Ray's vanilla model: the consumer waits for readiness, then
	// fetches from the producer on demand.
	Pull Resolution = iota
	// Push is Skadi's addition: the producer pushes data to registered
	// consumers proactively when it commits.
	Push
)

// String returns the protocol name.
func (r Resolution) String() string {
	if r == Push {
		return "push"
	}
	return "pull"
}

// ErrNoLocation reports an object that is ready but has no reachable copy.
var ErrNoLocation = errors.New("raylet: no reachable location for object")

// ActorMigratedError reports that a task reached a raylet after its actor
// live-migrated away; the submitter re-dispatches the task to To. It
// travels as a clean ExecResponse (ActorMovedTo), not a wire error, so no
// submission is lost across a migration.
type ActorMigratedError struct {
	Actor idgen.ActorID
	To    idgen.NodeID
}

// Error implements the error interface.
func (e *ActorMigratedError) Error() string {
	return fmt.Sprintf("raylet: actor %s migrated to %s", e.Actor.Short(), e.To.Short())
}

// Config configures a Raylet.
type Config struct {
	// Node is this raylet's identity.
	Node idgen.NodeID
	// Backend is the kernel backend this node executes ("cpu"/"gpu"/"fpga").
	Backend string
	// Slots is the number of concurrently executing tasks.
	Slots int
	// Head is the node hosting the ownership service.
	Head idgen.NodeID
	// Transport carries RPCs.
	Transport transport.Transport
	// Fabric charges explicit DPU hops in Gen-1 mode.
	Fabric *fabric.Fabric
	// Layer is the caching layer; it must have a store registered for Node.
	Layer *caching.Layer
	// Registry holds the executable functions.
	Registry *task.Registry
	// Resolution selects pull or push future resolution.
	Resolution Resolution
	// DPUProxy, when set, puts this raylet in Gen-1 mode: every message is
	// charged an extra hop through the given DPU node.
	DPUProxy idgen.NodeID
	// TimeScale scales simulated kernel durations.
	TimeScale float64

	// Directory is the ownership directory inbound own.* RPCs are served
	// against; they arrive only while the ring lists this node as a shard
	// host. Required.
	Directory ownership.Directory
	// OwnerRouter names the shard host that owns an object's directory
	// entry (the ring's consistent-hash lookup); outbound own.* RPCs go
	// there. Head is the fallback when the ring is empty or the routed
	// owner is unreachable mid-handoff. Required.
	OwnerRouter func(id idgen.ObjectID) (idgen.NodeID, bool)
}

// Stats exposes the counters the experiments read.
type Stats struct {
	TasksExecuted int64
	LocalHits     int64
	RemoteFetches int64
	PushesSent    int64
	PushesRecv    int64
	DPUHops       int64
	// BusyMicros accumulates worker-slot occupancy: the time between slot
	// acquire and release, summed over tasks. E16 measures the
	// worker-seconds reclaimed by cancellation as the drop in this counter.
	BusyMicros int64
	// Migration counters (live-drain subsystem, experiment E14).
	ActorsMigratedIn   int64
	ActorsMigratedOut  int64
	ObjectsMigratedOut int64
	// ForwardFollows counts reads that chased a tombstone-forward after
	// racing a migration.
	ForwardFollows int64
}

// Raylet is one node's daemon. Create with New, then Start.
type Raylet struct {
	cfg      Config
	store    *objectstore.Store
	slots    chan struct{}
	pushWait time.Duration

	arrivalsMu sync.Mutex
	arrivals   map[idgen.ObjectID][]chan struct{}

	actorsMu    sync.Mutex
	actorStates map[idgen.ActorID]map[string][]byte
	actorLocks  map[idgen.ActorID]*sync.Mutex
	actorSeqs   map[idgen.ActorID]uint64
	// frozenActors gates task admission during a live migration: queued
	// tasks park on the channel (without holding the actor lock, so the
	// freeze can drain) until resume closes it. movedActors are cutover
	// tombstones: tasks arriving after commit bounce back with
	// ExecResponse.ActorMovedTo instead of executing against dropped state.
	frozenActors map[idgen.ActorID]chan struct{}
	movedActors  map[idgen.ActorID]forwardEntry

	// migMu guards movedObjects, the tombstone-forward map stale readers
	// resolve through after an object migrates away (GetResponse.MovedTo).
	migMu        sync.Mutex
	movedObjects map[idgen.ObjectID]forwardEntry

	statsMu sync.Mutex
	stats   Stats
	// StallHist records per-task argument-resolution stall in microseconds.
	StallHist metrics.Histogram
}

// New returns a raylet for the given configuration.
func New(cfg Config) (*Raylet, error) {
	store := cfg.Layer.Store(cfg.Node)
	if store == nil {
		return nil, fmt.Errorf("raylet: no store registered for node %s", cfg.Node.Short())
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	r := &Raylet{
		cfg:         cfg,
		store:       store,
		slots:       make(chan struct{}, cfg.Slots),
		pushWait:    2 * time.Second,
		arrivals:    make(map[idgen.ObjectID][]chan struct{}),
		actorStates: make(map[idgen.ActorID]map[string][]byte),
		actorLocks:  make(map[idgen.ActorID]*sync.Mutex),
		actorSeqs:   make(map[idgen.ActorID]uint64),

		frozenActors: make(map[idgen.ActorID]chan struct{}),
		movedActors:  make(map[idgen.ActorID]forwardEntry),
		movedObjects: make(map[idgen.ObjectID]forwardEntry),
	}
	for i := 0; i < cfg.Slots; i++ {
		r.slots <- struct{}{}
	}
	return r, nil
}

// Node returns the raylet's node ID.
func (r *Raylet) Node() idgen.NodeID { return r.cfg.Node }

// Start registers the raylet's RPC handler.
func (r *Raylet) Start() error {
	return r.cfg.Transport.Listen(r.cfg.Node, r.handle)
}

// Handler exposes the RPC handler so a runtime can multiplex a raylet with
// a co-located head service on one node.
func (r *Raylet) Handler() transport.Handler { return r.handle }

// FetchLocal resolves an object to local bytes using the raylet's
// configured resolution protocol; drivers use it to read results.
func (r *Raylet) FetchLocal(ctx context.Context, id idgen.ObjectID) ([]byte, error) {
	return r.resolveRef(ctx, id)
}

// Stop unregisters the handler.
func (r *Raylet) Stop() {
	r.cfg.Transport.Unlisten(r.cfg.Node)
}

// Stats returns a snapshot of the raylet's counters.
func (r *Raylet) Stats() Stats {
	r.statsMu.Lock()
	defer r.statsMu.Unlock()
	return r.stats
}

// bump applies f to the stats under the lock.
func (r *Raylet) bump(f func(*Stats)) {
	r.statsMu.Lock()
	f(&r.stats)
	r.statsMu.Unlock()
}

// proxyHop charges one Gen-1 DPU transit of size bytes, if configured.
// When ctx carries a trace the hop is recorded as a dpu-hop span, so
// critical-path analysis can attribute exactly which hops bounded a task.
func (r *Raylet) proxyHop(ctx context.Context, size int) {
	if r.cfg.DPUProxy.IsNil() {
		return
	}
	// A departed DPU fails the charge; the subsequent transport call fails
	// typed on the same condition, so the error is dropped here.
	_, _ = r.cfg.Fabric.SendCtx(ctx, r.cfg.Node, r.cfg.DPUProxy, size)
	r.bump(func(s *Stats) { s.DPUHops++ })
}

// call issues an outbound RPC, adding Gen-1 DPU hops around it.
func (r *Raylet) call(ctx context.Context, to idgen.NodeID, kind string, payload []byte) ([]byte, error) {
	r.proxyHop(ctx, len(payload))
	resp, err := r.cfg.Transport.Call(ctx, r.cfg.Node, to, kind, payload)
	r.proxyHop(ctx, len(resp))
	return resp, err
}

// callOwner issues an own.* RPC for an object to the node that owns its
// directory entry: the object's shard host on the consistent-hash ring. A
// transport failure re-resolves once — the ring may have handed the shard
// off while the call was in flight — and finally falls back to Head, which
// always hosts a shard.
func (r *Raylet) callOwner(ctx context.Context, id idgen.ObjectID, kind string, payload []byte) ([]byte, error) {
	owner, ok := r.cfg.OwnerRouter(id)
	if !ok {
		owner = r.cfg.Head
	}
	resp, err := r.call(ctx, owner, kind, payload)
	if err == nil || !errors.Is(err, transport.ErrUnreachable) || ctx.Err() != nil {
		return resp, err
	}
	if next, ok := r.cfg.OwnerRouter(id); ok && next != owner {
		owner = next
		resp, err = r.call(ctx, owner, kind, payload)
		if err == nil || !errors.Is(err, transport.ErrUnreachable) || ctx.Err() != nil {
			return resp, err
		}
	}
	if owner != r.cfg.Head {
		return r.call(ctx, r.cfg.Head, kind, payload)
	}
	return resp, err
}

// handle dispatches one inbound RPC.
func (r *Raylet) handle(ctx context.Context, from idgen.NodeID, kind string, payload []byte) ([]byte, error) {
	// Gen-1: the inbound message physically entered through the DPU.
	r.proxyHop(ctx, len(payload))
	resp, err := r.dispatch(ctx, from, kind, payload)
	r.proxyHop(ctx, len(resp))
	return resp, err
}

func (r *Raylet) dispatch(ctx context.Context, from idgen.NodeID, kind string, payload []byte) ([]byte, error) {
	switch kind {
	case KindExec:
		var req ExecRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		return r.execTask(ctx, &req.Spec)

	case KindGet:
		var req GetRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		data, format, err := r.store.Get(req.ID)
		if err != nil {
			// Tombstone-forward: the copy migrated away; tell the reader
			// where instead of erroring, so in-flight pulls racing a live
			// migration resolve without a retry loop. An expired tombstone
			// errors instead; the reader then falls back to the ownership
			// table's forwarding entry (queryForward).
			r.migMu.Lock()
			fwd, moved := r.movedObjects[req.ID]
			if moved && time.Now().After(fwd.expires) {
				delete(r.movedObjects, req.ID)
				moved = false
			}
			r.migMu.Unlock()
			if moved {
				return transport.Encode(GetResponse{MovedTo: fwd.to})
			}
			return nil, err
		}
		return transport.Encode(GetResponse{Data: data, Format: format})

	case KindPush:
		var req PushRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		r.receivePush(req.ID, req.Data, req.Format)
		return nil, nil

	case KindDelete:
		var req DeleteRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		if err := r.store.Delete(req.ID); err != nil && !errors.Is(err, objectstore.ErrNotFound) {
			return nil, err
		}
		return nil, nil

	case KindPing:
		return []byte("pong"), nil

	case KindGossipProbe:
		return ServeGossipProbe(r.cfg.Node, payload)

	case KindMigrateFreeze:
		var req MigrateFreezeRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		return r.migrateFreeze(&req)

	case KindMigrateTransfer:
		var req MigrateTransferRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		if !req.Actor.IsNil() {
			return r.migrateTransferActor(ctx, &req)
		}
		return r.migrateTransferObject(ctx, &req)

	case KindMigrateInstall:
		var req MigrateInstallRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		r.migrateInstall(&req)
		return nil, nil

	case KindMigrateResume:
		var req MigrateResumeRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		r.migrateResume(&req)
		return nil, nil

	default:
		// Shard hosts serve own.* RPCs with the same dispatch the head uses.
		if resp, handled, err := ServeOwnership(ctx, r.cfg.Directory, kind, payload); handled {
			return resp, err
		}
		return nil, fmt.Errorf("raylet: unknown RPC kind %q", kind)
	}
}

// forwardEntry is one cutover tombstone: where the actor/object went, and
// when the entry may be dropped. Tombstones only serve requests that were
// already in flight at cutover (everything dispatched afterwards targets
// the new location), so they expire after tombstoneTTL — far longer than
// any RPC stays in flight — instead of accumulating one entry per
// migration for the raylet's lifetime. Expired object reads fall back to
// the ownership table's forwarding entries (queryForward).
type forwardEntry struct {
	to      idgen.NodeID
	expires time.Time
}

const tombstoneTTL = time.Minute

// HygieneCounts is a snapshot of the raylet's migration bookkeeping for
// invariant checkers: after a migration episode quiesces, frozen actors
// and held locks must be zero, and tombstones must be bounded (live ones
// expire; none may survive a full drain).
type HygieneCounts struct {
	FrozenActors                                  int
	HeldLocks                                     int
	LiveActorTombstones, ExpiredActorTombstones   int
	LiveObjectTombstones, ExpiredObjectTombstones int
}

// MigrationHygiene counts leaked migration state. Lock-holding is probed
// with TryLock, so the snapshot is advisory: call it only at quiesce, when
// no task should legitimately hold an actor lock.
func (r *Raylet) MigrationHygiene() HygieneCounts {
	now := time.Now()
	var h HygieneCounts
	r.actorsMu.Lock()
	h.FrozenActors = len(r.frozenActors)
	for _, lock := range r.actorLocks {
		if lock.TryLock() {
			lock.Unlock()
		} else {
			h.HeldLocks++
		}
	}
	for _, fwd := range r.movedActors {
		if now.After(fwd.expires) {
			h.ExpiredActorTombstones++
		} else {
			h.LiveActorTombstones++
		}
	}
	r.actorsMu.Unlock()
	r.migMu.Lock()
	for _, fwd := range r.movedObjects {
		if now.After(fwd.expires) {
			h.ExpiredObjectTombstones++
		} else {
			h.LiveObjectTombstones++
		}
	}
	r.migMu.Unlock()
	return h
}

// movedActorTo returns the live cutover tombstone for an actor, dropping
// it if expired. Caller holds actorsMu.
func (r *Raylet) movedActorTo(a idgen.ActorID) (idgen.NodeID, bool) {
	fwd, ok := r.movedActors[a]
	if !ok {
		return idgen.Nil, false
	}
	if time.Now().After(fwd.expires) {
		delete(r.movedActors, a)
		return idgen.Nil, false
	}
	return fwd.to, true
}

// migrateFreeze pauses an actor: admission is gated on a freeze channel,
// then the handler acquires (and releases) the per-actor lock so the
// currently running task, if any, completes before the response. Queued
// tasks park on the channel — not the lock — so the freeze cannot deadlock
// behind them.
func (r *Raylet) migrateFreeze(req *MigrateFreezeRequest) ([]byte, error) {
	r.actorsMu.Lock()
	lock, known := r.actorLocks[req.Actor]
	if _, frozen := r.frozenActors[req.Actor]; !frozen {
		r.frozenActors[req.Actor] = make(chan struct{})
	}
	r.actorsMu.Unlock()
	if !known {
		// Never ran here (e.g. re-pinned after a node failure but not yet
		// executed): only the admission gate goes up. Deliberately no lock
		// or state entry — pre-registering the actor would make the
		// transfer ship empty state as if it were real, and the install at
		// the destination would then suppress the first-arrival checkpoint
		// restore there, losing the actor's durable state.
		return transport.Encode(MigrateFreezeResponse{Known: false})
	}

	// Wait out the running task; with the gate up nothing new gets in.
	lock.Lock()
	r.actorsMu.Lock()
	seq := r.actorSeqs[req.Actor]
	r.actorsMu.Unlock()
	lock.Unlock()
	return transport.Encode(MigrateFreezeResponse{Seq: seq, Known: true})
}

// migrateTransferActor ships a frozen actor's state directly to the
// destination raylet (migrate.install), so the bytes cross the fabric once:
// source → destination, not source → coordinator → destination.
func (r *Raylet) migrateTransferActor(ctx context.Context, req *MigrateTransferRequest) ([]byte, error) {
	r.actorsMu.Lock()
	lock, known := r.actorLocks[req.Actor]
	r.actorsMu.Unlock()
	if !known {
		return transport.Encode(MigrateTransferResponse{Found: false})
	}
	// The actor should be frozen; take the lock anyway so a rolled-back or
	// unfrozen transfer still snapshots a quiescent state.
	lock.Lock()
	r.actorsMu.Lock()
	var bytes int64
	state := make(map[string][]byte, len(r.actorStates[req.Actor]))
	for k, v := range r.actorStates[req.Actor] {
		state[k] = append([]byte(nil), v...)
		bytes += int64(len(k) + len(v))
	}
	seq := r.actorSeqs[req.Actor]
	r.actorsMu.Unlock()
	lock.Unlock()

	install := transport.MustEncode(MigrateInstallRequest{Actor: req.Actor, Seq: seq, State: state})
	if _, err := r.call(ctx, req.Dest, KindMigrateInstall, install); err != nil {
		return nil, fmt.Errorf("raylet: migrate.install at %s: %w", req.Dest.Short(), err)
	}
	r.bump(func(s *Stats) { s.ActorsMigratedOut++ })
	return transport.Encode(MigrateTransferResponse{Bytes: bytes, Found: true})
}

// migrateInstall adopts migrated actor state (the receiving half of an
// actor transfer). Any cutover tombstone from an earlier migration away is
// cleared: the actor lives here again.
func (r *Raylet) migrateInstall(req *MigrateInstallRequest) {
	r.actorsMu.Lock()
	if req.Stateless {
		// The source never executed the actor, so there is no state to
		// adopt. Drop leftovers from an earlier residence (lock/state/seq
		// entries and the tombstone) WITHOUT marking the actor known, so
		// its next task here takes the first-arrival checkpoint-restore
		// path instead of starting from empty state.
		delete(r.actorLocks, req.Actor)
		delete(r.actorStates, req.Actor)
		delete(r.actorSeqs, req.Actor)
		delete(r.movedActors, req.Actor)
		r.actorsMu.Unlock()
		return
	}
	if _, ok := r.actorLocks[req.Actor]; !ok {
		r.actorLocks[req.Actor] = &sync.Mutex{}
	}
	state := make(map[string][]byte, len(req.State))
	for k, v := range req.State {
		state[k] = v
	}
	r.actorStates[req.Actor] = state
	r.actorSeqs[req.Actor] = req.Seq
	delete(r.movedActors, req.Actor)
	r.actorsMu.Unlock()
	r.bump(func(s *Stats) { s.ActorsMigratedIn++ })
}

// migrateResume finishes a migration on the source. Commit installs the
// cutover tombstone and drops the shipped state — including the lock
// entry, so the actor is fully forgotten here (a later migration back
// re-creates it, and until then first-arrival restore would apply);
// rollback just lifts the gate. Either way parked tasks wake: after
// commit they bounce to the destination, after rollback they run locally.
func (r *Raylet) migrateResume(req *MigrateResumeRequest) {
	r.actorsMu.Lock()
	if req.Commit {
		now := time.Now()
		for a, fwd := range r.movedActors {
			if now.After(fwd.expires) {
				delete(r.movedActors, a)
			}
		}
		r.movedActors[req.Actor] = forwardEntry{to: req.Dest, expires: now.Add(tombstoneTTL)}
		delete(r.actorStates, req.Actor)
		delete(r.actorSeqs, req.Actor)
		delete(r.actorLocks, req.Actor)
	}
	if gate, frozen := r.frozenActors[req.Actor]; frozen {
		close(gate)
		delete(r.frozenActors, req.Actor)
	}
	r.actorsMu.Unlock()
}

// migrateTransferObject copies one resident object to the destination
// raylet (raylet.push), installs a tombstone-forward for stale readers,
// and drops the local copy. Ownership-table updates (MoveLocation) are the
// migrator's job; this handler only moves bytes.
func (r *Raylet) migrateTransferObject(ctx context.Context, req *MigrateTransferRequest) ([]byte, error) {
	data, format, err := r.store.Get(req.Object)
	if err != nil {
		// No local copy (DSM-only or already evicted): nothing to move.
		return transport.Encode(MigrateTransferResponse{Found: false})
	}
	push := transport.MustEncode(PushRequest{ID: req.Object, Data: data, Format: format})
	if _, err := r.call(ctx, req.Dest, KindPush, push); err != nil {
		return nil, fmt.Errorf("raylet: migrate push to %s: %w", req.Dest.Short(), err)
	}
	r.migMu.Lock()
	now := time.Now()
	for id, fwd := range r.movedObjects {
		if now.After(fwd.expires) {
			delete(r.movedObjects, id)
		}
	}
	r.movedObjects[req.Object] = forwardEntry{to: req.Dest, expires: now.Add(tombstoneTTL)}
	r.migMu.Unlock()
	r.cfg.Layer.ForgetLocation(r.cfg.Node, req.Object)
	_ = r.store.Delete(req.Object)
	r.bump(func(s *Stats) { s.ObjectsMigratedOut++ })
	return transport.Encode(MigrateTransferResponse{Bytes: int64(len(data)), Found: true})
}

// receivePush stores a pushed object and wakes local waiters.
func (r *Raylet) receivePush(id idgen.ObjectID, data []byte, format string) {
	if err := r.store.Put(id, data, format); err != nil && !errors.Is(err, objectstore.ErrExists) {
		// Store pressure: the object still exists at the producer; pull
		// resolution will fetch it if the waiter needs it. Drop the push.
		return
	}
	r.cfg.Layer.NoteLocation(r.cfg.Node, id)
	// The copy is back; a tombstone from an earlier migration away would
	// misdirect readers, so clear it.
	r.migMu.Lock()
	delete(r.movedObjects, id)
	r.migMu.Unlock()
	r.bump(func(s *Stats) { s.PushesRecv++ })
	r.wakeArrivals(id)
}

// wakeArrivals releases every waitArrival parked on id, after the object
// has landed in the local store.
func (r *Raylet) wakeArrivals(id idgen.ObjectID) {
	r.arrivalsMu.Lock()
	for _, ch := range r.arrivals[id] {
		close(ch)
	}
	delete(r.arrivals, id)
	r.arrivalsMu.Unlock()
}

// waitArrival blocks until the object lands in the local store (a push
// from its producer, or a local commit) or the context ends; on context
// end the registration is removed.
func (r *Raylet) waitArrival(ctx context.Context, id idgen.ObjectID) error {
	r.arrivalsMu.Lock()
	if r.store.Contains(id) {
		r.arrivalsMu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	r.arrivals[id] = append(r.arrivals[id], ch)
	r.arrivalsMu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		r.arrivalsMu.Lock()
		chans := r.arrivals[id]
		for i, c := range chans {
			if c == ch {
				r.arrivals[id] = append(chans[:i], chans[i+1:]...)
				break
			}
		}
		if len(r.arrivals[id]) == 0 {
			delete(r.arrivals, id)
		}
		r.arrivalsMu.Unlock()
		return ctx.Err()
	}
}

// execTask resolves arguments, runs the function, and commits results.
// Argument resolution happens *before* a worker slot is taken, so tasks
// waiting on inputs do not hold compute — the "wait mode" of §2.1.
func (r *Raylet) execTask(ctx context.Context, spec *task.Spec) ([]byte, error) {
	// Cancellation checkpoint before any work: a task revoked while queued
	// on the wire costs nothing here.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Stamp the tenant from the spec so cache puts during commit are
	// attributed (and quota-bounded) regardless of which transport carried
	// the exec RPC or whether this is a recovery re-execution.
	if spec.Tenant != "" {
		ctx = tenancy.ContextWith(ctx, spec.Tenant)
	}
	args := make([][]byte, len(spec.Args))
	var stall time.Duration
	for i, a := range spec.Args {
		if !a.IsRef {
			args[i] = a.Value
			continue
		}
		// Checkpoint between argument resolutions: deep input chains stop
		// pulling the moment the task is revoked.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now()
		actx, stallSp := trace.Start(ctx, trace.KindPullStall, r.cfg.Node)
		stallSp.SetAttr("obj", a.Ref.Short())
		data, err := r.resolveRef(actx, a.Ref)
		stallSp.End()
		if err != nil {
			return nil, fmt.Errorf("raylet: resolving arg %d of %s: %w", i, spec.Fn, err)
		}
		stall += time.Since(start)
		args[i] = data
	}
	r.StallHist.ObserveDuration(stall)

	// Acquire a worker slot for the compute phase only.
	_, slotSp := trace.Start(ctx, trace.KindSlotWait, r.cfg.Node)
	select {
	case <-r.slots:
	case <-ctx.Done():
		slotSp.End()
		return nil, ctx.Err()
	}
	slotSp.End()
	busyStart := time.Now()
	defer func() {
		r.bump(func(s *Stats) { s.BusyMicros += time.Since(busyStart).Microseconds() })
		r.slots <- struct{}{}
	}()
	// Checkpoint after the slot wait: a task cancelled while queued for a
	// slot releases it immediately instead of executing.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	fn, err := r.cfg.Registry.Lookup(spec.Fn)
	if err != nil {
		return nil, err
	}
	tctx := &task.Context{
		Node:      r.cfg.Node,
		Backend:   r.cfg.Backend,
		TimeScale: r.cfg.TimeScale,
		Spec:      spec,
		Ctx:       ctx,
	}

	_, execSp := trace.Start(ctx, trace.KindExec, r.cfg.Node)
	execSp.SetAttr("fn", spec.Fn).SetAttr("backend", r.cfg.Backend)
	var outs [][]byte
	if spec.Actor.IsNil() {
		if spec.Duration > 0 {
			tctx.Compute(spec.Duration)
		}
		outs, err = fn(tctx, args)
	} else {
		outs, err = r.execActorTask(ctx, tctx, fn, spec, args)
	}
	execSp.End()
	if err != nil {
		var moved *ActorMigratedError
		if errors.As(err, &moved) {
			// Not a failure: the actor cut over mid-queue. Bounce the task
			// back with the forward address; the submitter re-dispatches.
			execSp.SetAttr("actor-moved-to", moved.To.Short())
			return transport.Encode(ExecResponse{ActorMovedTo: moved.To})
		}
		return nil, err
	}
	if len(outs) != len(spec.Returns) {
		return nil, fmt.Errorf("raylet: %s returned %d values, spec declares %d", spec.Fn, len(outs), len(spec.Returns))
	}
	// Post-exec checkpoint: a kernel that was interrupted mid-Compute (or
	// finished after revocation) must not commit partial outputs.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	resp := ExecResponse{StallMicros: stall.Microseconds()}
	for i, out := range outs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cctx, commitSp := trace.Start(ctx, trace.KindCommit, r.cfg.Node)
		commitSp.SetAttr("obj", spec.Returns[i].Short())
		err := r.commit(cctx, spec.Returns[i], out)
		commitSp.End()
		if err != nil {
			return nil, err
		}
		resp.ResultSizes = append(resp.ResultSizes, int64(len(out)))
	}
	r.bump(func(s *Stats) { s.TasksExecuted++ })
	return transport.Encode(resp)
}

// execActorTask runs a task against its actor's private state, serialized
// per actor. State is checkpointed to the head after every task, and an
// actor arriving on this node for the first time restores the latest
// checkpoint — so actor state survives node failures (§1: the caching
// layer "can store states").
func (r *Raylet) execActorTask(ctx context.Context, tctx *task.Context, fn task.Func, spec *task.Spec, args [][]byte) ([][]byte, error) {
	var lock *sync.Mutex
	var state map[string][]byte
	var known bool
	// Admission loop: a frozen actor (live migration in flight) parks the
	// task on the freeze channel *without* holding the actor lock, so the
	// freeze can drain the running task. After the gate lifts, re-check
	// under the lock: a committed cutover bounces the task to the new node.
	for {
		r.actorsMu.Lock()
		if to, moved := r.movedActorTo(spec.Actor); moved {
			r.actorsMu.Unlock()
			return nil, &ActorMigratedError{Actor: spec.Actor, To: to}
		}
		if gate, frozen := r.frozenActors[spec.Actor]; frozen {
			r.actorsMu.Unlock()
			select {
			case <-gate:
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		lock, known = r.actorLocks[spec.Actor]
		if !known {
			lock = &sync.Mutex{}
			r.actorLocks[spec.Actor] = lock
			r.actorStates[spec.Actor] = make(map[string][]byte)
		}
		state = r.actorStates[spec.Actor]
		r.actorsMu.Unlock()

		lock.Lock()
		// The freeze/cutover may have slipped in between dropping actorsMu
		// and acquiring the actor lock; re-validate before running.
		r.actorsMu.Lock()
		if to, moved := r.movedActorTo(spec.Actor); moved {
			r.actorsMu.Unlock()
			lock.Unlock()
			return nil, &ActorMigratedError{Actor: spec.Actor, To: to}
		}
		_, frozen := r.frozenActors[spec.Actor]
		// State may have been replaced by a migrate.install while we waited.
		state = r.actorStates[spec.Actor]
		r.actorsMu.Unlock()
		if frozen {
			lock.Unlock()
			continue
		}
		break
	}
	defer lock.Unlock()

	if !known {
		// First task of this actor on this node: adopt the latest
		// checkpoint, if any (the actor may have moved here after a
		// failure).
		req := transport.MustEncode(ActorRestoreRequest{Actor: spec.Actor})
		if respB, err := r.call(context.Background(), r.cfg.Head, KindActorRestore, req); err == nil {
			var resp ActorRestoreResponse
			if err := transport.Decode(respB, &resp); err == nil && resp.State != nil {
				for k, v := range resp.State {
					state[k] = v
				}
				r.actorsMu.Lock()
				r.actorSeqs[spec.Actor] = resp.Seq
				r.actorsMu.Unlock()
			}
		}
	}

	tctx.ActorState = state
	if spec.Duration > 0 {
		tctx.Compute(spec.Duration)
	}
	outs, err := fn(tctx, args)
	if err != nil {
		return nil, err
	}
	// Checkpoint the post-task state (best effort: a missed checkpoint
	// only widens the failure window, it does not affect correctness of
	// the healthy path).
	r.actorsMu.Lock()
	r.actorSeqs[spec.Actor]++
	seq := r.actorSeqs[spec.Actor]
	r.actorsMu.Unlock()
	ckpt := transport.MustEncode(ActorCkptRequest{Actor: spec.Actor, Seq: seq, State: state})
	_, _ = r.call(context.Background(), r.cfg.Head, KindActorCkpt, ckpt)
	return outs, nil
}

// commit stores one result and publishes it: caching-layer put (local copy,
// replication/EC per the layer's mode), ownership MarkReady, and pushes to
// subscribers in push mode.
func (r *Raylet) commit(ctx context.Context, id idgen.ObjectID, data []byte) error {
	if err := r.cfg.Layer.PutCtx(ctx, r.cfg.Node, id, data, "raw"); err != nil && !errors.Is(err, objectstore.ErrExists) {
		return err
	}
	// A consumer on this node that subscribed before the commit gets no
	// push: own.ready leaves the producing node out of the subscriber list.
	r.wakeArrivals(id)
	handle := ""
	deviceID := idgen.Nil
	if r.cfg.Backend != "" && r.cfg.Backend != "cpu" {
		// The heterogeneity-aware ownership extension: record where in
		// device memory the value lives.
		deviceID = r.cfg.Node
		handle = fmt.Sprintf("%s:%s/obj-%s", r.cfg.Backend, r.cfg.Node.Short(), id.Short())
	}
	payload := transport.MustEncode(OwnReadyRequest{
		ID: id, Size: int64(len(data)), Location: r.cfg.Node,
		DeviceID: deviceID, DeviceHandle: handle,
	})
	resp, err := r.callOwner(ctx, id, KindOwnReady, payload)
	if err != nil {
		return fmt.Errorf("raylet: own.ready: %w", err)
	}
	var ready OwnReadyResponse
	if err := transport.Decode(resp, &ready); err != nil {
		return err
	}
	for _, sub := range ready.Subscribers {
		if err := r.pushTo(ctx, sub, id, data, "raw"); err != nil {
			// A dead subscriber will pull (or fail) on its own; a push is
			// an optimization, not a correctness requirement.
			continue
		}
	}
	return nil
}

// pushTo sends object bytes to a consumer node proactively.
func (r *Raylet) pushTo(ctx context.Context, to idgen.NodeID, id idgen.ObjectID, data []byte, format string) error {
	ctx, sp := trace.Start(ctx, trace.KindPush, r.cfg.Node)
	sp.SetAttr("to", to.Short()).SetAttr("obj", id.Short())
	defer sp.End()
	payload := transport.MustEncode(PushRequest{ID: id, Data: data, Format: format})
	if _, err := r.call(ctx, to, KindPush, payload); err != nil {
		return err
	}
	r.bump(func(s *Stats) { s.PushesSent++ })
	// Record the new copy so schedulers and readers can find it.
	loc := transport.MustEncode(OwnAddLocRequest{ID: id, Node: to})
	_, err := r.callOwner(ctx, id, KindOwnAddLoc, loc)
	return err
}

// resolveRef returns the bytes of one reference argument, using the
// configured resolution protocol.
func (r *Raylet) resolveRef(ctx context.Context, id idgen.ObjectID) ([]byte, error) {
	if data, _, err := r.store.Get(id); err == nil {
		r.bump(func(s *Stats) { s.LocalHits++ })
		return data, nil
	}
	if r.cfg.Resolution == Push {
		return r.resolvePush(ctx, id)
	}
	return r.resolvePull(ctx, id)
}

// resolvePull implements Ray's vanilla protocol: wait for readiness at the
// owner, look up locations, fetch on demand.
func (r *Raylet) resolvePull(ctx context.Context, id idgen.ObjectID) ([]byte, error) {
	wait := transport.MustEncode(OwnWaitRequest{ID: id})
	if _, err := r.callOwner(ctx, id, KindOwnWait, wait); err != nil {
		return nil, err
	}
	get := transport.MustEncode(OwnGetRequest{ID: id})
	resp, err := r.callOwner(ctx, id, KindOwnGet, get)
	if err != nil {
		return nil, err
	}
	var rec OwnGetResponse
	if err := transport.Decode(resp, &rec); err != nil {
		return nil, err
	}
	return r.fetch(ctx, id, rec.Rec.Locations)
}

// resolvePush subscribes for a proactive push; if the object is already
// ready it degenerates to a pull fetch.
func (r *Raylet) resolvePush(ctx context.Context, id idgen.ObjectID) ([]byte, error) {
	sub := transport.MustEncode(OwnSubscribeRequest{ID: id, Node: r.cfg.Node})
	resp, err := r.callOwner(ctx, id, KindOwnSubscribe, sub)
	if err != nil {
		return nil, err
	}
	var s OwnSubscribeResponse
	if err := transport.Decode(resp, &s); err != nil {
		return nil, err
	}
	if s.Ready {
		return r.fetch(ctx, id, s.Rec.Locations)
	}
	// A push is an optimization, not a delivery guarantee (it can be
	// dropped under store pressure or lost to races at scale); bound the
	// wait and fall back to the pull protocol, which blocks on the owner
	// until readiness and always finds a copy.
	arrCtx, cancel := context.WithTimeout(ctx, r.pushWait)
	err = r.waitArrival(arrCtx, id)
	cancel()
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return r.resolvePull(ctx, id)
	}
	data, _, err := r.store.Get(id)
	if err != nil {
		// Evicted between arrival and read; fall back to a pull.
		return r.resolvePull(ctx, id)
	}
	return data, nil
}

// fetch pulls object bytes from the cheapest reachable location and caches
// them locally. If every location fails it falls back to the caching
// layer's recovery paths (replica, DSM, erasure reconstruction).
func (r *Raylet) fetch(ctx context.Context, id idgen.ObjectID, locations []idgen.NodeID) ([]byte, error) {
	ctx, sp := trace.Start(ctx, trace.KindFetch, r.cfg.Node)
	sp.SetAttr("obj", id.Short())
	defer sp.End()
	// Cheapest location first.
	locs := append([]idgen.NodeID(nil), locations...)
	for i := 0; i < len(locs); i++ {
		for j := i + 1; j < len(locs); j++ {
			if r.cfg.Fabric.Cost(locs[j], r.cfg.Node, 0) < r.cfg.Fabric.Cost(locs[i], r.cfg.Node, 0) {
				locs[i], locs[j] = locs[j], locs[i]
			}
		}
	}
	for _, loc := range locs {
		if loc == r.cfg.Node {
			if data, _, err := r.store.Get(id); err == nil {
				return data, nil
			}
			continue
		}
		// A location may be stale mid-migration: chase raylet tombstones
		// (GetResponse.MovedTo) and, when the source is already gone,
		// ownership forwarding entries (own.forward). Hop bound covers
		// chained migrations without risking a ping-pong loop.
		const maxHops = 4
		target := loc
		for hop := 0; hop < maxHops && !target.IsNil(); hop++ {
			if hop > 0 {
				r.bump(func(s *Stats) { s.ForwardFollows++ })
				sp.SetAttr("forwarded-from", loc.Short())
			}
			payload := transport.MustEncode(GetRequest{ID: id})
			resp, err := r.call(ctx, target, KindGet, payload)
			if err != nil {
				// Source unreachable (e.g. decommissioned after the drain):
				// ask the ownership table where its copy went.
				target = r.queryForward(ctx, id, target)
				continue
			}
			var get GetResponse
			if err := transport.Decode(resp, &get); err != nil {
				break
			}
			if !get.MovedTo.IsNil() {
				target = get.MovedTo
				continue
			}
			sp.SetAttr("from", target.Short())
			r.bump(func(s *Stats) { s.RemoteFetches++ })
			r.cacheLocal(ctx, id, get.Data, get.Format)
			return get.Data, nil
		}
	}
	// Last resort: the caching layer's redundancy paths.
	data, format, err := r.cfg.Layer.GetCtx(ctx, r.cfg.Node, id)
	if err != nil {
		// Every copy the record and the layer knew of is gone or stale: a
		// holder died and the runtime has not settled the record yet. That
		// calls for placing the task again, not for declaring the data lost
		// — only recovery judges that.
		return nil, skaderr.Mark(skaderr.Unavailable, fmt.Errorf("%w: %s", ErrNoLocation, id.Short()))
	}
	r.cacheLocal(ctx, id, data, format)
	return data, nil
}

// queryForward asks the head's ownership table where a stale location's
// copy migrated (own.forward), returning Nil when no forward exists. This
// is the fallback for readers whose source raylet already shut down, so
// its tombstone map is unreachable.
func (r *Raylet) queryForward(ctx context.Context, id idgen.ObjectID, stale idgen.NodeID) idgen.NodeID {
	req := transport.MustEncode(OwnForwardRequest{ID: id, Stale: stale})
	respB, err := r.callOwner(ctx, id, KindOwnForward, req)
	if err != nil {
		return idgen.Nil
	}
	var resp OwnForwardResponse
	if err := transport.Decode(respB, &resp); err != nil || !resp.Found {
		return idgen.Nil
	}
	return resp.To
}

// cacheLocal keeps a fetched copy in the local store and registers the
// location, enabling future local hits and locality-aware scheduling.
func (r *Raylet) cacheLocal(ctx context.Context, id idgen.ObjectID, data []byte, format string) {
	if err := r.store.Put(id, data, format); err != nil {
		return
	}
	r.cfg.Layer.NoteLocation(r.cfg.Node, id)
	loc := transport.MustEncode(OwnAddLocRequest{ID: id, Node: r.cfg.Node})
	_, _ = r.callOwner(ctx, id, KindOwnAddLoc, loc)
}
