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
	"slices"
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
}

// Raylet is one node's daemon. Create with New, then Start.
type Raylet struct {
	cfg      Config
	store    *objectstore.Store
	slots    chan struct{}
	pushWait time.Duration

	arrivalsMu sync.Mutex
	arrivals   map[idgen.ObjectID][]chan struct{}

	actorsMu sync.Mutex
	actors   map[idgen.ActorID]*actor
	// frozenActors gates task admission while migrate.transfer moves an
	// actor away: queued tasks park on the channel (without holding the
	// actor lock, so the transfer can wait out the running task) until the
	// transfer ends and closes it.
	frozenActors map[idgen.ActorID]chan struct{}

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
		cfg:          cfg,
		store:        store,
		slots:        make(chan struct{}, cfg.Slots),
		pushWait:     2 * time.Second,
		arrivals:     make(map[idgen.ObjectID][]chan struct{}),
		actors:       make(map[idgen.ActorID]*actor),
		frozenActors: make(map[idgen.ActorID]chan struct{}),
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
	_, _ = r.cfg.Fabric.Move(ctx, r.cfg.Node, r.cfg.DPUProxy, nil, size)
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
		return r.execTask(ctx, &req.Spec, req.Epoch)

	case KindGet:
		var req GetRequest
		if err := transport.Decode(payload, &req); err != nil {
			return nil, err
		}
		data, format, err := r.store.Get(req.ID)
		if err != nil {
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

	default:
		// Shard hosts serve own.* RPCs with the same dispatch the head uses.
		if resp, handled, err := ServeOwnership(ctx, r.cfg.Directory, kind, payload); handled {
			return resp, err
		}
		return nil, fmt.Errorf("raylet: unknown RPC kind %q", kind)
	}
}

// actor is one actor hosted by this raylet.
type actor struct {
	// mu serializes the actor's tasks. migrate.transfer holds it while the
	// state ships and the record is retargeted.
	mu sync.Mutex
	// state is nil until the actor's state is adopted here.
	state map[string][]byte
	seq   uint64
	// epoch is the actor record's epoch when it last named this node and
	// the state was adopted here; 0 until then — shipped state whose
	// retarget may not have happened, or state kept after a retarget that
	// failed. A task sent at another epoch reads the record first (see
	// admitActor).
	epoch uint64
}

// HygieneCounts is a snapshot of the raylet's migration bookkeeping for
// invariant checkers: after a migration episode quiesces, frozen actors
// and held locks must be zero.
type HygieneCounts struct {
	FrozenActors int
	HeldLocks    int
	// Actors counts the actor entries this raylet holds.
	Actors int
}

// MigrationHygiene counts leaked migration state. Lock-holding is probed
// with TryLock, so the snapshot is advisory: call it only at quiesce, when
// no task should legitimately hold an actor lock.
func (r *Raylet) MigrationHygiene() HygieneCounts {
	r.actorsMu.Lock()
	defer r.actorsMu.Unlock()
	h := HygieneCounts{FrozenActors: len(r.frozenActors), Actors: len(r.actors)}
	for _, a := range r.actors {
		if a.mu.TryLock() {
			a.mu.Unlock()
		} else {
			h.HeldLocks++
		}
	}
	return h
}

// migrateTransferActor moves an actor to req.Dest: raise the admission
// gate and wait out the running task, ship the state to the destination
// (migrate.install), retarget the record at the head (actor.move), and only
// then drop the local entry and lift the gate. The bytes cross the fabric
// once, source → destination. If the ship or the retarget fails the gate
// lifts and the state stays here; no message is needed to roll back. After
// a failed retarget the record may have moved anyway (the reply was lost),
// so the kept state is no longer adopted and the next task reads the record.
// An actor that never ran here has no entry: nothing ships, and its first
// task at the destination restores the head checkpoint.
func (r *Raylet) migrateTransferActor(ctx context.Context, req *MigrateTransferRequest) ([]byte, error) {
	id := req.Actor
	r.actorsMu.Lock()
	if _, frozen := r.frozenActors[id]; frozen {
		r.actorsMu.Unlock()
		return nil, skaderr.New(skaderr.FailedPrecondition, "raylet: actor %s is already migrating", id.Short())
	}
	gate := make(chan struct{})
	r.frozenActors[id] = gate
	a := r.actors[id]
	r.actorsMu.Unlock()
	if a != nil {
		a.mu.Lock() // wait out the running task; the gate keeps new ones out
		defer a.mu.Unlock()
	}

	resp, err := r.shipActor(ctx, id, a, req.Dest)

	r.actorsMu.Lock()
	if err == nil && r.actors[id] == a {
		delete(r.actors, id)
	}
	delete(r.frozenActors, id)
	close(gate)
	r.actorsMu.Unlock()
	if err != nil {
		return nil, err
	}
	if resp.Found {
		r.bump(func(s *Stats) { s.ActorsMigratedOut++ })
	}
	return transport.Encode(resp)
}

// shipActor runs the middle of an actor transfer with the gate up and a.mu
// held (a is nil for an actor with no entry here): install the state at
// dest, then retarget the record from this node to dest.
func (r *Raylet) shipActor(ctx context.Context, id idgen.ActorID, a *actor, dest idgen.NodeID) (MigrateTransferResponse, error) {
	var resp MigrateTransferResponse
	if a != nil && a.state != nil {
		for k, v := range a.state {
			resp.Bytes += int64(len(k) + len(v))
		}
		install := transport.MustEncode(MigrateInstallRequest{Actor: id, Seq: a.seq, State: a.state})
		if _, err := r.call(ctx, dest, KindMigrateInstall, install); err != nil {
			return resp, fmt.Errorf("raylet: migrate.install at %s: %w", dest.Short(), err)
		}
		resp.Found = true
	}
	move := transport.MustEncode(ActorMoveRequest{Actor: id, From: r.cfg.Node, To: dest})
	if _, err := r.call(ctx, r.cfg.Head, KindActorMove, move); err != nil {
		if a != nil {
			a.epoch = 0
		}
		return resp, fmt.Errorf("raylet: actor.move %s to %s: %w", id.Short(), dest.Short(), err)
	}
	return resp, nil
}

// migrateInstall stages shipped actor state (the receiving half of an
// actor transfer). It replaces whatever entry this raylet held for the
// actor: the record names the source while the state is in flight. The
// staged state is not adopted, so it runs only once the record names this
// node (see admitActor).
func (r *Raylet) migrateInstall(req *MigrateInstallRequest) {
	state := req.State
	if state == nil {
		state = make(map[string][]byte)
	}
	r.actorsMu.Lock()
	r.actors[req.Actor] = &actor{state: state, seq: req.Seq}
	r.actorsMu.Unlock()
	r.bump(func(s *Stats) { s.ActorsMigratedIn++ })
}

// migrateTransferObject moves one resident object to the destination:
// copy (raylet.push), retarget the record (own.moveloc), drop the local
// copy. The record names a node holding the bytes at every step, so a
// reader that finds the source empty finds the destination by reading the
// record again. If the destination refused the push, own.moveloc fails its
// residency check and the source keeps both its copy and its place in the
// record.
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
	move := transport.MustEncode(OwnMoveLocRequest{ID: req.Object, From: r.cfg.Node, To: req.Dest})
	if _, err := r.callOwner(ctx, req.Object, KindOwnMoveLoc, move); err != nil {
		return nil, fmt.Errorf("raylet: migrate own.moveloc %s to %s: %w", req.Object.Short(), req.Dest.Short(), err)
	}
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
func (r *Raylet) execTask(ctx context.Context, spec *task.Spec, epoch uint64) ([]byte, error) {
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
		outs, err = r.execActorTask(ctx, tctx, fn, spec, epoch, args)
	}
	execSp.End()
	if err != nil {
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
// actor arriving on this node restores the latest checkpoint — so actor
// state survives node failures (§1: the caching layer "can store states").
func (r *Raylet) execActorTask(ctx context.Context, tctx *task.Context, fn task.Func, spec *task.Spec, epoch uint64, args [][]byte) ([][]byte, error) {
	a, err := r.admitActor(ctx, spec.Actor, epoch)
	if err != nil {
		return nil, err
	}
	defer a.mu.Unlock()
	tctx.ActorState = a.state
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
	a.seq++
	ckpt := transport.MustEncode(ActorCkptRequest{Actor: spec.Actor, Seq: a.seq, State: a.state})
	_, _ = r.call(context.Background(), r.cfg.Head, KindActorCkpt, ckpt)
	return outs, nil
}

// admitActor returns the actor's entry with its lock held, once no
// migration holds the actor and its record names this node. A task parks
// on a frozen actor's gate without holding the actor lock, so the transfer
// can wait out the running task. An entry adopted at another epoch than
// the task's (0: unknown) reads the record first (see adoptRecord), so
// state left here by a move away never runs once the record names this
// node again.
func (r *Raylet) admitActor(ctx context.Context, id idgen.ActorID, epoch uint64) (*actor, error) {
	for {
		r.actorsMu.Lock()
		if gate, frozen := r.frozenActors[id]; frozen {
			r.actorsMu.Unlock()
			select {
			case <-gate:
				continue
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		a := r.actors[id]
		if a == nil {
			a = &actor{}
			r.actors[id] = a
		}
		r.actorsMu.Unlock()

		a.mu.Lock()
		// A transfer may have frozen the actor, or taken or replaced its
		// entry, between dropping actorsMu and taking the actor lock.
		if !r.admits(id, a) {
			a.mu.Unlock()
			continue
		}
		if epoch == 0 || a.epoch != epoch {
			if err := r.adoptRecord(ctx, id, a); err != nil {
				a.mu.Unlock()
				return nil, err
			}
			// The same may have happened during the record read: an
			// install that replaced this entry while the record moved here
			// serves the actor's next tasks under its own lock, so a task
			// that ran on this entry would run beside them.
			if !r.admits(id, a) {
				a.mu.Unlock()
				continue
			}
		}
		return a, nil
	}
}

// admits reports whether a task holding a.mu may run on a: no transfer
// holds the actor and a is still its entry here.
func (r *Raylet) admits(id idgen.ActorID, a *actor) bool {
	r.actorsMu.Lock()
	defer r.actorsMu.Unlock()
	_, frozen := r.frozenActors[id]
	return !frozen && r.actors[id] == a
}

// adoptRecord reads the record of an actor whose entry is not adopted at
// the task's epoch — its first task here, state shipped in or kept after a
// failed retarget, or state left from before a move away and back; the
// caller holds a.mu. If the record names this node the entry takes the
// newer of its own state and the head checkpoint by Seq, and the record's
// epoch.
// Otherwise the task fails with a typed NotFound before its kernel runs, so
// the submitter reads the record and follows it; an entry this arrival
// created is dropped, and shipped state stays staged.
func (r *Raylet) adoptRecord(ctx context.Context, id idgen.ActorID, a *actor) error {
	respB, err := r.call(ctx, r.cfg.Head, KindActorRestore, transport.MustEncode(ActorRestoreRequest{Actor: id}))
	if err != nil {
		// Aborted, not the transport's Unavailable: the kernel did not run,
		// so the submitter may send the task again.
		return skaderr.Mark(skaderr.Aborted, fmt.Errorf("raylet: actor.restore %s: %w", id.Short(), err))
	}
	var rec ActorRestoreResponse
	if err := transport.Decode(respB, &rec); err != nil {
		return err
	}
	if rec.Home != r.cfg.Node {
		if a.state == nil {
			r.actorsMu.Lock()
			if r.actors[id] == a {
				delete(r.actors, id)
			}
			r.actorsMu.Unlock()
		}
		return skaderr.New(skaderr.NotFound, "raylet: actor %s does not live on %s", id.Short(), r.cfg.Node.Short())
	}
	if a.state == nil || rec.Seq > a.seq {
		a.state, a.seq = rec.State, rec.Seq
		if a.state == nil {
			a.state = make(map[string][]byte)
		}
	}
	a.epoch = rec.Epoch
	return nil
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
	locs, err := r.locations(ctx, id)
	if err != nil {
		return nil, err
	}
	return r.fetch(ctx, id, locs)
}

// locations reads the object's record at its owner (own.get) and returns
// the nodes it names as holding a full copy.
func (r *Raylet) locations(ctx context.Context, id idgen.ObjectID) ([]idgen.NodeID, error) {
	get := transport.MustEncode(OwnGetRequest{ID: id})
	resp, err := r.callOwner(ctx, id, KindOwnGet, get)
	if err != nil {
		return nil, err
	}
	var rec OwnGetResponse
	if err := transport.Decode(resp, &rec); err != nil {
		return nil, err
	}
	return rec.Rec.Locations, nil
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

// maxRereads bounds how often fetch reads the record again after none of
// the locations it holds serves the object. A read that returns the same
// locations ends the retries early; the bound covers chained moves without
// letting a ping-pong migration keep a reader busy forever.
const maxRereads = 4

// fetch pulls object bytes from the nearest location that serves them and
// caches them locally. A location can be stale: the copy migrated away
// after the caller read the record. A migration names the new holder in the
// record before the old copy goes, so when no location serves, fetch reads
// the record again and retries, up to maxRereads times. If every copy the
// record names is gone it falls back to the caching layer's recovery paths
// (replica, DSM, erasure reconstruction).
func (r *Raylet) fetch(ctx context.Context, id idgen.ObjectID, locations []idgen.NodeID) ([]byte, error) {
	ctx, sp := trace.Start(ctx, trace.KindFetch, r.cfg.Node)
	sp.SetAttr("obj", id.Short())
	defer sp.End()
	for reread := 0; ; reread++ {
		if data, ok := r.fetchFrom(ctx, sp, id, locations); ok {
			return data, nil
		}
		if reread == maxRereads {
			break
		}
		fresh, err := r.locations(ctx, id)
		if err != nil || len(fresh) == 0 || slices.Equal(fresh, locations) {
			break // the record has nothing newer to offer
		}
		locations = fresh
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

// fetchFrom asks each location for the bytes, nearest first, and returns
// the first copy served.
func (r *Raylet) fetchFrom(ctx context.Context, sp *trace.Span, id idgen.ObjectID, locations []idgen.NodeID) ([]byte, bool) {
	locs := append([]idgen.NodeID(nil), locations...)
	r.cfg.Fabric.SortNearest(r.cfg.Node, locs)
	for _, loc := range locs {
		if loc == r.cfg.Node {
			if data, _, err := r.store.Get(id); err == nil {
				return data, true
			}
			continue
		}
		payload := transport.MustEncode(GetRequest{ID: id})
		resp, err := r.call(ctx, loc, KindGet, payload)
		if err != nil {
			continue
		}
		var get GetResponse
		if err := transport.Decode(resp, &get); err != nil {
			continue
		}
		sp.SetAttr("from", loc.Short())
		r.bump(func(s *Stats) { s.RemoteFetches++ })
		r.cacheLocal(ctx, id, get.Data, get.Format)
		return get.Data, true
	}
	return nil, false
}

// cacheLocal keeps a fetched copy in the local store and adds it to the
// object's record, enabling future local hits and locality-aware
// scheduling.
func (r *Raylet) cacheLocal(ctx context.Context, id idgen.ObjectID, data []byte, format string) {
	if err := r.store.Put(id, data, format); err != nil {
		return
	}
	loc := transport.MustEncode(OwnAddLocRequest{ID: id, Node: r.cfg.Node})
	_, _ = r.callOwner(ctx, id, KindOwnAddLoc, loc)
}
