// Package ownership implements the distributed-futures ownership table,
// Skadi's extension of Ray's ownership protocol (§2.3.2): every object has
// an owner, a state, and a location set; and — the paper's modification —
// a DeviceID plus a DeviceHandle so objects resident in heterogeneous
// device memory (GPU HBM behind a DPU) are first-class table entries.
//
// The table supports both of the paper's future-resolution protocols:
//
//   - Pull: consumers call WaitReady and then fetch from a location
//     (Ray's vanilla model; creates stalls for short ops).
//   - Push: consumers Subscribe before the producer finishes; MarkReady
//     returns the subscriber set so the producer's raylet can push the
//     value proactively.
package ownership

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"skadi/internal/idgen"
	"skadi/internal/skaderr"
	"skadi/internal/task"
	"skadi/internal/wire"
)

// State is an object's lifecycle state.
type State int

// Object states.
const (
	// Pending means the producing task has not yet committed the value.
	Pending State = iota
	// Ready means at least one location holds the value.
	Ready
	// Lost means the object will not be produced: its task failed or was
	// revoked, or recovery judged that nothing can bring it back.
	Lost
	// Orphaned means the last live holder of a Ready value died and nothing
	// has judged the object yet: waiters park as on Pending until recovery
	// settles it Ready (a surviving copy), Pending (re-submitted) or Lost.
	Orphaned
)

// unresolved reports whether waiters park on the state.
func (s State) unresolved() bool { return s == Pending || s == Orphaned }

// String returns the state name.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Ready:
		return "ready"
	case Lost:
		return "lost"
	case Orphaned:
		return "orphaned"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Errors returned by the table.
var (
	// ErrUnknownObject reports an ID with no table entry.
	ErrUnknownObject = errors.New("ownership: unknown object")
	// ErrObjectLost reports a wait on an object that is Lost: it will not
	// be produced.
	ErrObjectLost = errors.New("ownership: object lost")
	// ErrExists reports a duplicate CreatePending.
	ErrExists = errors.New("ownership: object already registered")
)

// errUnknown builds the coded not-found error for id: the sentinel stays in
// the chain for in-process callers, the NotFound code survives the wire.
func errUnknown(id idgen.ObjectID) error {
	return skaderr.Mark(skaderr.NotFound, fmt.Errorf("%w: %s", ErrUnknownObject, id.Short()))
}

// errLost builds the coded data-loss error for id.
func errLost(id idgen.ObjectID) error {
	return skaderr.Mark(skaderr.DataLoss, fmt.Errorf("%w: %s", ErrObjectLost, id.Short()))
}

// errStaleCommit builds the coded error for a commit naming a location that
// no longer holds the bytes.
func errStaleCommit(id idgen.ObjectID, loc idgen.NodeID) error {
	return skaderr.Mark(skaderr.Unavailable,
		fmt.Errorf("ownership: stale commit of %s at %s: location holds no copy", id.Short(), loc.Short()))
}

// CommitGuard validates a claimed location at commit time, under the table
// lock. It reports whether the node genuinely holds the object (or the
// object is redundantly recoverable without it). The guard closes the
// commit-vs-crash race: a producer can finish its local write, die, have
// its store wiped and its locations purged — and only then does its
// own.ready land at the head. Without the guard that late commit
// resurrects a location with no bytes behind it; with it, the commit is
// rejected typed and the task fails over to lineage recovery. extra marks a
// claim of one more full copy (AddLocation, MoveLocation) rather than the
// commit itself: redundancy elsewhere cannot vouch for that — the claimed
// copy is the point, and a record naming a byte-less node outlives the copy
// that vouched for it.
type CommitGuard func(location idgen.NodeID, id idgen.ObjectID, extra bool) bool

// Record is one ownership-table entry.
type Record struct {
	ID    idgen.ObjectID
	Owner idgen.NodeID
	State State
	Size  int64
	// Task is the producing task's ID; the producer itself stays on the
	// table's entry (see Table.Producer).
	Task idgen.TaskID
	// Cause is why the object is Lost: the failure its task recorded, or
	// why it will not be produced. A Lost record keeps the first cause it
	// is given; Settle to Pending clears it.
	Cause error

	// Locations holds the nodes with a full copy, sorted.
	Locations []idgen.NodeID

	// DeviceID and DeviceHandle are the heterogeneity-aware extension:
	// when the value lives in device memory, DeviceID names the device and
	// DeviceHandle carries the opaque driver handle needed to reach it.
	DeviceID     idgen.NodeID
	DeviceHandle string
}

// Wire lists Record's fields for the message codec (see transport.Message).
func (r *Record) Wire(c *wire.Coder) {
	c.ID(&r.ID)
	c.ID(&r.Owner)
	state := int64(r.State)
	c.Varint(&state)
	r.State = State(state)
	c.Varint(&r.Size)
	c.ID(&r.Task)
	wire.Slice(c, &r.Locations, 16, (*wire.Coder).ID)
	c.ID(&r.DeviceID)
	c.String(&r.DeviceHandle)
	// The cause crosses the wire as its code and message: one zero byte
	// when there is none.
	code, msg := skaderr.EncodeWire(r.Cause)
	wcode := uint64(code)
	c.Uvarint(&wcode)
	if wcode != 0 {
		c.String(&msg)
	}
	if c.Decoding() {
		r.Cause = nil
		if wcode != 0 {
			r.Cause = skaderr.DecodeWire(byte(wcode), msg)
		}
	}
}

type entry struct {
	rec Record
	// producer is the task that makes the object, nil for a Put. Lineage
	// recovery re-runs it. It stays in process: a spec can carry megabytes
	// of value arguments, so only its ID rides Record.Wire.
	producer    *task.Spec
	locations   map[idgen.NodeID]bool
	waiters     []chan State
	subscribers map[idgen.NodeID]bool
}

// Table is the ownership table. It is a passive, concurrency-safe data
// structure; the runtime hosts one on the head node and exposes it over the
// transport.
type Table struct {
	mu      sync.Mutex
	entries map[idgen.ObjectID]*entry
	guard   CommitGuard
	// oplog, when set, observes every successful mutation under mu — in
	// apply order — so a replica can mirror this table (replica.go).
	// Handoff moves (takeMisplaced/takeAll/adopt) bypass it: membership
	// changes resync replicas wholesale instead.
	oplog func(repOp)
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{entries: make(map[idgen.ObjectID]*entry)}
}

// SetCommitGuard installs the residency validator consulted by MarkReady,
// AddLocation and MoveLocation. Call before serving traffic; a nil guard
// (the default) accepts every commit. The guard runs under the table lock, so its
// serialization against location-purging writers (RemoveNodeLocations) is
// what closes the race — it must not call back into the table.
func (t *Table) SetCommitGuard(g CommitGuard) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.guard = g
}

// setOpLog installs the mutation observer. Like the commit guard it runs
// under the table lock and must not call back into this table.
func (t *Table) setOpLog(fn func(repOp)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.oplog = fn
}

// logOp forwards a successful mutation to the observer. Caller holds mu.
func (t *Table) logOp(op repOp) {
	if t.oplog != nil {
		t.oplog(op)
	}
}

// CreatePending registers a new object in Pending state with no recorded
// producer (a Put, or a record created over the wire).
func (t *Table) CreatePending(id idgen.ObjectID, owner idgen.NodeID, task idgen.TaskID) error {
	return t.create(id, owner, task, nil)
}

// CreateTask registers a Pending record for each of spec's returns, each
// naming spec as its producer.
func (t *Table) CreateTask(spec *task.Spec, owner idgen.NodeID) error {
	return createTask(spec, func(id idgen.ObjectID) error { return t.create(id, owner, spec.ID, spec) })
}

// createTask creates each of spec's returns. A return already registered
// keeps its record; the rest are still created and ErrExists is reported.
func createTask(spec *task.Spec, create func(idgen.ObjectID) error) error {
	var err error
	for _, ret := range spec.Returns {
		if cerr := create(ret); err == nil {
			err = cerr
		}
	}
	return err
}

// create registers one Pending record.
func (t *Table) create(id idgen.ObjectID, owner idgen.NodeID, taskID idgen.TaskID, spec *task.Spec) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.entries[id]; ok {
		return skaderr.Mark(skaderr.AlreadyExists, ErrExists)
	}
	t.entries[id] = newEntry(id, owner, taskID, spec)
	t.logOp(repOp{kind: opCreate, id: id, owner: owner, task: taskID, spec: spec})
	return nil
}

// newEntry returns a Pending entry.
func newEntry(id idgen.ObjectID, owner idgen.NodeID, taskID idgen.TaskID, spec *task.Spec) *entry {
	return &entry{
		rec:         Record{ID: id, Owner: owner, State: Pending, Task: taskID},
		producer:    spec,
		locations:   make(map[idgen.NodeID]bool),
		subscribers: make(map[idgen.NodeID]bool),
	}
}

// Producer returns the task recorded as id's producer.
func (t *Table) Producer(id idgen.ObjectID) (*task.Spec, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if !ok || e.producer == nil {
		return nil, false
	}
	return e.producer, true
}

// MarkReady commits the object at the given location, with optional device
// placement, and returns the subscribers awaiting a push. Waiters blocked
// in WaitReady are released.
func (t *Table) MarkReady(id idgen.ObjectID, size int64, location idgen.NodeID, deviceID idgen.NodeID, deviceHandle string) ([]idgen.NodeID, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if !ok {
		return nil, errUnknown(id)
	}
	// Device placements keep their bytes in device memory, not the node's
	// object store — the residency guard only applies to host commits.
	if t.guard != nil && deviceID.IsNil() && !t.guard(location, id, false) {
		return nil, errStaleCommit(id, location)
	}
	e.rec.State = Ready
	e.rec.Size = size
	e.rec.DeviceID = deviceID
	e.rec.DeviceHandle = deviceHandle
	e.locations[location] = true
	e.syncLocations()
	for _, w := range e.waiters {
		w <- Ready
	}
	e.waiters = nil
	subs := make([]idgen.NodeID, 0, len(e.subscribers))
	for node := range e.subscribers {
		if node != location {
			subs = append(subs, node)
		}
	}
	sort.Slice(subs, func(i, j int) bool { return subs[i].Less(subs[j]) })
	e.subscribers = make(map[idgen.NodeID]bool)
	t.logOp(repOp{kind: opReady, id: id, size: size, node: location, device: deviceID, handle: deviceHandle})
	return subs, nil
}

// syncLocations refreshes rec.Locations from the location set. Caller
// holds mu. A fresh slice is built every time: Get hands out rec by value,
// so the old backing array may still be read lock-free by a caller — it
// must stay an immutable (if stale) snapshot, never be rewritten in place.
func (e *entry) syncLocations() {
	e.rec.Locations = make([]idgen.NodeID, 0, len(e.locations))
	for node := range e.locations {
		e.rec.Locations = append(e.rec.Locations, node)
	}
	sort.Slice(e.rec.Locations, func(i, j int) bool {
		return e.rec.Locations[i].Less(e.rec.Locations[j])
	})
}

// AddLocation records an additional full copy (e.g. after a push or a
// cached read).
func (t *Table) AddLocation(id idgen.ObjectID, node idgen.NodeID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if !ok {
		return errUnknown(id)
	}
	if t.guard != nil && !t.guard(node, id, true) {
		return errStaleCommit(id, node)
	}
	e.locations[node] = true
	e.syncLocations()
	t.logOp(repOp{kind: opAddLoc, id: id, node: node})
	return nil
}

// MoveLocation atomically retargets a copy from one node to another: the
// destination is added to the location set and the source removed (live
// migration's cutover step). Like AddLocation it claims a full copy, so the
// commit guard must find the bytes in the destination's store: a move whose
// push was refused fails and leaves the record naming the source, which
// keeps its copy. A reader holding the stale source finds the new holder by
// reading the record again.
func (t *Table) MoveLocation(id idgen.ObjectID, from, to idgen.NodeID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if !ok {
		return errUnknown(id)
	}
	if t.guard != nil && !t.guard(to, id, true) {
		return errStaleCommit(id, to)
	}
	e.locations[to] = true
	delete(e.locations, from)
	e.syncLocations()
	t.logOp(repOp{kind: opMoveLoc, id: id, node: from, node2: to})
	return nil
}

// Subscribe registers node for a proactive push of id when it becomes
// ready. If the object is already Ready it returns (true, record) and the
// caller pushes immediately; otherwise the subscription is stored.
func (t *Table) Subscribe(id idgen.ObjectID, node idgen.NodeID) (ready bool, rec Record, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if !ok {
		return false, Record{}, errUnknown(id)
	}
	if e.rec.State == Ready {
		return true, e.rec, nil
	}
	e.subscribers[node] = true
	t.logOp(repOp{kind: opSubscribe, id: id, node: node})
	return false, e.rec, nil
}

// Get returns the record for id.
func (t *Table) Get(id idgen.ObjectID) (Record, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if !ok {
		return Record{}, errUnknown(id)
	}
	return e.rec, nil
}

// Records snapshots every entry, sorted by ID. Location slices are copied:
// invariant checkers walk the snapshot while the table keeps mutating.
func (t *Table) Records() []Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Record, 0, len(t.entries))
	for _, e := range t.entries {
		rec := e.rec
		rec.Locations = append([]idgen.NodeID(nil), rec.Locations...)
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Less(out[j].ID) })
	return out
}

// WaitReady blocks until the object is Ready (nil), Lost (ErrObjectLost),
// or the context is done. Pending and orphaned objects park the caller.
func (t *Table) WaitReady(ctx context.Context, id idgen.ObjectID) error {
	ch, err := t.waitChan(id)
	if err != nil || ch == nil {
		return err
	}
	return awaitState(ctx, id, ch)
}

// waitChan is the non-blocking half of WaitReady: it resolves immediately
// (nil channel) when the object is already Ready or Lost, or registers a
// waiter and returns its channel. ShardedTable uses the split so the park
// happens outside the shard-routing lock.
func (t *Table) waitChan(id idgen.ObjectID) (chan State, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if !ok {
		return nil, errUnknown(id)
	}
	switch e.rec.State {
	case Ready:
		return nil, nil
	case Lost:
		return nil, errLost(id)
	}
	ch := make(chan State, 1)
	e.waiters = append(e.waiters, ch)
	// The waiter channel itself replicates: if this table's host dies
	// before the object resolves, the promoted replica still holds the
	// channel and the eventual MarkReady/MarkLost on the promoted shard
	// releases the parked caller.
	t.logOp(repOp{kind: opWaiter, id: id, waiter: ch})
	return ch, nil
}

// awaitState parks on a waiter channel registered by waitChan.
func awaitState(ctx context.Context, id idgen.ObjectID, ch chan State) error {
	select {
	case s := <-ch:
		if s == Lost {
			return errLost(id)
		}
		return nil
	case <-ctx.Done():
		return skaderr.Mark(skaderr.CodeOf(ctx.Err()), ctx.Err())
	}
}

// PendingIDs returns the IDs of every unresolved (Pending or orphaned)
// object, sorted.
func (t *Table) PendingIDs() []idgen.ObjectID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.unresolvedLocked()
}

// unresolvedLocked returns the sorted IDs of unresolved objects. Caller
// holds mu.
func (t *Table) unresolvedLocked() []idgen.ObjectID {
	out := make([]idgen.ObjectID, 0, len(t.entries))
	for id, e := range t.entries {
		if e.rec.State.unresolved() {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// AbortPending marks every unresolved object Lost with cause, releasing
// its waiters, and returns the aborted IDs. Shutdown uses this so no
// Get/Wait caller stays blocked on an object that will never be produced.
func (t *Table) AbortPending(cause error) []idgen.ObjectID {
	t.mu.Lock()
	defer t.mu.Unlock()
	aborted := t.unresolvedLocked()
	for _, id := range aborted {
		t.entries[id].lose(cause)
	}
	if len(aborted) > 0 {
		t.logOp(repOp{kind: opAbort, cause: cause})
	}
	return aborted
}

// RemoveNodeLocations drops every location on a failed node and returns the
// IDs of Ready objects that thereby lost their last copy, now orphaned. It
// judges nothing: their waiters keep waiting.
func (t *Table) RemoveNodeLocations(node idgen.NodeID) []idgen.ObjectID {
	t.mu.Lock()
	defer t.mu.Unlock()
	var orphaned []idgen.ObjectID
	for id, e := range t.entries {
		if e.dropLocation(node) {
			orphaned = append(orphaned, id)
		}
	}
	sort.Slice(orphaned, func(i, j int) bool { return orphaned[i].Less(orphaned[j]) })
	t.logOp(repOp{kind: opRemoveNode, node: node})
	return orphaned
}

// dropLocation removes node from the entry's location set and reports
// whether that orphaned a Ready object. Caller holds the table lock.
func (e *entry) dropLocation(node idgen.NodeID) bool {
	if !e.locations[node] {
		return false
	}
	delete(e.locations, node)
	e.syncLocations()
	if len(e.locations) > 0 || e.rec.State != Ready {
		return false
	}
	e.rec.State = Orphaned
	return true
}

// MarkLost forces an object into the Lost state with cause, releasing
// waiters with an error. The cause is on the record before any waiter
// wakes, so a released reader finds it.
func (t *Table) MarkLost(id idgen.ObjectID, cause error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if !ok {
		return errUnknown(id)
	}
	e.lose(cause)
	t.logOp(repOp{kind: opMarkLost, id: id, cause: cause})
	return nil
}

// lose moves the entry to Lost with cause and releases its waiters. An
// entry already Lost keeps the cause it has. Caller holds the table lock.
func (e *entry) lose(cause error) {
	if e.rec.State != Lost || e.rec.Cause == nil {
		e.rec.Cause = cause
	}
	e.rec.State = Lost
	e.locations = make(map[idgen.NodeID]bool)
	e.syncLocations()
	for _, w := range e.waiters {
		w <- Lost
	}
	e.waiters = nil
}

// Settle judges a failed (orphaned or Lost) object: to Pending, its producer
// being re-submitted, its waiters kept and its cause cleared, or to Lost,
// its waiters released.
// It reports false and changes nothing for an unknown, Pending or Ready
// object — a compare-and-set, so concurrent recoveries judge it once.
func (t *Table) Settle(id idgen.ObjectID, to State) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if !ok || e.rec.State == Pending || e.rec.State == Ready {
		return false
	}
	if to == Lost {
		e.lose(nil)
		t.logOp(repOp{kind: opMarkLost, id: id})
	} else {
		e.reset()
		t.logOp(repOp{kind: opReset, id: id})
	}
	return true
}

// reset returns the entry to Pending with no locations and no cause.
// Caller holds the table lock.
func (e *entry) reset() {
	e.rec.State = Pending
	e.rec.Cause = nil
	e.locations = make(map[idgen.NodeID]bool)
	e.syncLocations()
}

// Delete removes an object's entry entirely.
func (t *Table) Delete(id idgen.ObjectID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[id]; ok {
		for _, w := range e.waiters {
			w <- Lost
		}
		delete(t.entries, id)
		t.logOp(repOp{kind: opDelete, id: id})
	}
}

// Len returns the number of table entries.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// takeMisplaced removes and returns every entry whose ID fails the keep
// predicate. Entries move whole — waiter channels and subscriber sets travel
// with the record, so a WaitReady parked before a shard handoff is still
// released by a MarkReady that lands on the entry's new shard.
func (t *Table) takeMisplaced(keep func(idgen.ObjectID) bool) map[idgen.ObjectID]*entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out map[idgen.ObjectID]*entry
	for id, e := range t.entries {
		if keep(id) {
			continue
		}
		if out == nil {
			out = make(map[idgen.ObjectID]*entry)
		}
		out[id] = e
		delete(t.entries, id)
	}
	return out
}

// takeAll removes and returns every entry (shard decommission).
func (t *Table) takeAll() map[idgen.ObjectID]*entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.entries
	t.entries = make(map[idgen.ObjectID]*entry)
	return out
}

// adopt inserts entries taken from another shard. An ID that already exists
// locally is kept as-is and the incoming entry is dropped; handoff runs
// under the sharded table's exclusive lock, so this only arises from a
// malformed double-move.
func (t *Table) adopt(m map[idgen.ObjectID]*entry) {
	if len(m) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, e := range m {
		if _, ok := t.entries[id]; ok {
			continue
		}
		t.entries[id] = e
	}
}
