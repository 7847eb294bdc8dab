package ownership

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"skadi/internal/idgen"
	"skadi/internal/skaderr"
	"skadi/internal/task"
)

// ErrNoShards reports an ownership op against a sharded directory with no
// ring members (all shard hosts removed and none re-added).
var ErrNoShards = errors.New("ownership: sharded directory has no members")

func errNoShards() error {
	return skaderr.Mark(skaderr.Unavailable, ErrNoShards)
}

// ShardedTable is the decentralized ownership directory: a consistent-hash
// Ring routes every object ID to a member node, and each member hosts a
// full *Table holding exactly the entries it owns. Each shard preserves the
// complete Table contract — CommitGuard, WaitReady parking, push
// subscriptions, AbortPending — so the protocols built on the centralized
// table run unchanged against a shard.
//
// Membership changes (AddMember / RemoveMember) hand keys off by moving
// whole entries between shards under the directory's exclusive lock:
// parked waiters and subscriber sets travel with the entry, so a future
// created before a handoff resolves after it with no protocol-visible seam. Ops hold the shared lock only long enough to
// route and run the shard call (WaitReady parks outside it), so routing
// can never observe a half-finished handoff.
type ShardedTable struct {
	mu       sync.RWMutex
	ring     *Ring
	shards   map[idgen.NodeID]*Table
	guard    CommitGuard
	handoffs uint64
	// stranded holds entries left by removal of the last member; the
	// next AddMember adopts them. The runtime keeps the head node a
	// permanent member, so this is a safety net, not a steady state. It is
	// unreplicated and only adopts or gives up entries under mu (write).
	stranded *Table

	// repl maps each primary to the replica of its shard, hosted at its
	// ring successor (sharded_repl.go). Map mutations happen under mu
	// (write); op-path reads hold mu in some mode.
	repl            map[idgen.NodeID]*replState
	replAppended    atomic.Uint64
	replApplied     atomic.Uint64
	promotions      uint64
	restoredEntries uint64
	lostEntries     uint64
}

// NewSharded returns an empty sharded directory with the given virtual-node
// count per member (DefaultVNodes if vnodes <= 0).
func NewSharded(vnodes int) *ShardedTable {
	return &ShardedTable{
		ring:     NewRing(vnodes),
		shards:   make(map[idgen.NodeID]*Table),
		stranded: NewTable(),
		repl:     make(map[idgen.NodeID]*replState),
	}
}

// AddMember adds a node as a shard host and rebalances: every entry whose
// key now hashes to the new member moves to its shard. Returns the number
// of entries handed off. Idempotent.
func (s *ShardedTable) AddMember(n idgen.NodeID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ring.Add(n) {
		return 0
	}
	t := s.shards[n]
	if t == nil {
		t = NewTable()
		t.SetCommitGuard(s.guard)
		t.setOpLog(func(op repOp) { s.appendRep(n, op) })
		s.shards[n] = t
	}
	moved := 0
	touched := map[idgen.NodeID]bool{n: true}
	// Only keys that now land on the new member move; every other arc is
	// untouched — the consistent-hashing property that bounds handoff.
	for host, shard := range s.shards {
		if host == n {
			continue
		}
		taken := shard.takeMisplaced(func(id idgen.ObjectID) bool {
			owner, _ := s.ring.OwnerOf(id)
			return owner == host
		})
		if len(taken) > 0 {
			touched[host] = true
		}
		moved += len(taken)
		t.adopt(taken)
	}
	// Stranded entries may now belong to any member, not just the new one.
	stranded := s.stranded.takeAll()
	moved += len(stranded)
	s.rehomeLocked(stranded, touched)
	s.handoffs += uint64(moved)
	s.syncReplicasLocked(touched)
	return moved
}

// RemoveMember drops a shard host and hands its entries to the surviving
// owners. Returns the number of entries handed off. Idempotent. The node's
// *data-plane* copies are a separate concern: callers still run
// RemoveNodeLocations to purge locations on the failed node.
func (s *ShardedTable) RemoveMember(n idgen.NodeID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ring.Remove(n) {
		return 0
	}
	shard := s.shards[n]
	delete(s.shards, n)
	delete(s.repl, n)
	if shard == nil {
		s.syncReplicasLocked(nil)
		return 0
	}
	taken := shard.takeAll()
	touched := make(map[idgen.NodeID]bool)
	s.rehomeLocked(taken, touched)
	s.handoffs += uint64(len(taken))
	s.syncReplicasLocked(touched)
	return len(taken)
}

// rehomeLocked hands entries to their ring owners, marking each owner
// touched, or strands them while the ring is empty. Caller holds mu (write).
func (s *ShardedTable) rehomeLocked(m map[idgen.ObjectID]*entry, touched map[idgen.NodeID]bool) {
	if s.ring.Len() == 0 {
		s.stranded.adopt(m)
		return
	}
	byOwner := make(map[idgen.NodeID]map[idgen.ObjectID]*entry)
	for id, e := range m {
		owner, _ := s.ring.OwnerOf(id)
		if byOwner[owner] == nil {
			byOwner[owner] = make(map[idgen.ObjectID]*entry)
		}
		byOwner[owner][id] = e
	}
	for owner, part := range byOwner {
		s.shards[owner].adopt(part)
		touched[owner] = true
	}
}

// OwnerOf returns the ring member owning id's key — the node a raylet
// should address own.* RPCs for id to. False on an empty ring.
func (s *ShardedTable) OwnerOf(id idgen.ObjectID) (idgen.NodeID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring.OwnerOf(id)
}

// Members returns the shard hosts, sorted.
func (s *ShardedTable) Members() []idgen.NodeID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring.Members()
}

// Handoffs returns the cumulative count of entries moved between shards.
func (s *ShardedTable) Handoffs() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.handoffs
}

// ShardSizes returns the entry count per shard host (the `skadi -trace`
// per-shard directory view).
func (s *ShardedTable) ShardSizes() map[idgen.NodeID]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[idgen.NodeID]int, len(s.shards))
	for host, shard := range s.shards {
		out[host] = shard.Len()
	}
	return out
}

// Version returns the ring's membership version.
func (s *ShardedTable) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring.Version()
}

// shardFor routes id to its owning shard. Caller holds s.mu (read or
// write).
func (s *ShardedTable) shardFor(id idgen.ObjectID) (*Table, error) {
	owner, ok := s.ring.OwnerOf(id)
	if !ok {
		return nil, errNoShards()
	}
	t := s.shards[owner]
	if t == nil {
		// Ring and shard map are mutated together under the write lock;
		// divergence is a bug, not a runtime condition.
		return nil, skaderr.Mark(skaderr.Internal,
			fmt.Errorf("ownership: ring member %s has no shard", owner.Short()))
	}
	return t, nil
}

// --- Directory implementation -------------------------------------------

// SetCommitGuard installs the guard on every current shard and remembers it
// for shards created by later AddMember calls.
func (s *ShardedTable) SetCommitGuard(g CommitGuard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.guard = g
	for _, shard := range s.shards {
		shard.SetCommitGuard(g)
	}
}

// route runs fn on id's owning shard under the routing read lock, so a
// handoff cannot move the entry mid-call.
func (s *ShardedTable) route(id idgen.ObjectID, fn func(*Table) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, err := s.shardFor(id)
	if err != nil {
		return err
	}
	return fn(t)
}

// CreatePending registers a new object on its owning shard.
func (s *ShardedTable) CreatePending(id idgen.ObjectID, owner idgen.NodeID, task idgen.TaskID) error {
	return s.route(id, func(t *Table) error { return t.create(id, owner, task, nil) })
}

// CreateTask registers each of spec's returns, naming spec as its
// producer, on the return's owning shard.
func (s *ShardedTable) CreateTask(spec *task.Spec, owner idgen.NodeID) error {
	return createTask(spec, func(id idgen.ObjectID) error {
		return s.route(id, func(t *Table) error { return t.create(id, owner, spec.ID, spec) })
	})
}

// Producer returns id's recorded producer from its owning shard.
func (s *ShardedTable) Producer(id idgen.ObjectID) (spec *task.Spec, ok bool) {
	_ = s.route(id, func(t *Table) error { spec, ok = t.Producer(id); return nil })
	return spec, ok
}

// MarkReady commits the object on its owning shard.
func (s *ShardedTable) MarkReady(id idgen.ObjectID, size int64, location idgen.NodeID, deviceID idgen.NodeID, deviceHandle string) (subs []idgen.NodeID, err error) {
	err = s.route(id, func(t *Table) (err error) {
		subs, err = t.MarkReady(id, size, location, deviceID, deviceHandle)
		return err
	})
	return subs, err
}

// AddLocation records an additional copy on the owning shard.
func (s *ShardedTable) AddLocation(id idgen.ObjectID, node idgen.NodeID) error {
	return s.route(id, func(t *Table) error { return t.AddLocation(id, node) })
}

// MoveLocation retargets a copy on the owning shard.
func (s *ShardedTable) MoveLocation(id idgen.ObjectID, from, to idgen.NodeID) error {
	return s.route(id, func(t *Table) error { return t.MoveLocation(id, from, to) })
}

// Subscribe registers a push subscription on the owning shard.
func (s *ShardedTable) Subscribe(id idgen.ObjectID, node idgen.NodeID) (ready bool, rec Record, err error) {
	err = s.route(id, func(t *Table) (err error) {
		ready, rec, err = t.Subscribe(id, node)
		return err
	})
	return ready, rec, err
}

// Get returns the record from the owning shard.
func (s *ShardedTable) Get(id idgen.ObjectID) (rec Record, err error) {
	err = s.route(id, func(t *Table) (err error) {
		rec, err = t.Get(id)
		return err
	})
	return rec, err
}

// Records snapshots every shard, merged and sorted by ID — same semantics
// as Table.Records, so the chaos invariant checkers run unchanged.
func (s *ShardedTable) Records() []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Record
	for _, shard := range s.shards {
		out = append(out, shard.Records()...)
	}
	out = append(out, s.stranded.Records()...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Less(out[j].ID) })
	return out
}

// WaitReady blocks until the object is Ready or Lost. The waiter registers
// under the routing lock (so it cannot race a handoff) but parks outside
// it; if the entry migrates while parked, the waiter channel migrates with
// it and the release arrives from the new shard.
func (s *ShardedTable) WaitReady(ctx context.Context, id idgen.ObjectID) error {
	s.mu.RLock()
	t, err := s.shardFor(id)
	if err != nil {
		s.mu.RUnlock()
		return err
	}
	ch, err := t.waitChan(id)
	s.mu.RUnlock()
	if err != nil || ch == nil {
		return err
	}
	return awaitState(ctx, id, ch)
}

// PendingIDs merges the unresolved IDs across shards, sorted.
func (s *ShardedTable) PendingIDs() []idgen.ObjectID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []idgen.ObjectID
	for _, shard := range s.shards {
		out = append(out, shard.PendingIDs()...)
	}
	out = append(out, s.stranded.PendingIDs()...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// AbortPending aborts unresolved objects on every shard with cause,
// sorted.
func (s *ShardedTable) AbortPending(cause error) []idgen.ObjectID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []idgen.ObjectID
	for _, shard := range s.shards {
		out = append(out, shard.AbortPending(cause)...)
	}
	out = append(out, s.stranded.AbortPending(cause)...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// RemoveNodeLocations purges a failed node's copies across every shard and
// returns the objects it orphaned, sorted.
func (s *ShardedTable) RemoveNodeLocations(node idgen.NodeID) []idgen.ObjectID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []idgen.ObjectID
	for _, shard := range s.shards {
		out = append(out, shard.RemoveNodeLocations(node)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// MarkLost forces an object Lost with cause on its owning shard.
func (s *ShardedTable) MarkLost(id idgen.ObjectID, cause error) error {
	return s.route(id, func(t *Table) error { return t.MarkLost(id, cause) })
}

// Settle judges a failed object on its owning shard.
func (s *ShardedTable) Settle(id idgen.ObjectID, to State) (settled bool) {
	_ = s.route(id, func(t *Table) error { settled = t.Settle(id, to); return nil })
	return settled
}

// Delete removes an object's entry from its owning shard.
func (s *ShardedTable) Delete(id idgen.ObjectID) {
	_ = s.route(id, func(t *Table) error { t.Delete(id); return nil })
}

// Len returns the total entry count across shards.
func (s *ShardedTable) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.stranded.Len()
	for _, shard := range s.shards {
		n += shard.Len()
	}
	return n
}
