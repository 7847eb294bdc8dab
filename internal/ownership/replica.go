package ownership

import (
	"fmt"
	"sort"

	"skadi/internal/idgen"
	"skadi/internal/task"
)

// Shard replication (PR 10). Each primary shard streams its mutations —
// via the Table op-log hook — into a bounded per-primary log that drains
// asynchronously onto a replica Table hosted at the primary's ring
// successor. The replica is a full Table (entries, waiter channels,
// subscriber sets) with one difference: ops are applied
// silently. The primary already signalled its waiters and returned its
// subscriber lists; the replica only has to END UP in the same state so
// that promotion on a primary death restores every entry without lineage
// replay, and a still-parked WaitReady is released by the next MarkReady
// that lands on the promoted shard.

// replogCap bounds each replication log. Appending to a full log drains it
// inline — replication lag is bounded by construction, and a promotion
// never has more than replogCap ops to catch up.
const replogCap = 256

type repOpKind uint8

const (
	opCreate repOpKind = iota
	opReady
	opAddLoc
	opMoveLoc
	opSubscribe
	opWaiter
	opMarkLost
	opReset
	opDelete
	opRemoveNode // table-scoped: RemoveNodeLocations(node)
	opAbort      // table-scoped: AbortPending
)

// repOp is one logged mutation. Field use varies by kind; see applyRep.
type repOp struct {
	kind   repOpKind
	id     idgen.ObjectID
	owner  idgen.NodeID
	task   idgen.TaskID
	spec   *task.Spec // opCreate: the producer
	cause  error      // opMarkLost, opAbort
	size   int64
	node   idgen.NodeID // location / subscriber / from / purged node
	node2  idgen.NodeID // MoveLocation destination
	device idgen.NodeID
	handle string
	waiter chan State
}

// applyRep replays one op onto a replica table. No waiter is ever
// signalled and no commit guard consulted: the primary did both when the
// op originally ran; this path only reproduces the resulting state.
func (t *Table) applyRep(op repOp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch op.kind {
	case opCreate:
		if _, ok := t.entries[op.id]; !ok {
			t.entries[op.id] = newEntry(op.id, op.owner, op.task, op.spec)
		}
	case opReady:
		if e, ok := t.entries[op.id]; ok {
			e.rec.State = Ready
			e.rec.Size = op.size
			e.rec.DeviceID = op.device
			e.rec.DeviceHandle = op.handle
			e.locations[op.node] = true
			e.syncLocations()
			e.waiters = nil // primary released them
			e.subscribers = make(map[idgen.NodeID]bool)
		}
	case opAddLoc:
		if e, ok := t.entries[op.id]; ok {
			e.locations[op.node] = true
			e.syncLocations()
		}
	case opMoveLoc:
		if e, ok := t.entries[op.id]; ok {
			e.locations[op.node2] = true
			delete(e.locations, op.node)
			e.syncLocations()
		}
	case opSubscribe:
		if e, ok := t.entries[op.id]; ok {
			e.subscribers[op.node] = true
		}
	case opWaiter:
		if e, ok := t.entries[op.id]; ok && e.rec.State.unresolved() {
			e.waiters = append(e.waiters, op.waiter)
		}
	case opMarkLost:
		if e, ok := t.entries[op.id]; ok {
			e.waiters = nil // primary released them
			e.lose(op.cause)
		}
	case opReset:
		if e, ok := t.entries[op.id]; ok {
			e.reset()
		}
	case opDelete:
		delete(t.entries, op.id)
	case opRemoveNode:
		// Orphaned entries keep their waiters, as on the primary.
		for _, e := range t.entries {
			e.dropLocation(op.node)
		}
	case opAbort:
		for _, e := range t.entries {
			if e.rec.State.unresolved() {
				e.waiters = nil
				e.lose(op.cause)
			}
		}
	}
}

// cloneForReplica deep-copies the table into a fresh replica: records
// (cause included), location sets and subscriber sets are copied, and the
// producer spec, immutable once submitted, is shared; waiter
// CHANNELS are shared (they are the rendezvous with the parked caller —
// sharing is the point). Membership churn uses this to (re)seed a replica
// wholesale, since handoff moves bypass the op-log.
func (t *Table) cloneForReplica() *Table {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := NewTable()
	for id, e := range t.entries {
		ne := &entry{
			rec:         e.rec,
			producer:    e.producer,
			locations:   make(map[idgen.NodeID]bool, len(e.locations)),
			subscribers: make(map[idgen.NodeID]bool, len(e.subscribers)),
		}
		ne.rec.Locations = append([]idgen.NodeID(nil), e.rec.Locations...)
		for n := range e.locations {
			ne.locations[n] = true
		}
		for n := range e.subscribers {
			ne.subscribers[n] = true
		}
		ne.waiters = append([]chan State(nil), e.waiters...)
		out.entries[id] = ne
	}
	return out
}

// diffReplica reports human-readable mismatches between a primary table
// and its (fully drained) replica: entries present on one side only, or
// records (producer and cause included), waiters or subscribers that
// diverge. Both tables are locked primary-first; callers must quiesce
// mutations (the sharded table holds its write lock).
func diffReplica(primary, replica *Table) []string {
	primary.mu.Lock()
	defer primary.mu.Unlock()
	replica.mu.Lock()
	defer replica.mu.Unlock()
	var out []string
	ids := make([]idgen.ObjectID, 0, len(primary.entries))
	for id := range primary.entries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	for _, id := range ids {
		pe := primary.entries[id]
		re, ok := replica.entries[id]
		if !ok {
			out = append(out, fmt.Sprintf("%s: missing from replica", id.Short()))
			continue
		}
		if d := diffEntry(pe, re); d != "" {
			out = append(out, fmt.Sprintf("%s: %s", id.Short(), d))
		}
	}
	for id := range replica.entries {
		if _, ok := primary.entries[id]; !ok {
			out = append(out, fmt.Sprintf("%s: replica-only entry", id.Short()))
		}
	}
	return out
}

func diffEntry(p, r *entry) string {
	if p.rec.Owner != r.rec.Owner || p.rec.State != r.rec.State ||
		p.rec.Size != r.rec.Size || p.rec.Task != r.rec.Task ||
		p.rec.DeviceID != r.rec.DeviceID || p.rec.DeviceHandle != r.rec.DeviceHandle {
		return fmt.Sprintf("record diverges: primary %v/%d, replica %v/%d",
			p.rec.State, p.rec.Size, r.rec.State, r.rec.Size)
	}
	if p.producer != r.producer {
		return "producer diverges"
	}
	if pc, rc := fmt.Sprint(p.rec.Cause), fmt.Sprint(r.rec.Cause); pc != rc {
		return fmt.Sprintf("cause diverges: primary %q, replica %q", pc, rc)
	}
	if len(p.locations) != len(r.locations) {
		return fmt.Sprintf("locations diverge: %d vs %d", len(p.locations), len(r.locations))
	}
	for n := range p.locations {
		if !r.locations[n] {
			return fmt.Sprintf("location %s missing from replica", n.Short())
		}
	}
	if len(p.waiters) != len(r.waiters) {
		return fmt.Sprintf("waiters diverge: %d vs %d", len(p.waiters), len(r.waiters))
	}
	if len(p.subscribers) != len(r.subscribers) {
		return fmt.Sprintf("subscribers diverge: %d vs %d", len(p.subscribers), len(r.subscribers))
	}
	for n := range p.subscribers {
		if !r.subscribers[n] {
			return fmt.Sprintf("subscriber %s missing from replica", n.Short())
		}
	}
	return ""
}
