package ownership

import (
	"fmt"
	"sort"
	"sync"

	"skadi/internal/idgen"
)

// replState is one primary's replication fan-out: a bounded log of ops not
// yet applied to the replica table hosted at the primary's ring successor.
// The log fills synchronously (inside the primary's mutation, under the
// primary table's lock) and drains asynchronously (the runtime's gossip
// pump calls FlushReplication every tick); appending to a full log drains
// inline, so lag is bounded by replogCap regardless of pump cadence.
type replState struct {
	host  idgen.NodeID // ring successor hosting this replica
	mu    sync.Mutex
	log   []repOp
	table *Table
}

// appendRep logs one mutation of primary's shard. Called from the shard's
// op-log hook: the caller holds the shard table's lock and s.mu in some
// mode, so reading s.repl here is safe (the map is only written under
// s.mu exclusively).
func (s *ShardedTable) appendRep(primary idgen.NodeID, op repOp) {
	rs := s.repl[primary]
	if rs == nil {
		return
	}
	rs.mu.Lock()
	rs.log = append(rs.log, op)
	if len(rs.log) >= replogCap {
		s.drainReplLocked(rs)
	}
	rs.mu.Unlock()
	s.replAppended.Add(1)
}

// drainReplLocked applies the pending log to the replica. Caller holds
// rs.mu.
func (s *ShardedTable) drainReplLocked(rs *replState) {
	for _, op := range rs.log {
		rs.table.applyRep(op)
	}
	s.replApplied.Add(uint64(len(rs.log)))
	rs.log = rs.log[:0]
}

// syncReplicasLocked reconciles the replica set after a membership change.
// Caller holds s.mu exclusively. Handoff moves whole entries between
// shards without touching the op-log, so any primary whose shard content
// moved (touched) — and any primary whose successor changed — gets its
// replica reseeded from a deep copy of the live shard. Untouched primaries
// keep their replica and pending log.
func (s *ShardedTable) syncReplicasLocked(touched map[idgen.NodeID]bool) {
	succ := s.ring.successors()
	for primary := range s.repl {
		if _, ok := succ[primary]; !ok {
			delete(s.repl, primary)
		}
	}
	for primary, host := range succ {
		rs := s.repl[primary]
		if rs != nil && rs.host == host && !touched[primary] {
			continue
		}
		shard := s.shards[primary]
		if shard == nil {
			continue
		}
		s.repl[primary] = &replState{host: host, table: shard.cloneForReplica()}
	}
}

// RemoveMemberDead drops a shard host that died. Unlike the graceful
// RemoveMember, it never consults the dead member's own table for the
// handoff: the successor's replica is drained to the crash point and
// promoted — waiters, subscriber sets, and forwarding chains restore from
// the replica, so no lineage replay is needed to rebuild directory state.
// Returns the restored entry count and the count lost (primary entries the
// replica did not cover — zero by construction; nonzero means a
// replication bug and trips chaos invariant I7).
func (s *ShardedTable) RemoveMemberDead(n idgen.NodeID) (restored, lost int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ring.Remove(n) {
		return 0, 0
	}
	dead := s.shards[n]
	delete(s.shards, n)
	rs := s.repl[n]
	delete(s.repl, n)
	primaryLen := 0
	if dead != nil {
		// Detach the hook; the discarded table must not log into a map
		// entry that no longer exists.
		dead.setOpLog(nil)
		primaryLen = dead.Len()
	}
	var taken map[idgen.ObjectID]*entry
	switch {
	case rs != nil:
		rs.mu.Lock()
		s.drainReplLocked(rs)
		rs.mu.Unlock()
		taken = rs.table.takeAll()
	case dead != nil:
		// No successor existed (ring of one): nothing replicated this
		// shard, so the in-process table is the only copy left. This is
		// the stranded-entry safety net, not the durability path.
		taken = dead.takeAll()
	}
	restored = len(taken)
	if lost = primaryLen - restored; lost < 0 {
		lost = 0
	}
	s.promotions++
	s.restoredEntries += uint64(restored)
	s.lostEntries += uint64(lost)
	touched := make(map[idgen.NodeID]bool)
	s.rehomeLocked(taken, touched)
	s.handoffs += uint64(restored)
	s.syncReplicasLocked(touched)
	return restored, lost
}

// FlushReplication drains every pending replication log and returns the
// number of ops applied. The runtime's gossip pump calls this each tick;
// tests call it to reach a known-synced state.
func (s *ShardedTable) FlushReplication() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	applied := 0
	for _, rs := range s.repl {
		rs.mu.Lock()
		applied += len(rs.log)
		s.drainReplLocked(rs)
		rs.mu.Unlock()
	}
	return applied
}

// ReplicationStats is the durability counter snapshot surfaced in
// `skadi -trace` and consumed by chaos invariant I7.
type ReplicationStats struct {
	// Replicas is the number of shard replicas currently maintained
	// (members with a distinct ring successor).
	Replicas int
	// LogDepth is the total count of logged ops not yet applied.
	LogDepth int
	// Appended / Applied count replication-log traffic since creation.
	Appended, Applied uint64
	// Promotions counts RemoveMemberDead calls that removed a member;
	// Restored / Lost count the entries recovered from (resp. not covered
	// by) replicas across those promotions. Lost must stay zero.
	Promotions, Restored, Lost uint64
}

// ReplicationStats returns the current counters.
func (s *ShardedTable) ReplicationStats() ReplicationStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := ReplicationStats{
		Replicas:   len(s.repl),
		Appended:   s.replAppended.Load(),
		Applied:    s.replApplied.Load(),
		Promotions: s.promotions,
		Restored:   s.restoredEntries,
		Lost:       s.lostEntries,
	}
	for _, rs := range s.repl {
		rs.mu.Lock()
		st.LogDepth += len(rs.log)
		rs.mu.Unlock()
	}
	return st
}

// ReplicaDivergence flushes every replication log and compares each
// replica against its primary, returning human-readable mismatches (empty
// when every replica exactly mirrors its primary). It takes the directory
// write lock, so it observes a quiesced directory — this is the deep probe
// behind chaos invariant I7.
func (s *ShardedTable) ReplicaDivergence() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	primaries := make([]idgen.NodeID, 0, len(s.repl))
	for primary := range s.repl {
		primaries = append(primaries, primary)
	}
	sort.Slice(primaries, func(i, j int) bool { return primaries[i].Less(primaries[j]) })
	for _, primary := range primaries {
		rs := s.repl[primary]
		shard := s.shards[primary]
		if shard == nil {
			out = append(out, fmt.Sprintf("replica for non-member %s", primary.Short()))
			continue
		}
		rs.mu.Lock()
		s.drainReplLocked(rs)
		rs.mu.Unlock()
		for _, d := range diffReplica(shard, rs.table) {
			out = append(out, fmt.Sprintf("shard %s: %s", primary.Short(), d))
		}
	}
	return out
}

// Successor returns the ring successor of n — the member hosting n's
// shard replica, promoted if n dies. ok is false when the ring has fewer
// than two members or n is not one of them.
func (s *ShardedTable) Successor(n idgen.NodeID) (idgen.NodeID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring.SuccessorOf(n)
}
