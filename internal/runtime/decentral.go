package runtime

import (
	"time"

	"skadi/internal/gossip"
	"skadi/internal/idgen"
	"skadi/internal/ownership"
)

// decentral.go wires liveness through the control plane: the gossip view is
// the single source of truth for which nodes are up, and its transitions
// drive both the consistent-hash shard ring (ownership directory handoff)
// and the mesh's candidate set. Kill/Restart/Decommission record what the
// runtime witnessed; with Options.Decentralized the background pump also
// convicts nodes nobody reported. A runtime whose only shard host is the
// head takes the same path — the ring calls just find nothing to move.

// Control-plane metric names, refreshed by SampleControlPlane and shown by
// `skadi -trace`.
const (
	// GaugeGossipAlive / Suspect / Dead are the failure detector's current
	// view counts.
	GaugeGossipAlive   = "gossip_alive"
	GaugeGossipSuspect = "gossip_suspect"
	GaugeGossipDead    = "gossip_dead"
	// GaugeDirHandoffs is the cumulative count of directory entries that
	// moved between shards on ring membership changes.
	GaugeDirHandoffs = "directory_handoffs"
	// GaugeShardEntries is the per-node directory shard size (labelled by
	// node short ID).
	GaugeShardEntries = "directory_shard_entries"
	// GaugeSchedSteals is the per-node count of tasks a node accepted by
	// stealing from a saturated home (labelled by node short ID).
	GaugeSchedSteals = "sched_steals"
	// GaugeStealLocalBytes / RemoteBytes split the reference-arg bytes of
	// stolen tasks by whether the thief already held a copy — the measure
	// of locality-aware stealing (E20's steal-bytes column).
	GaugeStealLocalBytes  = "sched_steal_local_bytes"
	GaugeStealRemoteBytes = "sched_steal_remote_bytes"
	// GaugeReplLogDepth is the total backlog across shard replication logs
	// (ops applied to a primary but not yet to its successor replica).
	GaugeReplLogDepth = "repl_log_depth"
	// GaugeReplPromotions / Restored / Lost count replica promotions on
	// node death, the directory entries they restored, and the entries no
	// replica covered (lost > 0 is an I7 durability violation).
	GaugeReplPromotions = "repl_promotions"
	GaugeReplRestored   = "repl_restored_entries"
	GaugeReplLost       = "repl_lost_entries"
)

// MetricLineageRecoveries counts lineage re-submissions; with replicated
// data and shard metadata, I7 requires zero. MetricRedundantRuns counts
// re-submissions that started while one of the task's outputs was live: a
// first run executed again for nothing. The chaos suites require zero.
const (
	MetricLineageRecoveries = "lineage_recoveries"
	MetricRedundantRuns     = "redundant_runs"
)

// defaultGossipInterval paces the background failure-detector loop. With
// SuspectTicks=3 this puts silent-partition detection at ~10ms — far inside
// a chaos episode, far outside a healthy RPC.
const defaultGossipInterval = 2 * time.Millisecond

// gossipReachable is the detector's network oracle. Liveness is checked
// against cluster state first (a crashed node must never ack), then the
// probe rides the real transport as a gossip.probe RPC: it crosses the
// chaos interposer and the fabric, so the detector observes exactly the
// faults data traffic does — partitions drop the frame, injected
// chaos verdicts apply — instead of an oracle's opinion of them.
func (rt *Runtime) gossipReachable(from, to idgen.NodeID) bool {
	return rt.nodeAlive(to) && rt.gossipProbe(from, to)
}

// applyGossipEvents feeds membership transitions into the shard ring and
// the scheduler. Suspect withdraws a node from scheduling but keeps its
// shard (the suspicion may be refuted); Dead additionally hands its key
// range to the survivors; Alive reverses both, rejoining the ring only for
// shard hosts. The head is a permanent ring member and never leaves.
func (rt *Runtime) applyGossipEvents(events []gossip.Event) {
	for _, e := range events {
		switch e.Status {
		case gossip.Suspect:
			if e.Node != rt.driver {
				rt.Sched.SetAlive(e.Node, false)
			}
		case gossip.Dead:
			if e.Node != rt.driver {
				rt.Sched.SetAlive(e.Node, false)
				// Death promotes the node's replica: its shard is rebuilt
				// from the ring successor's copy, restoring waiters,
				// subscribers, and forwarding chains without lineage replay.
				// (Graceful departures keep using RemoveMember — see
				// noteNodeLeft — because the live table is still the best
				// source.)
				rt.sharded.RemoveMemberDead(e.Node)
			}
		case gossip.Alive:
			// Re-admit only nodes that are actually up: a stale Alive event
			// must not resurrect a crashed node in the scheduler.
			if rt.nodeAlive(e.Node) {
				rt.mu.Lock()
				hostsShard := rt.shardHosts[e.Node]
				rt.mu.Unlock()
				if hostsShard {
					rt.sharded.AddMember(e.Node)
				}
				if e.Node != rt.driver {
					rt.Sched.SetAlive(e.Node, true)
				}
			}
		}
	}
}

// noteNodeDead records a confirmed crash (KillNode) in gossip and applies
// the resulting transition synchronously.
func (rt *Runtime) noteNodeDead(node idgen.NodeID) {
	rt.gossip.DeclareDead(node)
	rt.applyGossipEvents(rt.gossip.Drain())
}

// noteNodeAlive records a (re)join: new raylets, RestartNode and partition
// heal route through here. Rejoining bumps the incarnation, which refutes
// any standing suspicion or death verdict. No-op when already alive.
func (rt *Runtime) noteNodeAlive(node idgen.NodeID) {
	rt.gossip.Join(node)
	rt.applyGossipEvents(rt.gossip.Drain())
}

// noteNodeLeft records a graceful, permanent departure (Decommission).
func (rt *Runtime) noteNodeLeft(node idgen.NodeID) {
	rt.mu.Lock()
	delete(rt.shardHosts, node)
	rt.mu.Unlock()
	rt.gossip.Leave(node)
	rt.sharded.RemoveMember(node)
	rt.applyGossipEvents(rt.gossip.Drain())
}

// startGossipPump launches the background detector loop: each tick probes,
// ages suspicions, and applies whatever transitions fall out. This is what
// catches silent failures — partitions with no KillNode call behind them.
func (rt *Runtime) startGossipPump(interval time.Duration) {
	if interval <= 0 {
		interval = defaultGossipInterval
	}
	rt.gossipStop = make(chan struct{})
	rt.gossipWG.Add(1)
	go func() {
		defer rt.gossipWG.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-rt.gossipStop:
				return
			case <-ticker.C:
				rt.applyGossipEvents(rt.gossip.Tick())
				// Drain shard replication logs on the same cadence, so a
				// replica's lag is bounded by one gossip interval plus the
				// replogCap overflow drain.
				rt.sharded.FlushReplication()
			}
		}
	}()
}

// stopGossipPump halts the background loop (idempotent; safe when it was
// never started).
func (rt *Runtime) stopGossipPump() {
	if rt.gossipStop == nil {
		return
	}
	select {
	case <-rt.gossipStop:
	default:
		close(rt.gossipStop)
	}
	rt.gossipWG.Wait()
}

// StepGossip advances the failure detector n rounds synchronously and
// applies the emitted transitions, returning how many there were. Tests use
// it to drive suspicion → death deterministically instead of sleeping
// against the background pump.
func (rt *Runtime) StepGossip(n int) int {
	applied := 0
	for i := 0; i < n; i++ {
		events := rt.gossip.Tick()
		applied += len(events)
		rt.applyGossipEvents(events)
		rt.sharded.FlushReplication()
	}
	return applied
}

// ControlPlaneSample is a point-in-time view of the control plane's
// health, for experiments and `skadi -trace`.
type ControlPlaneSample struct {
	// Decentralized is Options.Decentralized.
	Decentralized bool
	// ShardEntries maps each ring member to its directory shard size.
	ShardEntries map[idgen.NodeID]int
	// Handoffs is the cumulative count of entries moved between shards.
	Handoffs uint64
	// Alive / Suspect / Dead are the gossip view counts.
	Alive, Suspect, Dead int
	// Steals maps each node to the tasks it accepted by work stealing.
	Steals map[idgen.NodeID]uint64
	// StealLocalBytes / StealRemoteBytes split stolen tasks' reference-arg
	// bytes by whether the thief already held a copy.
	StealLocalBytes, StealRemoteBytes int64
	// Repl summarizes shard replication: log backlog, promotions on node
	// death, and the entries those promotions restored or lost.
	Repl ownership.ReplicationStats
}

// SampleControlPlane refreshes the control-plane gauge families (gossip
// view counts, per-shard directory sizes, per-node steal counters) and
// returns the sample.
func (rt *Runtime) SampleControlPlane() ControlPlaneSample {
	s := ControlPlaneSample{
		Decentralized: rt.decentralized,
		ShardEntries:  rt.sharded.ShardSizes(),
		Handoffs:      rt.sharded.Handoffs(),
		Steals:        rt.mesh.Steals(),
	}
	s.Alive, s.Suspect, s.Dead = rt.gossip.Counts()
	s.StealLocalBytes, s.StealRemoteBytes = rt.mesh.StealBytes()
	s.Repl = rt.sharded.ReplicationStats()

	rt.Metrics.Gauge(GaugeGossipAlive).Set(int64(s.Alive))
	rt.Metrics.Gauge(GaugeGossipSuspect).Set(int64(s.Suspect))
	rt.Metrics.Gauge(GaugeGossipDead).Set(int64(s.Dead))
	rt.Metrics.Gauge(GaugeDirHandoffs).Set(int64(s.Handoffs))
	rt.Metrics.Gauge(GaugeStealLocalBytes).Set(s.StealLocalBytes)
	rt.Metrics.Gauge(GaugeStealRemoteBytes).Set(s.StealRemoteBytes)
	rt.Metrics.Gauge(GaugeReplLogDepth).Set(int64(s.Repl.LogDepth))
	rt.Metrics.Gauge(GaugeReplPromotions).Set(int64(s.Repl.Promotions))
	rt.Metrics.Gauge(GaugeReplRestored).Set(int64(s.Repl.Restored))
	rt.Metrics.Gauge(GaugeReplLost).Set(int64(s.Repl.Lost))

	shards := rt.Metrics.GaugeVec(GaugeShardEntries)
	current := make(map[string]bool, len(s.ShardEntries))
	for node, n := range s.ShardEntries {
		label := node.Short()
		current[label] = true
		shards.With(label).Set(int64(n))
	}
	for _, label := range shards.Labels() {
		if !current[label] {
			shards.Delete(label)
		}
	}
	steals := rt.Metrics.GaugeVec(GaugeSchedSteals)
	for node, n := range s.Steals {
		steals.With(node.Short()).Set(int64(n))
	}
	return s
}
