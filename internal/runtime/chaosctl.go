package runtime

import (
	"context"
	"sort"
	"time"

	"skadi/internal/caching"
	"skadi/internal/chaos"
	"skadi/internal/cluster"
	"skadi/internal/idgen"
)

// chaosctl.go wires the chaos engine into the runtime. The engine sits on
// the transport as an interposer for message faults, and KillNode /
// RestartNode route through it so every induced failure — scripted or
// ad-hoc — lands in one journal and gets the same fabric-endpoint
// semantics (in-flight chunked transfers to a crashed node fail typed).

// initChaos builds the engine and installs it on the transport. Called
// once from New; with no plan armed the interposer is a pass-through.
func (rt *Runtime) initChaos() {
	rt.chaosEng = chaos.NewEngine(rt.Cluster.Fabric, chaos.Hooks{})
	rt.Cluster.Transport.SetInterposer(rt.chaosEng)
}

// Chaos returns the runtime's chaos engine (always non-nil).
func (rt *Runtime) Chaos() *chaos.Engine { return rt.chaosEng }

// ChaosNodes returns every cluster node in insertion order — the index
// space chaos plan events use — plus the indices of the faultable nodes
// (worker servers; never the head, memory blade, or devices).
func (rt *Runtime) ChaosNodes() (all []idgen.NodeID, faultable []int) {
	rt.mu.Lock()
	hasRaylet := make(map[idgen.NodeID]bool, len(rt.raylets))
	for id := range rt.raylets {
		hasRaylet[id] = true
	}
	rt.mu.Unlock()
	for i, n := range rt.Cluster.Nodes() {
		all = append(all, n.ID)
		if n.Kind == cluster.Server && n.ID != rt.driver && hasRaylet[n.ID] {
			faultable = append(faultable, i)
		}
	}
	return all, faultable
}

// InstallPlan arms the engine with a plan over the current cluster. The
// caller drives events via ApplyStep or RunPlan; message rules are live
// from this moment.
func (rt *Runtime) InstallPlan(p *chaos.Plan) {
	nodes, _ := rt.ChaosNodes()
	rt.chaosEng.Install(p, nodes)
}

// ApplyStep applies every plan event tagged with the given step, in plan
// order. Tests script exact fault points with steps; RunPlan handles the
// timed events instead.
func (rt *Runtime) ApplyStep(ctx context.Context, p *chaos.Plan, step int) {
	for _, e := range p.Events {
		if e.Step == step && step != 0 {
			rt.applyChaosEvent(ctx, e)
		}
	}
}

// RunPlan installs the plan and plays out its timed events (Step == 0) on
// the wall clock, then heals: partitions clear, slow links reset, and
// nodes that are actually alive become schedulable again. Crashed nodes
// whose restart the plan omitted stay down — that is the plan's statement,
// not a leak.
func (rt *Runtime) RunPlan(ctx context.Context, p *chaos.Plan) {
	rt.InstallPlan(p)
	start := time.Now()
	evs := append([]chaos.Event(nil), p.Events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	for _, e := range evs {
		if e.Step != 0 {
			continue
		}
		if d := time.Until(start.Add(e.At)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				rt.HealChaos()
				return
			}
		}
		rt.applyChaosEvent(ctx, e)
	}
	rt.HealChaos()
}

// applyChaosEvent executes one plan event against the runtime.
func (rt *Runtime) applyChaosEvent(ctx context.Context, e chaos.Event) {
	resolve := func(idxs []int) []idgen.NodeID {
		var out []idgen.NodeID
		for _, i := range idxs {
			if id, ok := rt.chaosEng.NodeAt(i); ok {
				out = append(out, id)
			}
		}
		return out
	}
	switch e.Kind {
	case chaos.EventCrash:
		for _, id := range resolve(e.Nodes) {
			rt.KillNode(id)
		}
	case chaos.EventRestart:
		for _, id := range resolve(e.Nodes) {
			rt.RestartNode(id)
		}
	case chaos.EventPartition:
		rt.chaosEng.Partition(resolve(e.Nodes))
	case chaos.EventHeal:
		rt.chaosEng.HealPartition()
		rt.reviveReachable()
	case chaos.EventSlowClass:
		rt.chaosEng.SlowClass(e.Class, e.Factor)
	case chaos.EventDecommission:
		for _, id := range resolve(e.Nodes) {
			_, _ = rt.Decommission(ctx, id)
		}
	}
}

// HealChaos ends an episode: partitions and slow links clear, message
// rules disarm, and every node that is genuinely alive is made
// schedulable again. The last part matters because dispatch marks nodes
// dead on unreachable errors — under chaos a dropped message is
// indistinguishable from a dead node, so heal must undo those verdicts.
func (rt *Runtime) HealChaos() {
	rt.chaosEng.Uninstall()
	rt.reviveReachable()
}

// reviveReachable restores scheduling for alive, un-cordoned raylet nodes.
func (rt *Runtime) reviveReachable() {
	rt.mu.Lock()
	ids := make([]idgen.NodeID, 0, len(rt.raylets))
	for id := range rt.raylets {
		if id == rt.driver {
			continue
		}
		if _, parked := rt.autoscale.cordoned[id]; parked {
			continue
		}
		ids = append(ids, id)
	}
	rt.mu.Unlock()
	for _, id := range ids {
		if rt.nodeAlive(id) {
			// Undo dispatch's unreachable verdicts, which gossip never saw.
			rt.Sched.SetAlive(id, true)
			// A partition may have gossip-convicted a node that never
			// actually died; rejoining clears the verdict and hands a shard
			// host its key range back.
			rt.noteNodeAlive(id)
		}
	}
}

// ChaosChecker binds the six cross-subsystem invariants to this runtime,
// capturing the goroutine baseline now. Build it before injecting faults;
// call Check only after the episode quiesced (faults healed, Gets
// returned, Drain done).
func (rt *Runtime) ChaosChecker() *chaos.Checker {
	view := chaos.View{
		PendingFutures: rt.Head.Table.PendingIDs,
		FutureError:    rt.taskErr,
		Records:        rt.Head.Table.Records,
		HasCopy:        rt.holds,
		Redundant:      rt.Layer.RecoverableWithout,
		Hygiene: func() []chaos.Hygiene {
			var out []chaos.Hygiene
			for _, rl := range rt.Raylets() {
				h := rl.MigrationHygiene()
				out = append(out, chaos.Hygiene{
					Node:                 rl.Node(),
					FrozenActors:         h.FrozenActors,
					HeldLocks:            h.HeldLocks,
					LiveActorTombstones:  h.LiveActorTombstones,
					LiveObjectTombstones: h.LiveObjectTombstones,
				})
			}
			return out
		},
		Tenants: func() []chaos.TenantAccount {
			if !rt.Tenancy.Enabled() {
				return nil
			}
			// Accounting concludes when dispatch goroutines exit, which can
			// trail the Get calls that released the episode; drain first so
			// the snapshot is a true quiesce view.
			rt.Drain()
			var out []chaos.TenantAccount
			for _, a := range rt.Tenancy.Accounts() {
				out = append(out, chaos.TenantAccount{
					Tenant:    a.Tenant,
					Submitted: a.Submitted,
					Admitted:  a.Admitted,
					Rejected:  a.Rejected,
					Completed: a.Completed,
					Failed:    a.Failed,
					InFlight:  a.InFlight,
					Queued:    a.Queued,
					Running:   a.Running,
				})
			}
			return out
		},
		Durability: func() *chaos.Durability {
			rt.mu.Lock()
			replicated := len(rt.shardHosts) > 1
			rt.mu.Unlock()
			if !replicated {
				// A lone shard host has no successor to replicate to; its
				// metadata is as durable as the head, which never crashes.
				return nil
			}
			st := rt.sharded.ReplicationStats()
			return &chaos.Durability{
				Enabled:           true,
				Promotions:        st.Promotions,
				Restored:          st.Restored,
				LostEntries:       st.Lost,
				Mismatches:        rt.sharded.ReplicaDivergence(),
				LineageRecoveries: uint64(rt.Metrics.Counter(MetricLineageRecoveries).Value()),
				// With the data plane replicating every object and the
				// metadata replicating every shard, a crash should never
				// force recomputation: promotion restores the directory and
				// restore repairs from a surviving copy before lineage.
				LineageForbidden: rt.opts.Caching.Mode == caching.ModeReplicate &&
					rt.opts.Recovery == Recover,
			}
		},
	}
	return chaos.NewChecker(view, rt.chaosEng)
}
