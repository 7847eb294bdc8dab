package runtime

import (
	"context"
	"fmt"
	"sort"
	"time"

	"skadi/internal/idgen"
	"skadi/internal/migrate"
	"skadi/internal/scheduler"
	"skadi/internal/task"
	"skadi/internal/trace"
)

// Per-node gauge families refreshed by SampleNodeGauges. The label is the
// node's short ID.
const (
	// GaugeResidentBytes is each node's local object-store usage.
	GaugeResidentBytes = "node_resident_bytes"
	// GaugeQueueDepth is each node's in-flight task count.
	GaugeQueueDepth = "node_queue_depth"
	// GaugeActorCount is the number of actors whose record names each node.
	GaugeActorCount = "node_actor_count"
)

// MigrateActor live-migrates an actor from the node its record names to an
// explicit destination (see migrate.Migrator.MigrateActor). Calls keep
// flowing meanwhile: they park at the source and follow the record after
// it moves. Of two migrations that read the same home, at most one
// commits.
func (rt *Runtime) MigrateActor(ctx context.Context, actor idgen.ActorID, to idgen.NodeID) (migrate.ActorReport, error) {
	rec, ok := rt.Head.Actor(actor)
	if !ok {
		return migrate.ActorReport{}, fmt.Errorf("runtime: unknown actor %s", actor.Short())
	}
	if rec.Home == to {
		return migrate.ActorReport{Actor: actor, From: to, To: to}, nil
	}
	rt.mu.Lock()
	_, ok = rt.raylets[to]
	rt.mu.Unlock()
	if !ok {
		return migrate.ActorReport{}, fmt.Errorf("runtime: no raylet on destination %s", to.Short())
	}
	if _, traced := trace.FromContext(ctx); !traced {
		var sp *trace.Span
		ctx, sp = rt.tracer.StartRoot(ctx, idgen.Next(), trace.KindMigrateActor, rt.driver)
		defer sp.End()
	}
	return rt.migrator.MigrateActor(ctx, actor, rec.Home, to)
}

// MigrateObject moves one resident object's copy between nodes via the
// live-migration path (copy, retarget the record, drop at the source).
func (rt *Runtime) MigrateObject(ctx context.Context, id idgen.ObjectID, from, to idgen.NodeID) (migrate.ObjectReport, error) {
	if _, traced := trace.FromContext(ctx); !traced {
		var sp *trace.Span
		ctx, sp = rt.tracer.StartRoot(ctx, idgen.Next(), trace.KindMigrateObject, rt.driver)
		defer sp.End()
	}
	return rt.migrator.MigrateObject(ctx, id, from, to)
}

// DecommissionReport summarizes one node drain.
type DecommissionReport struct {
	Node         idgen.NodeID
	ActorsMoved  int
	ObjectsMoved int
	// BytesMoved is the total payload that crossed the fabric during the
	// drain (actor state + object copies).
	BytesMoved int64
	// StaleDropped counts ownership entries that still claimed the node
	// but had no live copy to move (evicted or untracked data).
	StaleDropped int
	Dur          time.Duration
}

// Decommission gracefully removes a node: it is withdrawn from scheduling,
// its actors live-migrate away (no failed tasks), in-flight work drains,
// resident objects are copied off (copy → retarget → drop), and only then
// is the raylet actually stopped and the node removed from the cluster.
// This is the elastic shrink path of a disaggregated pool — contrast with
// KillNode, which drops state and leans on lineage or cache recovery.
//
// EC shards and DSM-spilled data are not migrated: shards are redundant by
// construction and DSM survives the node. On any error the node is left
// cordoned-but-alive: withdrawn from scheduling, raylet still serving its
// remaining data, never half-dead. It is not returned to service — new
// work must not land on a node being evacuated; retry Decommission to
// finish the drain (already-moved actors/objects are not moved twice).
func (rt *Runtime) Decommission(ctx context.Context, node idgen.NodeID) (DecommissionReport, error) {
	start := time.Now()
	rep := DecommissionReport{Node: node}
	if node == rt.driver {
		return rep, fmt.Errorf("runtime: cannot decommission the head node")
	}
	rt.mu.Lock()
	rl, ok := rt.raylets[node]
	rt.mu.Unlock()
	if !ok {
		return rep, fmt.Errorf("runtime: no raylet on node %s", node.Short())
	}

	ctx, root := rt.tracer.StartRoot(ctx, idgen.Next(), trace.KindDecommission, rt.driver)
	root.SetAttr("node", node.Short())
	defer root.End()

	// 1. Withdraw from scheduling, keeping inflight accounting alive
	// (RemoveNode would destroy it; we still need to watch the queue
	// drain).
	rt.Sched.SetAlive(node, false)

	// 2. Live-migrate every actor whose record names this node.
	// Destinations come from the scheduler, which no longer offers it.
	for _, rec := range rt.Head.Actors() {
		if rec.Home != node {
			continue
		}
		probe := task.NewSpec(rt.job, "", nil, 0)
		probe.Backend = rec.Backend
		dest, err := rt.Sched.Pick(probe)
		if err != nil {
			return rep, fmt.Errorf("runtime: no destination for actor %s (%s): %w", rec.Actor.Short(), rec.Backend, err)
		}
		rt.Sched.Finished(dest)
		arep, err := rt.MigrateActor(ctx, rec.Actor, dest)
		if err != nil {
			return rep, fmt.Errorf("runtime: draining actor %s: %w", rec.Actor.Short(), err)
		}
		rep.ActorsMoved++
		rep.BytesMoved += arep.Bytes
	}

	// 3. Wait out in-flight tasks (non-actor tasks already placed here,
	// plus actor tasks on their way to the actor's new home).
	for rt.Sched.Inflight(node) != 0 {
		select {
		case <-ctx.Done():
			return rep, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}

	// 4. Drain resident objects, round-robin across the remaining fleet. A
	// target that refuses an object (its store has no room) keeps nothing,
	// so the next target in turn is tried; the drain fails only when every
	// target refuses.
	targets := rt.drainTargets(node)
	if store := rt.Layer.Store(node); store != nil && len(targets) > 0 {
		ids := store.List()
		sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
		i := 0
		for _, id := range ids {
			if _, err := rt.Head.Table.Get(id); err != nil {
				continue // EC shard or untracked blob; redundancy covers it
			}
			var orep migrate.ObjectReport
			var err error
			for k := range targets {
				orep, err = rt.migrator.MigrateObject(ctx, id, node, targets[(i+k)%len(targets)])
				if err == nil || ctx.Err() != nil {
					break
				}
			}
			i++
			if err != nil {
				return rep, fmt.Errorf("runtime: draining object %s: %w", id.Short(), err)
			}
			if orep.Moved {
				rep.ObjectsMoved++
				rep.BytesMoved += orep.Bytes
			}
		}
	}

	// 5. The node is empty: stop the raylet for real and remove the node.
	// Ownership entries still claiming the node (evicted copies, EC shards)
	// are scrubbed; anything that thereby loses its last copy was already
	// dead weight: it is reported and settled without re-running anything
	// (see restore), so a later Get re-derives it only if someone asks.
	rl.Stop()
	rt.Cluster.Kill(node)
	rt.Sched.RemoveNode(node)
	// A drained node leaves gossip and the shard ring for good — Leave,
	// unlike a death verdict, cannot be refuted by a rejoin.
	rt.noteNodeLeft(node)
	rt.Layer.DropNode(node)
	lost, _ := rt.restore(rt.Head.Table.RemoveNodeLocations(node), false)
	rep.StaleDropped = len(lost)
	rt.mu.Lock()
	delete(rt.raylets, node)
	delete(rt.rayletCfg, node)
	rt.mu.Unlock()
	rt.uncordon(node)
	label := node.Short()
	rt.Metrics.GaugeVec(GaugeResidentBytes).Delete(label)
	rt.Metrics.GaugeVec(GaugeQueueDepth).Delete(label)
	rt.Metrics.GaugeVec(GaugeActorCount).Delete(label)

	rep.Dur = time.Since(start)
	root.SetAttr("bytes", fmt.Sprint(rep.BytesMoved))
	return rep, nil
}

// drainTargets returns the nodes eligible to absorb a drained node's data:
// alive raylet hosts that are not the source, the driver, or themselves
// cordoned for removal. Falls back to the driver if no worker remains.
func (rt *Runtime) drainTargets(src idgen.NodeID) []idgen.NodeID {
	rt.mu.Lock()
	var out []idgen.NodeID
	for id := range rt.raylets {
		if id == src || id == rt.driver {
			continue
		}
		if _, parked := rt.autoscale.cordoned[id]; parked {
			continue
		}
		if rt.nodeAlive(id) {
			out = append(out, id)
		}
	}
	rt.mu.Unlock()
	if len(out) == 0 {
		return []idgen.NodeID{rt.driver}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// SampleNodeGauges refreshes the per-node gauge families (resident bytes,
// queue depth, actor count) and returns the matching load sample for the
// rebalance planner.
func (rt *Runtime) SampleNodeGauges() []scheduler.NodeLoad {
	actorCount := make(map[idgen.NodeID]int)
	for _, rec := range rt.Head.Actors() {
		actorCount[rec.Home]++
	}
	rt.mu.Lock()
	cfgs := make(map[idgen.NodeID]struct {
		backend string
		proxied bool
	}, len(rt.rayletCfg))
	nodes := make([]idgen.NodeID, 0, len(rt.raylets))
	for id := range rt.raylets {
		if id == rt.driver {
			continue
		}
		nodes = append(nodes, id)
		cfg := rt.rayletCfg[id]
		cfgs[id] = struct {
			backend string
			proxied bool
		}{cfg.Backend, !cfg.DPUProxy.IsNil()}
	}
	rt.mu.Unlock()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Less(nodes[j]) })

	resident := rt.Metrics.GaugeVec(GaugeResidentBytes)
	queue := rt.Metrics.GaugeVec(GaugeQueueDepth)
	actorsVec := rt.Metrics.GaugeVec(GaugeActorCount)

	loads := make([]scheduler.NodeLoad, 0, len(nodes))
	for _, id := range nodes {
		var used int64
		if store := rt.Layer.Store(id); store != nil {
			used = store.Used()
		}
		depth := rt.Sched.Inflight(id)
		label := id.Short()
		resident.With(label).Set(used)
		queue.With(label).Set(int64(depth))
		actorsVec.With(label).Set(int64(actorCount[id]))
		unreachable := !rt.nodeAlive(id) || rt.chaosEng.Partitioned(rt.driver, id)
		loads = append(loads, scheduler.NodeLoad{
			ID:            id,
			Backend:       cfgs[id].backend,
			ResidentBytes: used,
			QueueDepth:    depth,
			Actors:        actorCount[id],
			DPUProxied:    cfgs[id].proxied,
			Unreachable:   unreachable,
		})
	}
	return loads
}

// Rebalance samples node load, plans moves (hot-spill plus optional
// Gen-1 → Gen-2 offload), and realizes each move with live object
// migrations, largest objects first, until the planned volume has moved.
// Returns the executed plan.
func (rt *Runtime) Rebalance(ctx context.Context, cfg scheduler.RebalanceConfig) ([]scheduler.Move, error) {
	ctx, root := rt.tracer.StartRoot(ctx, idgen.Next(), trace.KindRebalance, rt.driver)
	defer root.End()
	loads := rt.SampleNodeGauges()
	moves := scheduler.PlanRebalance(loads, cfg)
	for _, mv := range moves {
		store := rt.Layer.Store(mv.From)
		if store == nil {
			continue
		}
		ids := store.List()
		// Largest first: fewest migrations to hit the target volume.
		sort.Slice(ids, func(i, j int) bool {
			si, _ := store.Size(ids[i])
			sj, _ := store.Size(ids[j])
			if si != sj {
				return si > sj
			}
			return ids[i].Less(ids[j])
		})
		var moved int64
		for _, id := range ids {
			if moved >= mv.Bytes {
				break
			}
			if _, err := rt.Head.Table.Get(id); err != nil {
				continue // EC shard or untracked blob
			}
			orep, err := rt.migrator.MigrateObject(ctx, id, mv.From, mv.To)
			if err != nil {
				continue // object busy or gone; the next pass retries
			}
			if orep.Moved {
				moved += orep.Bytes
			}
		}
	}
	// Refresh the gauges so observers see the post-move distribution.
	rt.SampleNodeGauges()
	return moves, nil
}

// CreateActorOn pins a new actor to an explicit node — experiments use it
// to control initial placement (e.g. placing the victim of a migration
// benchmark).
func (rt *Runtime) CreateActorOn(node idgen.NodeID, backend string) (idgen.ActorID, error) {
	rt.mu.Lock()
	_, ok := rt.raylets[node]
	rt.mu.Unlock()
	if !ok {
		return idgen.Nil, fmt.Errorf("runtime: no raylet on node %s", node.Short())
	}
	actor := idgen.Next()
	rt.Head.CreateActor(actor, node, backend)
	return actor, nil
}
