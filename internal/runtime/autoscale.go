package runtime

import (
	"fmt"
	"sync/atomic"
	"time"

	"skadi/internal/cluster"
	"skadi/internal/idgen"
	"skadi/internal/scheduler"
)

// cordonRecord remembers why and how a node was cordoned, so later policy
// (ScaleUp reuse, Decommission) can act on it without re-deriving state.
type cordonRecord struct {
	// slots is the worker count to restore on un-cordon.
	slots int
}

// autoscaleState tracks the elastic worker fleet.
type autoscaleState struct {
	pending atomic.Int64
	// cordoned servers are withdrawn from scheduling but still serve
	// reads of the objects they hold (graceful scale-down). The map gives
	// O(1) membership checks (isCordoned sits on the scheduling hot path
	// via ActiveWorkers); cordonOrder preserves LIFO reuse so ScaleUp
	// brings back the most recently parked node first.
	cordoned    map[idgen.NodeID]*cordonRecord
	cordonOrder []idgen.NodeID
	grown       int
}

// Pending returns the number of submitted-but-unfinished tasks — the
// autoscaler's load signal.
func (rt *Runtime) Pending() int { return int(rt.autoscale.pending.Load()) }

// workerServers returns the schedulable CPU worker nodes.
func (rt *Runtime) workerServers() []idgen.NodeID {
	nodes := rt.Cluster.NodesByKind(cluster.Server)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []idgen.NodeID
	for _, n := range nodes {
		if n.ID == rt.driver || !n.Alive() {
			continue
		}
		if _, ok := rt.raylets[n.ID]; ok {
			out = append(out, n.ID)
		}
	}
	return out
}

// ScaleUp adds one worker server to the fleet: an un-cordoned standby if
// available, otherwise a freshly provisioned node with its own raylet —
// the pay-as-you-go half of the serverless principle.
func (rt *Runtime) ScaleUp(slots int, memBytes int64) (idgen.NodeID, error) {
	rt.mu.Lock()
	if n := len(rt.autoscale.cordonOrder); n > 0 {
		node := rt.autoscale.cordonOrder[n-1]
		rt.autoscale.cordonOrder = rt.autoscale.cordonOrder[:n-1]
		delete(rt.autoscale.cordoned, node)
		hasRaylet := rt.raylets[node] != nil // raylet kept running while cordoned
		rt.mu.Unlock()
		if hasRaylet {
			rt.Sched.AddNode(scheduler.NodeInfo{ID: node, Backend: "cpu", Slots: slots})
			return node, nil
		}
		return idgen.Nil, fmt.Errorf("runtime: cordoned node %s has no raylet", node.Short())
	}
	rt.autoscale.grown++
	name := fmt.Sprintf("auto-%d", rt.autoscale.grown)
	rt.mu.Unlock()

	node := rt.Cluster.AddServer(name, 0, slots, memBytes)
	if err := rt.addRaylet(node, "cpu", slots, idgen.Nil); err != nil {
		return idgen.Nil, err
	}
	return node.ID, nil
}

// ScaleDown cordons one idle worker: it stops receiving tasks but keeps
// serving its resident objects, so no data movement or loss occurs.
// Returns false if no worker is idle.
func (rt *Runtime) ScaleDown() (idgen.NodeID, bool) {
	for _, node := range rt.workerServers() {
		if rt.Sched.Inflight(node) != 0 {
			continue
		}
		if rt.isCordoned(node) {
			continue
		}
		rt.Sched.RemoveNode(node)
		rt.mu.Lock()
		if rt.autoscale.cordoned == nil {
			rt.autoscale.cordoned = make(map[idgen.NodeID]*cordonRecord)
		}
		rt.autoscale.cordoned[node] = &cordonRecord{slots: rt.rayletCfg[node].Slots}
		rt.autoscale.cordonOrder = append(rt.autoscale.cordonOrder, node)
		rt.mu.Unlock()
		return node, true
	}
	return idgen.Nil, false
}

func (rt *Runtime) isCordoned(node idgen.NodeID) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	_, ok := rt.autoscale.cordoned[node]
	return ok
}

// uncordon removes a node from the cordon set (used by Decommission once
// the node is gone for good).
func (rt *Runtime) uncordon(node idgen.NodeID) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, ok := rt.autoscale.cordoned[node]; !ok {
		return
	}
	delete(rt.autoscale.cordoned, node)
	for i, n := range rt.autoscale.cordonOrder {
		if n == node {
			rt.autoscale.cordonOrder = append(rt.autoscale.cordonOrder[:i], rt.autoscale.cordonOrder[i+1:]...)
			break
		}
	}
}

// ActiveWorkers returns the number of schedulable worker servers.
func (rt *Runtime) ActiveWorkers() int {
	n := 0
	for _, node := range rt.workerServers() {
		if !rt.isCordoned(node) {
			n++
		}
	}
	return n
}

// EnableAutoscaler runs a scaling loop: every interval it feeds the
// pending-task count and active fleet size to the policy and applies the
// decision. Returns a stop function; the loop also stops at Shutdown.
func (rt *Runtime) EnableAutoscaler(cfg scheduler.AutoscalerConfig, interval time.Duration, slots int, memBytes int64) (stop func()) {
	auto := scheduler.NewAutoscaler(cfg)
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				switch auto.Observe(rt.Pending(), rt.ActiveWorkers()) {
				case scheduler.ScaleUp:
					_, _ = rt.ScaleUp(slots, memBytes)
				case scheduler.ScaleDown:
					_, _ = rt.ScaleDown()
				}
			}
		}
	}()
	var once atomic.Bool
	return func() {
		if once.CompareAndSwap(false, true) {
			close(done)
		}
	}
}
