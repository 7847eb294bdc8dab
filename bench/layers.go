package bench

import (
	"sort"
	"time"

	"skadi/internal/caching"
	"skadi/internal/fabric"
	"skadi/internal/objectstore"
	"skadi/internal/ownership"
	"skadi/internal/raylet"
	"skadi/internal/scheduler"
	"skadi/internal/trace"
)

// counters is one snapshot of every counter the program already exports.
// Per-layer C metrics are the difference of two snapshots around the traced
// run, divided by its ops or tasks.
type counters struct {
	raylet      raylet.Stats
	rayletTasks []int64 // TasksExecuted per raylet, for placement skew
	fabric      fabric.Stats
	steals      uint64
	stealRemote int64
	repl        ownership.ReplicationStats
	admitted    int64
	rejected    int64
	preempted   int64
	caching     caching.Stats
	store       objectstore.Stats
}

func (e *env) snapshot() counters {
	var c counters
	for _, rl := range e.rt.Raylets() {
		s := rl.Stats()
		c.raylet.TasksExecuted += s.TasksExecuted
		c.raylet.LocalHits += s.LocalHits
		c.raylet.RemoteFetches += s.RemoteFetches
		c.raylet.BusyMicros += s.BusyMicros
		c.rayletTasks = append(c.rayletTasks, s.TasksExecuted)
	}
	c.fabric = e.rt.FabricStats()
	if mesh, ok := e.rt.Sched.(*scheduler.Mesh); ok {
		c.steals = mesh.StealCount()
		_, c.stealRemote = mesh.StealBytes()
	}
	if sharded, ok := e.rt.Head.Table.(*ownership.ShardedTable); ok {
		c.repl = sharded.ReplicationStats()
	}
	for _, a := range e.rt.Tenancy.Accounts() {
		c.admitted += a.Admitted
		c.rejected += a.Rejected
		c.preempted += a.Preempted
	}
	c.caching = e.rt.Layer.Stats()
	for _, n := range e.rt.Cluster.Nodes() {
		if st := e.rt.Layer.Store(n.ID); st != nil {
			s := st.Stats()
			c.store.Puts += s.Puts
			c.store.Evictions += s.Evictions
			c.store.Spills += s.Spills
		}
	}
	return c
}

// counterMetrics turns two snapshots around a run of ops operations into the
// per-layer C metrics.
func counterMetrics(name string, before, after counters, ops int64) map[string]float64 {
	perOp := func(d int64) float64 { return ratio(float64(d), float64(ops)) }
	tasks := after.raylet.TasksExecuted - before.raylet.TasksExecuted
	perTask := func(d float64) float64 { return ratio(d, float64(tasks)) }

	var maxTasks, sumTasks float64
	for i := range after.rayletTasks {
		d := float64(after.rayletTasks[i] - before.rayletTasks[i])
		sumTasks += d
		if d > maxTasks {
			maxTasks = d
		}
	}
	m := map[string]float64{
		"raylet.tasks_per_op":          perOp(tasks),
		"raylet.local_hits_per_op":     perOp(after.raylet.LocalHits - before.raylet.LocalHits),
		"raylet.remote_fetches_per_op": perOp(after.raylet.RemoteFetches - before.raylet.RemoteFetches),
		"raylet.busy_us_per_task":      perTask(float64(after.raylet.BusyMicros - before.raylet.BusyMicros)),

		"fabric.msgs_per_op":          perOp(after.fabric.Messages - before.fabric.Messages),
		"fabric.wire_bytes_per_op":    perOp(after.fabric.Bytes - before.fabric.Bytes),
		"fabric.logical_bytes_per_op": perOp(after.fabric.LogicalBytes - before.fabric.LogicalBytes),

		"scheduler.steals_per_task":             perTask(float64(after.steals - before.steals)),
		"scheduler.steal_remote_bytes_per_task": perTask(float64(after.stealRemote - before.stealRemote)),
		"scheduler.placement_skew":              ratio(maxTasks*float64(len(after.rayletTasks)), sumTasks),

		"ownership.repl_appended_per_task": perTask(float64(after.repl.Appended - before.repl.Appended)),
		"ownership.repl_log_depth_end":     float64(after.repl.LogDepth),

		"tenancy.admitted_per_op": perOp(after.admitted - before.admitted),
		"tenancy.rejected":        float64(after.rejected - before.rejected),
		"tenancy.preempted":       float64(after.preempted - before.preempted),

		"caching.replica_writes_per_op":    perOp(after.caching.ReplicaWrites - before.caching.ReplicaWrites),
		"caching.bytes_transferred_per_op": perOp(after.caching.BytesTransferred - before.caching.BytesTransferred),
		"caching.coalesced_hits":           float64(after.caching.CoalescedHits - before.caching.CoalescedHits),
		"caching.degraded_placements":      float64(after.caching.DegradedPlacements - before.caching.DegradedPlacements),

		"objectstore.puts_per_op": perOp(after.store.Puts - before.store.Puts),
		"objectstore.evictions":   float64(after.store.Evictions - before.store.Evictions),
		"objectstore.spills":      float64(after.store.Spills - before.store.Spills),
	}
	if name == SQLAnalytics {
		m["physical.tasks_per_query"] = perOp(tasks)
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceKinds are the program's span kinds reported as trace.<kind>_us; the
// root "submit" kind reports as trace.submit_self_us.
var traceKinds = []string{
	trace.KindSchedPick, trace.KindSlotWait, trace.KindPullStall, trace.KindFetch,
	trace.KindExec, trace.KindCommit, trace.KindCachePut, trace.KindCacheGet, trace.KindXfer,
}

// traceMetrics harvests the program's own spans for the task traces the
// tracer retains (at most 1024): per kind, the median over traces of the
// critical-path self time, and the share of the root span nothing accounts
// for.
func traceMetrics(tr *trace.Tracer) map[string]float64 {
	byKind := map[string][]float64{}
	var unattributed []float64
	for _, id := range tr.Traces() {
		spans := tr.Spans(id)
		var root *trace.Data
		for i := range spans {
			if spans[i].Kind == trace.KindSubmit && spans[i].Parent.IsNil() {
				root = &spans[i]
			}
		}
		if root == nil || root.Dur() <= 0 {
			continue
		}
		bd := trace.PathBreakdown(spans)
		for kind, st := range bd {
			byKind[kind] = append(byKind[kind], us(st.Wall))
		}
		unattributed = append(unattributed, bd[trace.KindSubmit].Wall.Seconds()/root.Dur().Seconds())
	}
	m := map[string]float64{
		"trace.submit_self_us":    median(byKind[trace.KindSubmit]),
		"trace.unattributed_frac": median(unattributed),
		"trace.dropped_spans":     float64(tr.Dropped()),
	}
	for _, kind := range traceKinds {
		m["trace."+kind+"_us"] = median(byKind[kind])
	}
	return m
}

// stampMetrics derives the per-layer S metrics from the traced run's spans:
// medians of the stamped calls, the three task stamps that need two spans
// each, and the op's self time.
func stampMetrics(spans []span) map[string]float64 {
	type taskKey struct {
		op   uint64
		task uint32
	}
	durs := map[string][]float64{}
	submitStart := map[taskKey]int64{}
	lastExecEnd := map[uint64]int64{}
	covered := map[uint64]int64{} // per op: time inside client-side stamps
	opDur := map[uint64]int64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e3)
		switch s.Name {
		case spOp:
			opDur[s.Op] = s.End - s.Start
		case spExec:
			if s.End > lastExecEnd[s.Op] {
				lastExecEnd[s.Op] = s.End
			}
		default:
			// Client-side stamps of one op run one after another, so their
			// sum is the part of the op interval they cover.
			covered[s.Op] += s.End - s.Start
			if s.Name == spSubmit {
				submitStart[taskKey{s.Op, s.Task}] = s.Start
			}
		}
	}
	var submitToExec, execToReady, self []float64
	for _, s := range spans {
		switch s.Name {
		case spExec:
			if t0, ok := submitStart[taskKey{s.Op, s.Task}]; ok {
				submitToExec = append(submitToExec, float64(s.Start-t0)/1e3)
			}
		case spWait:
			if end, ok := lastExecEnd[s.Op]; ok {
				execToReady = append(execToReady, float64(s.End-end)/1e3)
			}
		case spOp:
			self = append(self, float64(opDur[s.Op]-covered[s.Op])/1e3)
		}
	}
	m := map[string]float64{
		"runtime.submit_to_exec_us": median(submitToExec),
		"runtime.exec_to_ready_us":  median(execToReady),
		"driver.op_self_us":         median(self),
	}
	for _, name := range []string{
		spSubmit, spGet, spFree, spExec, spPut64k, spPut1m, spGet64k, spGet1m,
		spParse, spSQLPlan, spOptim, spPhysPl, spPhysRun,
	} {
		m[name+"_us"] = median(durs[name])
	}
	return m
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// median returns the middle value (0 for no values).
func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile returns the nearest-rank p-quantile of v (0 for no values).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(p * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
