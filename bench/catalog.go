// Package bench is skadi-perf: the repository's performance benchmark. It
// boots the real runtime in-process (TimeScale 0, wall-clock time), drives
// five closed-loop workloads, checks every output against a reference, and
// reports ten end-to-end metrics plus a per-layer budget measured from
// outside the program — stamps around public calls (S), deltas of counters
// the program already exports (C), and direct probes of each layer's public
// API (P). README.md states the method and the predictions.
package bench

// Workload names (normative; BENCHMARK.json lists the same five).
const (
	TaskSeq        = "task_seq"
	TaskFanoutMesh = "task_fanout_mesh"
	DagShuffle     = "dag_shuffle"
	ObjectRW       = "object_rw"
	SQLAnalytics   = "sql_analytics"
)

// MetricDef names one reported metric.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share by which an end-to-end metric may worsen before
	// -compare calls it worse. Zero on per-layer metrics (never gated).
	Bound float64
	// Source is how a per-layer metric is taken: S stamp, C counter delta,
	// P probe, D derived from other metrics.
	Source string
	// Moves is the prediction written down before measuring: which
	// end-to-end metric this one should move, and on which workload.
	Moves string
}

// EndToEnd lists the ten end-to-end metrics. The first seven apply to every
// workload and are the ones BENCHMARK.json gates; failed_frac travels in the
// driver's result line as failed/attempted, and put/get_mb_per_s exist on
// object_rw only, so the full report and -compare carry them.
//
// The issue that asked for this benchmark wanted 10% on every time metric.
// The host it was built on does not allow that: a shared 2-vCPU VM whose
// speed shifts by ~12% for minutes at a time (BASELINE.md has the measured
// spreads), so identical runs ten minutes apart would read as regressions.
// The time bounds are the smallest that the measured spreads stay inside.
var EndToEnd = []MetricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.15},
	{Name: "op_p95_us", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.15},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.05},
	{Name: "failed_frac", Unit: "frac", Better: "lower", Bound: 0},
	{Name: "put_mb_per_s", Unit: "MB/s", Better: "higher", Bound: 0.15},
	{Name: "get_mb_per_s", Unit: "MB/s", Better: "higher", Bound: 0.15},
}

// universalEndToEnd is how many leading EndToEnd entries every workload
// reports (and BENCHMARK.json therefore lists).
const universalEndToEnd = 7

// PerLayer lists every per-layer metric. A workload that does not exercise
// a metric reports 0 for it; probes (P) read the same on every workload.
var PerLayer = []MetricDef{
	// driver: the benchmark itself.
	{Name: "driver.op_p99_us", Unit: "us", Better: "lower", Source: "S", Moves: "reported, not gated: p99 varies 12-28% run to run on a 2-core host"},
	{Name: "driver.samples", Unit: "count", Better: "higher", Source: "S", Moves: "sample count behind the percentiles"},
	{Name: "driver.heap_live_mb", Unit: "MB", Better: "lower", Source: "C", Moves: "HeapAlloc after a forced GC at workload end; a leak shows here before it shows in op_p95_us"},
	{Name: "driver.gc_pause_ms", Unit: "ms", Better: "lower", Source: "C", Moves: "op_p95_us on sql_analytics"},
	{Name: "driver.trace_overhead_frac", Unit: "frac", Better: "lower", Source: "D", Moves: "1 - traced ops_per_s / timed ops_per_s; must stay <= 0.10 on task_seq"},
	{Name: "driver.traced_op_p50_us", Unit: "us", Better: "lower", Source: "S", Moves: "median op latency of the traced run; on task_seq the four task stamps must add up to within 15% of it"},
	{Name: "driver.op_self_us", Unit: "us", Better: "lower", Source: "S", Moves: "op time outside every stamped call: the benchmark's own checking and bookkeeping"},
	{Name: "driver.sql_reference_ms", Unit: "ms", Better: "lower", Source: "S", Moves: "single-threaded plain-Go evaluation of both queries; part of setup_s on sql_analytics"},

	// runtime: stamps around the task and object API.
	{Name: "runtime.submit_call_us", Unit: "us", Better: "lower", Source: "S", Moves: "x64 bounds ops_per_s on task_fanout_mesh"},
	{Name: "runtime.submit_to_exec_us", Unit: "us", Better: "lower", Source: "S", Moves: "op_p50_us on task_seq (first of the three task stamps)"},
	{Name: "runtime.exec_to_ready_us", Unit: "us", Better: "lower", Source: "S", Moves: "op_p50_us on task_seq (commit + ownership ready)"},
	{Name: "runtime.get_after_ready_us", Unit: "us", Better: "lower", Source: "S", Moves: "op_p50_us on task_seq, dag_shuffle"},
	{Name: "runtime.free_call_us", Unit: "us", Better: "lower", Source: "S", Moves: "op_p50_us on every task workload"},
	{Name: "runtime.put_64k_us", Unit: "us", Better: "lower", Source: "S", Moves: "put_mb_per_s on object_rw"},
	{Name: "runtime.put_1m_us", Unit: "us", Better: "lower", Source: "S", Moves: "put_mb_per_s on object_rw"},
	{Name: "runtime.get_cold_64k_us", Unit: "us", Better: "lower", Source: "S", Moves: "get_mb_per_s on object_rw"},
	{Name: "runtime.get_cold_1m_us", Unit: "us", Better: "lower", Source: "S", Moves: "get_mb_per_s on object_rw"},
	{Name: "runtime.records_left", Unit: "count", Better: "lower", Source: "C", Moves: "must be 0: every op frees what it created"},

	// raylet
	{Name: "raylet.tasks_per_op", Unit: "count", Better: "lower", Source: "C", Moves: "proves the op did not change"},
	{Name: "raylet.local_hits_per_op", Unit: "count", Better: "higher", Source: "C", Moves: "op_p50_us on dag_shuffle"},
	{Name: "raylet.remote_fetches_per_op", Unit: "count", Better: "lower", Source: "C", Moves: "x fetch cost drives op_p50_us on dag_shuffle; 0 on task_*"},
	{Name: "raylet.busy_us_per_task", Unit: "us", Better: "lower", Source: "C", Moves: "cpu_us_per_op on dag_shuffle, sql_analytics"},
	{Name: "raylet.exec_us", Unit: "us", Better: "lower", Source: "S", Moves: "a constant: the body of the benchmark's own task func"},

	// transport
	{Name: "transport.encode_exec_ns", Unit: "ns", Better: "lower", Source: "P", Moves: "op_p50_us, cpu_us_per_op on task_seq; ops_per_s on task_fanout_mesh"},
	{Name: "transport.decode_exec_ns", Unit: "ns", Better: "lower", Source: "P", Moves: "op_p50_us, cpu_us_per_op on task_seq; ops_per_s on task_fanout_mesh"},
	{Name: "transport.codec_allocs", Unit: "count", Better: "lower", Source: "P", Moves: "allocs_per_op on task_seq"},
	{Name: "transport.inproc_call_64b_ns", Unit: "ns", Better: "lower", Source: "P", Moves: "op_p50_us on task_seq"},
	{Name: "transport.inproc_call_64k_ns", Unit: "ns", Better: "lower", Source: "P", Moves: "op_p50_us on dag_shuffle"},
	{Name: "transport.inproc_call_allocs", Unit: "count", Better: "lower", Source: "P", Moves: "allocs_per_op on task_seq"},
	{Name: "transport.tcp_call_64b_ns", Unit: "ns", Better: "lower", Source: "P", Moves: "no workload (in-process transport); tracks ROADMAP item 1's TCP target"},
	{Name: "transport.tcp_call_64k_ns", Unit: "ns", Better: "lower", Source: "P", Moves: "no workload (in-process transport)"},

	// fabric
	{Name: "fabric.msgs_per_op", Unit: "count", Better: "lower", Source: "C", Moves: "repeats exactly on task_seq; the count a batching or one-sided-read change may claim on"},
	{Name: "fabric.wire_bytes_per_op", Unit: "B", Better: "lower", Source: "C", Moves: "op_p50_us on dag_shuffle, object_rw"},
	{Name: "fabric.logical_bytes_per_op", Unit: "B", Better: "lower", Source: "C", Moves: "equals wire bytes when payloads are incompressible"},

	// scheduler
	{Name: "scheduler.pick_ns", Unit: "ns", Better: "lower", Source: "P", Moves: "op_p50_us on task_seq"},
	{Name: "scheduler.pick_locality_ns", Unit: "ns", Better: "lower", Source: "P", Moves: "op_p50_us on dag_shuffle"},
	{Name: "scheduler.mesh_pick_ns", Unit: "ns", Better: "lower", Source: "P", Moves: "ops_per_s on task_fanout_mesh"},
	{Name: "scheduler.steals_per_task", Unit: "count", Better: "lower", Source: "C", Moves: "ops_per_s on task_fanout_mesh"},
	{Name: "scheduler.steal_remote_bytes_per_task", Unit: "B", Better: "lower", Source: "C", Moves: "0 here: echo8 has no reference arguments"},
	{Name: "scheduler.placement_skew", Unit: "ratio", Better: "lower", Source: "C", Moves: "through raylet.remote_fetches_per_op to op_p50_us on dag_shuffle"},

	// ownership
	{Name: "ownership.table_cycle_ns", Unit: "ns", Better: "lower", Source: "P", Moves: "op_p50_us on task_seq"},
	{Name: "ownership.sharded_cycle_ns", Unit: "ns", Better: "lower", Source: "P", Moves: "ops_per_s on task_fanout_mesh"},
	{Name: "ownership.cycle_allocs", Unit: "count", Better: "lower", Source: "P", Moves: "allocs_per_op on task_seq"},
	{Name: "ownership.repl_appended_per_task", Unit: "count", Better: "lower", Source: "C", Moves: "ops_per_s on task_fanout_mesh"},
	{Name: "ownership.repl_log_depth_end", Unit: "count", Better: "lower", Source: "C", Moves: "unapplied replication ops when the traced run ends"},

	// tenancy
	{Name: "tenancy.admit_acquire_release_ns", Unit: "ns", Better: "lower", Source: "P", Moves: "op_p50_us, cpu_us_per_op on dag_shuffle only"},
	{Name: "tenancy.admitted_per_op", Unit: "count", Better: "lower", Source: "C", Moves: "12 on dag_shuffle; must read 0 elsewhere (controller inert until RegisterTenant)"},
	{Name: "tenancy.rejected", Unit: "count", Better: "lower", Source: "C", Moves: "must be 0: no limits are set"},
	{Name: "tenancy.preempted", Unit: "count", Better: "lower", Source: "C", Moves: "must be 0: preemption is off"},

	// caching
	{Name: "caching.put_none_64k_us", Unit: "us", Better: "lower", Source: "P", Moves: "op_p50_us on dag_shuffle (result commit)"},
	{Name: "caching.put_repl2_1m_us", Unit: "us", Better: "lower", Source: "P", Moves: "put_mb_per_s on object_rw"},
	{Name: "caching.get_remote_1m_us", Unit: "us", Better: "lower", Source: "P", Moves: "get_mb_per_s on object_rw"},
	{Name: "caching.replica_writes_per_op", Unit: "count", Better: "lower", Source: "C", Moves: "2 on object_rw (one per put); 0 elsewhere"},
	{Name: "caching.bytes_transferred_per_op", Unit: "B", Better: "lower", Source: "C", Moves: "put_mb_per_s on object_rw"},
	{Name: "caching.coalesced_hits", Unit: "count", Better: "higher", Source: "C", Moves: "0 here: no two readers share a key"},
	{Name: "caching.degraded_placements", Unit: "count", Better: "lower", Source: "C", Moves: "must be 0: 4 servers hold 2 replicas"},

	// objectstore
	{Name: "objectstore.put_get_64k_ns", Unit: "ns", Better: "lower", Source: "P", Moves: "put_mb_per_s, get_mb_per_s on object_rw"},
	{Name: "objectstore.puts_per_op", Unit: "count", Better: "lower", Source: "C", Moves: "copies written per op, cache-on-fetch included"},
	{Name: "objectstore.evictions", Unit: "count", Better: "lower", Source: "C", Moves: "must be 0: every working set fits"},
	{Name: "objectstore.spills", Unit: "count", Better: "lower", Source: "C", Moves: "must be 0: every working set fits"},

	// wire, arrowlite
	{Name: "wire.lz4_compress_1m_us", Unit: "us", Better: "lower", Source: "P", Moves: "get_mb_per_s on object_rw; op_p50_us on dag_shuffle"},
	{Name: "arrowlite.encode_50k_us", Unit: "us", Better: "lower", Source: "P", Moves: "op_p50_us, alloc_kb_per_op on sql_analytics"},
	{Name: "arrowlite.decode_50k_us", Unit: "us", Better: "lower", Source: "P", Moves: "op_p50_us, alloc_kb_per_op on sql_analytics"},

	// sqlfe, flowgraph, physical: the five calls that are the sql op.
	{Name: "sqlfe.parse_us", Unit: "us", Better: "lower", Source: "S", Moves: "op_p50_us on sql_analytics only"},
	{Name: "sqlfe.plan_us", Unit: "us", Better: "lower", Source: "S", Moves: "op_p50_us on sql_analytics only"},
	{Name: "flowgraph.optimize_us", Unit: "us", Better: "lower", Source: "S", Moves: "op_p50_us on sql_analytics only"},
	{Name: "physical.plan_us", Unit: "us", Better: "lower", Source: "S", Moves: "op_p50_us on sql_analytics only"},
	{Name: "physical.run_us", Unit: "us", Better: "lower", Source: "S", Moves: "op_p50_us on sql_analytics only"},
	{Name: "physical.tasks_per_query", Unit: "count", Better: "lower", Source: "C", Moves: "proves the plan did not change"},

	// trace: the program's existing spans, median critical-path self time.
	{Name: "trace.submit_self_us", Unit: "us", Better: "lower", Source: "C", Moves: "op_p50_us on task_seq (today: the gob share)"},
	{Name: "trace.sched-pick_us", Unit: "us", Better: "lower", Source: "C", Moves: "op_p50_us on task_seq"},
	{Name: "trace.slot-wait_us", Unit: "us", Better: "lower", Source: "C", Moves: "op_p50_us on dag_shuffle"},
	{Name: "trace.pull-stall_us", Unit: "us", Better: "lower", Source: "C", Moves: "op_p50_us on dag_shuffle"},
	{Name: "trace.fetch_us", Unit: "us", Better: "lower", Source: "C", Moves: "op_p50_us on dag_shuffle"},
	{Name: "trace.exec_us", Unit: "us", Better: "lower", Source: "C", Moves: "op_p50_us on sql_analytics"},
	{Name: "trace.commit_us", Unit: "us", Better: "lower", Source: "C", Moves: "op_p50_us on task_seq, dag_shuffle"},
	{Name: "trace.cache-put_us", Unit: "us", Better: "lower", Source: "C", Moves: "op_p50_us on dag_shuffle"},
	{Name: "trace.cache-get_us", Unit: "us", Better: "lower", Source: "C", Moves: "op_p50_us on dag_shuffle"},
	{Name: "trace.xfer_us", Unit: "us", Better: "lower", Source: "C", Moves: "op_p50_us on dag_shuffle"},
	{Name: "trace.unattributed_frac", Unit: "frac", Better: "lower", Source: "C", Moves: "root submit self time / root duration; ROADMAP item 3 wants < 0.05"},
	{Name: "trace.dropped_spans", Unit: "count", Better: "lower", Source: "C", Moves: "must be 0"},

	// budget
	{Name: "budget.task_seq_covered_frac", Unit: "frac", Better: "higher", Source: "D", Moves: "sum(calls per task x probe ns) over transport, scheduler, ownership / op_p50_us on task_seq"},
}

// Workloads lists the five workloads in report order.
var Workloads = []string{TaskSeq, TaskFanoutMesh, DagShuffle, ObjectRW, SQLAnalytics}

func defByName(defs []MetricDef, name string) (MetricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return MetricDef{}, false
}

// DriverEndToEnd returns the end-to-end metrics every workload reports: the
// set BENCHMARK.json gates and the driver protocol prints with --trace 0.
func DriverEndToEnd() []MetricDef { return EndToEnd[:universalEndToEnd] }
