package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"time"
)

// Value is one reported number. An end-to-end value is the median of its
// Segments: the metric computed on each tenth of the timed run (each set-up,
// for setup_s), which is also what -compare takes a file's own spread from.
type Value struct {
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Segments []float64 `json:"segments,omitempty"`
}

// Result is one workload's measurement.
type Result struct {
	Workload  string           `json:"workload"`
	Clients   int              `json:"clients"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	FirstErr  string           `json:"first_error,omitempty"`
	EndToEnd  map[string]Value `json:"end_to_end"`
	PerLayer  map[string]Value `json:"per_layer"`
	// Budget is the layer-budget table (task_seq only, once probes ran).
	Budget []budgetRow `json:"budget,omitempty"`
}

// Config sizes one workload's measurement.
type Config struct {
	Seed uint64
	// Timed is the length of the run the end-to-end metrics come from
	// (stamps off); Traced the length of the run the per-layer S and C
	// metrics come from. Either may be zero to skip that run.
	Timed, Traced time.Duration
	// Setups is how many times the workload is set up; setup_s is the median
	// and the runs use the last.
	Setups int
	// TraceDir receives trace-<workload>.json; empty writes no file.
	TraceDir string
}

// traceFileOps caps the ops whose stamps are written to the trace file. The
// metrics use every stamp; the file is for reading, and a 10 s task_seq run
// would otherwise write 50 MB.
const traceFileOps = 2000

// Measure sets a workload up, runs it timed and traced, and returns every
// metric it can take without the probes.
func Measure(name string, cfg Config) (*Result, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, Workloads)
	}
	res := &Result{
		Workload: name, Clients: w.clients,
		EndToEnd: map[string]Value{}, PerLayer: map[string]Value{},
	}
	layer := map[string]float64{}

	var e *env
	var setups []float64
	for i := 0; i < cfg.Setups || e == nil; i++ {
		if e != nil {
			e.close()
		}
		var d time.Duration
		var err error
		if e, d, err = setUp(w, cfg.Seed); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer e.close()
	res.EndToEnd["setup_s"] = Value{Value: median(setups), Unit: "s", Segments: setups}
	for k, v := range e.extra {
		layer[k] = v
	}

	var timed, traced *runStats
	var timedE2E, tracedE2E map[string]Value
	if cfg.Timed > 0 {
		timed = e.run(cfg.Timed)
		res.add(timed)
		timedE2E = timed.endToEnd()
		for name, v := range timedE2E {
			res.EndToEnd[name] = v
		}
		if timed.put > 0 { // the workload puts and gets objects itself
			res.EndToEnd["put_mb_per_s"] = Value{Value: timed.put, Unit: "MB/s"}
			res.EndToEnd["get_mb_per_s"] = Value{Value: timed.get, Unit: "MB/s"}
		}
	}
	if cfg.Traced > 0 {
		e.setTracing(true)
		before := e.snapshot()
		traced = e.run(cfg.Traced)
		e.rt.Drain()
		after := e.snapshot()
		res.add(traced)
		tracedE2E = traced.endToEnd()
		spans := e.takeSpans()
		e.setTracing(false)
		for _, m := range []map[string]float64{
			counterMetrics(name, before, after, traced.attempted),
			stampMetrics(spans),
			traceMetrics(e.rt.Tracer()),
		} {
			for k, v := range m {
				layer[k] = v
			}
		}
		if cfg.TraceDir != "" {
			if err := writeTrace(filepath.Join(cfg.TraceDir, "trace-"+name+".json"), spans); err != nil {
				return nil, err
			}
		}
	}
	res.EndToEnd["failed_frac"] = Value{Value: ratio(float64(res.Failed), float64(res.Attempted)), Unit: "frac"}

	percentiles := timed
	if percentiles == nil {
		percentiles = traced
	}
	if percentiles != nil {
		layer["driver.op_p99_us"] = percentile(percentiles.latenciesUs(), 0.99)
		layer["driver.samples"] = float64(len(percentiles.samples))
		layer["driver.gc_pause_ms"] = float64(percentiles.gcPause().Microseconds()) / 1e3
	}
	if traced != nil {
		layer["driver.traced_op_p50_us"] = tracedE2E["op_p50_us"].Value
	}
	if timed != nil && traced != nil {
		layer["driver.trace_overhead_frac"] = 1 - ratio(tracedE2E["ops_per_s"].Value, timedE2E["ops_per_s"].Value)
	}
	e.rt.Drain()
	layer["runtime.records_left"] = float64(len(e.rt.Head.Table.Records()))
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	layer["driver.heap_live_mb"] = float64(ms.HeapAlloc) / 1e6
	res.setLayer(layer)
	return res, nil
}

func (r *Result) add(st *runStats) {
	r.Attempted += st.attempted
	r.Failed += st.failed
	if r.FirstErr == "" && st.firstErr != nil {
		r.FirstErr = st.firstErr.Error()
	}
}

// setLayer stores per-layer values under their catalogued units. Every
// catalogued metric is present afterwards; one the workload does not exercise
// reads 0. A name outside the catalogue is a bug in the benchmark.
func (r *Result) setLayer(m map[string]float64) {
	for k := range m {
		if _, ok := defByName(PerLayer, k); !ok {
			panic("bench: per-layer metric " + k + " is not in the catalogue")
		}
	}
	for _, d := range PerLayer {
		v, ok := m[d.Name]
		if !ok {
			v = r.PerLayer[d.Name].Value // what an earlier call stored, else 0
		}
		r.PerLayer[d.Name] = Value{Value: v, Unit: d.Unit}
	}
}

// AddProbes merges the probe results into a workload's per-layer metrics and,
// on task_seq, derives the layer budget from them.
func (r *Result) AddProbes(probes map[string]float64) {
	r.setLayer(probes)
	if r.Workload != TaskSeq {
		return
	}
	r.Budget = taskSeqBudget(r.PerLayer)
	r.setLayer(map[string]float64{
		"budget.task_seq_covered_frac": coveredFrac(r.Budget, r.EndToEnd["op_p50_us"].Value),
	})
}

// takeSpans merges the clients' stamps with the task funcs' exec stamps.
func (e *env) takeSpans() []span {
	var all []span
	for _, c := range e.clients {
		all = append(all, c.spans...)
	}
	e.execMu.Lock()
	all = append(all, e.execSpans...)
	e.execMu.Unlock()
	return all
}

// writeTrace writes the stamps of the first traceFileOps ops, in start order.
func writeTrace(path string, spans []span) error {
	keep := map[uint64]bool{}
	var out []span
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for _, s := range spans {
		if !keep[s.Op] && len(keep) < traceFileOps {
			keep[s.Op] = true
		}
		if keep[s.Op] {
			out = append(out, s)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ---- end-to-end metrics of one run ----

func (st *runStats) latenciesUs() []float64 {
	out := make([]float64, len(st.samples))
	for i, s := range st.samples {
		out[i] = us(s.dur)
	}
	return out
}

func (st *runStats) gcPause() time.Duration {
	return st.marks[len(st.marks)-1].gcPause - st.marks[0].gcPause
}

// endToEnd computes the metrics every workload reports. Times and rates are
// computed per segment and reported as the median segment, which a single
// disturbed second cannot move; allocation counts are exact over the whole
// run, since their bound (2%) is tighter than a segment boundary is sharp.
func (st *runStats) endToEnd() map[string]Value {
	var opsPerS, p50, p95, cpu, allocs, allocKB []float64
	i := 0
	for seg := 0; seg+1 < len(st.marks); seg++ {
		a, b := st.marks[seg], st.marks[seg+1]
		var lat []float64
		for ; i < len(st.samples) && (st.samples[i].end < b.at || seg+2 == len(st.marks)); i++ {
			lat = append(lat, us(st.samples[i].dur))
		}
		if len(lat) == 0 {
			continue
		}
		n := float64(len(lat))
		opsPerS = append(opsPerS, n/(b.at-a.at).Seconds())
		p50 = append(p50, percentile(lat, 0.50))
		p95 = append(p95, percentile(lat, 0.95))
		cpu = append(cpu, us(b.cpu-a.cpu)/n)
		allocs = append(allocs, float64(b.mallocs-a.mallocs)/n)
		allocKB = append(allocKB, float64(b.allocBytes-a.allocBytes)/1e3/n)
	}
	first, last := st.marks[0], st.marks[len(st.marks)-1]
	n := float64(len(st.samples))
	return map[string]Value{
		"ops_per_s":       {Value: median(opsPerS), Unit: "1/s", Segments: opsPerS},
		"op_p50_us":       {Value: median(p50), Unit: "us", Segments: p50},
		"op_p95_us":       {Value: median(p95), Unit: "us", Segments: p95},
		"cpu_us_per_op":   {Value: median(cpu), Unit: "us", Segments: cpu},
		"allocs_per_op":   {Value: ratio(float64(last.mallocs-first.mallocs), n), Unit: "count", Segments: allocs},
		"alloc_kb_per_op": {Value: ratio(float64(last.allocBytes-first.allocBytes)/1e3, n), Unit: "KB", Segments: allocKB},
	}
}

// ---- whole-report output ----

// GCPercent is the collector pacing skadi-perf pins (debug.SetGCPercent) in
// place of Go's default 100. On a 2-vCPU host the concurrent collector
// otherwise takes a core at moments that differ from run to run: with the
// default, op_p95_us on object_rw varied 18% between identical runs, against
// 4% pinned. Allocation volume is gated directly by allocs_per_op and
// alloc_kb_per_op, which the pacing does not change.
const GCPercent = 400

// PinGC applies GCPercent to this process.
func PinGC() { debug.SetGCPercent(GCPercent) }

// Meta records what produced a report, so a shortened smoke run can never be
// mistaken for a baseline.
type Meta struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GCPercent  int     `json:"gc_percent"`
	Seed       uint64  `json:"seed"`
	TimedS     float64 `json:"timed_s"`
	TracedS    float64 `json:"traced_s"`
	Setups     int     `json:"setups"`
}

// Report is what -json writes and -compare reads.
type Report struct {
	Meta      Meta               `json:"meta"`
	Workloads map[string]*Result `json:"workloads"`
}

// NewMeta describes this process and configuration.
func NewMeta(cfg Config) Meta {
	m := Meta{
		Commit: "unknown", GoVersion: goruntime.Version(),
		NumCPU: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0), GCPercent: GCPercent,
		Seed: cfg.Seed, TimedS: cfg.Timed.Seconds(), TracedS: cfg.Traced.Seconds(), Setups: cfg.Setups,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// Print writes every metric of a result by name with its unit: the
// end-to-end metrics, then the per-layer metrics that are not zero.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s  (%d client(s), %d ops, %d failed)\n", r.Workload, r.Clients, r.Attempted, r.Failed)
	if r.FirstErr != "" {
		fmt.Fprintf(w, "   first error: %s\n", r.FirstErr)
	}
	for _, d := range EndToEnd {
		if v, ok := r.EndToEnd[d.Name]; ok {
			fmt.Fprintf(w, "   %-40s %14.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
	for _, d := range PerLayer {
		if v := r.PerLayer[d.Name]; v.Value != 0 {
			fmt.Fprintf(w, "   %-40s %14.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
	if len(r.Budget) > 0 {
		fmt.Fprintf(w, "   layer budget of one task_seq op (calls x probe ns):\n")
		for _, row := range r.Budget {
			fmt.Fprintf(w, "     %-24s %6.1f x %9.1f ns = %9.2f us\n", row.Layer, row.Calls, row.Ns, row.Calls*row.Ns/1e3)
		}
	}
}
