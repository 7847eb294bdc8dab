package bench

import (
	"context"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"skadi/internal/idgen"
	"skadi/internal/runtime"
	"skadi/internal/task"
)

// clusterSpec is the cluster every workload boots.
var clusterSpec = runtime.ClusterSpec{
	Servers: 4, ServerSlots: 8, ServerMemBytes: 256 << 20, MemBladeBytes: 1 << 30,
}

// workload is one named closed loop. Clients each wait for their op's reply
// before sending the next, as Skadi's callers (data systems) do.
type workload struct {
	name    string
	clients int
	// warmOps is the warm-up length per client. It is a count, not a time,
	// so that setup_s measures the program and not a sleep.
	warmOps int
	options runtime.Options
	// prepare registers task funcs and tenants and generates the inputs.
	prepare func(e *env) error
	// op runs one operation, checks its output, and frees what it created.
	op func(e *env, c *client) error
}

// Stamp names of the traced run. A name that is also a per-layer metric
// (less its _us suffix) reports its median duration under that metric.
const (
	spOp      = "op"
	spSubmit  = "runtime.submit_call"
	spWait    = "runtime.wait"
	spGet     = "runtime.get_after_ready"
	spFree    = "runtime.free_call"
	spExec    = "raylet.exec"
	spPut64k  = "runtime.put_64k"
	spPut1m   = "runtime.put_1m"
	spGet64k  = "runtime.get_cold_64k"
	spGet1m   = "runtime.get_cold_1m"
	spParse   = "sqlfe.parse"
	spSQLPlan = "sqlfe.plan"
	spOptim   = "flowgraph.optimize"
	spPhysPl  = "physical.plan"
	spPhysRun = "physical.run"
)

// span is one stamp: taken in this package around a call into the program.
// Spans of one op share Op; every span's Parent is its op's span, whose ID
// is the op id itself.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Task   uint32 `json:"task"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// sample is one completed op of a run.
type sample struct {
	end, dur time.Duration // completion time since the run began; latency
}

// xfer sums bytes and time inside one kind of call (object_rw's puts, gets).
type xfer struct {
	bytes int64
	dur   time.Duration
}

func (x *xfer) add(n int, d time.Duration) { x.bytes += int64(n); x.dur += d }

// mbPerS is decimal megabytes per second of time inside the calls.
func (x xfer) mbPerS() float64 {
	if x.dur <= 0 {
		return 0
	}
	return float64(x.bytes) / 1e6 / x.dur.Seconds()
}

// client is one closed-loop caller.
type client struct {
	id  int
	ctx context.Context
	rng *rand.Rand
	seq uint64

	samples  []sample
	failed   int64
	firstErr error
	put, get xfer

	e       *env
	tracing bool
	spans   []span
}

// nextOp starts a new op and returns its id. Each op calls it exactly once.
func (c *client) nextOp() uint64 {
	c.seq++
	return c.opID()
}

// opID is the current op's id, unique across clients.
func (c *client) opID() uint64 { return uint64(c.id)<<40 | c.seq }

// now is time.Now in the traced run and free in the timed run, which records
// only one duration per op.
func (c *client) now() time.Time {
	if !c.tracing {
		return time.Time{}
	}
	return time.Now()
}

// rec closes a stamp opened with now.
func (c *client) rec(name string, op uint64, taskIdx int, start time.Time) {
	if !c.tracing {
		return
	}
	end := time.Now()
	c.spans = append(c.spans, span{
		ID: c.e.newSpanID(), Parent: op, Op: op, Task: uint32(taskIdx), Name: name,
		Start: int64(start.Sub(c.e.runStart)), End: int64(end.Sub(c.e.runStart)),
	})
}

// taskFunc is one of the benchmark's registered task bodies. id recovers the
// op and task index from the arguments, so the traced wrapper can attribute
// the execution without changing what travels on the wire.
type taskFunc struct {
	name string
	fn   task.Func
	id   func(args [][]byte) (op uint64, taskIdx int)
}

// env is one booted runtime with a workload's inputs and clients.
type env struct {
	w       *workload
	seed    uint64
	rt      *runtime.Runtime
	servers []idgen.NodeID
	clients []*client
	funcs   []taskFunc
	// data is the workload's generated input (payload pools, tables,
	// reference results).
	data any
	// extra carries set-up measurements that are per-layer metrics.
	extra map[string]float64

	runStart  time.Time
	spanSeq   atomic.Uint64
	execMu    sync.Mutex
	execSpans []span
}

func (e *env) newSpanID() uint64 { return 1<<63 | e.spanSeq.Add(1) }

// setUp boots a fresh runtime, generates the workload's inputs from seed,
// and warms up. The returned duration is one setup_s sample.
func setUp(w *workload, seed uint64) (*env, time.Duration, error) {
	t0 := time.Now()
	rt, err := runtime.New(clusterSpec, w.options)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: boot: %w", w.name, err)
	}
	e := &env{w: w, seed: seed, rt: rt, extra: map[string]float64{}}
	for _, rl := range rt.Raylets() {
		e.servers = append(e.servers, rl.Node())
	}
	for i := 0; i < w.clients; i++ {
		e.clients = append(e.clients, &client{
			id: i, ctx: context.Background(), e: e,
			rng: newRand(seed, fmt.Sprintf("%s/client-%d", w.name, i)),
		})
	}
	if err := w.prepare(e); err != nil {
		rt.Shutdown()
		return nil, 0, fmt.Errorf("%s: prepare: %w", w.name, err)
	}
	e.setTracing(false)
	e.runStart = time.Now()
	e.drive(func(c *client, done int, _ time.Duration) bool { return done >= w.warmOps })
	for _, c := range e.clients {
		if c.failed > 0 {
			rt.Shutdown()
			return nil, 0, fmt.Errorf("%s: %d warm-up ops failed, first: %w", w.name, c.failed, c.firstErr)
		}
		c.samples = nil
	}
	return e, time.Since(t0), nil
}

func (e *env) close() { e.rt.Shutdown() }

// register adds a task func; setTracing installs it raw or wrapped.
func (e *env) register(f taskFunc) { e.funcs = append(e.funcs, f) }

// setTracing switches the clients' stamps and (re-)registers every task func
// raw, or wrapped to stamp its entry and exit. The registry replaces
// duplicates, like a code redeployment.
func (e *env) setTracing(on bool) {
	for _, c := range e.clients {
		c.tracing = on
		c.spans = nil
	}
	e.execSpans = nil
	for _, f := range e.funcs {
		f := f
		fn := f.fn
		if on {
			fn = func(tctx *task.Context, args [][]byte) ([][]byte, error) {
				start := time.Now()
				out, err := f.fn(tctx, args)
				end := time.Now()
				op, idx := f.id(args)
				sp := span{
					ID: e.newSpanID(), Parent: op, Op: op, Task: uint32(idx), Name: spExec,
					Start: int64(start.Sub(e.runStart)), End: int64(end.Sub(e.runStart)),
				}
				e.execMu.Lock()
				e.execSpans = append(e.execSpans, sp)
				e.execMu.Unlock()
				return out, err
			}
		}
		e.rt.Registry.Register(f.name, fn)
	}
}

// drive runs every client's closed loop until stop says so, and returns once
// all clients have finished. Times count from e.runStart, which the caller
// sets. Each op is one sample; in the traced run it is also one "op" span.
func (e *env) drive(stop func(c *client, done int, elapsed time.Duration) bool) {
	var wg sync.WaitGroup
	for _, c := range e.clients {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := 0; ; done++ {
				t0 := time.Now()
				if stop(c, done, t0.Sub(e.runStart)) {
					return
				}
				err := e.w.op(e, c)
				t1 := time.Now()
				c.samples = append(c.samples, sample{end: t1.Sub(e.runStart), dur: t1.Sub(t0)})
				if c.tracing {
					op := c.opID()
					c.spans = append(c.spans, span{
						ID: op, Op: op, Name: spOp,
						Start: int64(t0.Sub(e.runStart)), End: int64(t1.Sub(e.runStart)),
					})
				}
				if err != nil {
					c.failed++
					if c.firstErr == nil {
						c.firstErr = err
					}
				}
			}
		}()
	}
	wg.Wait()
}

// mark is a resource snapshot at a segment boundary of a run.
type mark struct {
	at         time.Duration
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
}

// takeMark snapshots the process's resource use, start being the run's origin.
func takeMark(start time.Time) mark {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return mark{
		at:         time.Since(start),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

// runStats is what one timed or traced run recorded.
type runStats struct {
	samples   []sample // all clients, ordered by completion
	marks     []mark   // segment boundaries: first at the start, last after the last client finished
	attempted int64
	failed    int64
	firstErr  error
	put, get  float64 // MB/s inside PutAt / cold Get, averaged over clients
}

// segmentsFor sizes the segments a run is cut into: ten for a real run,
// fewer when a smoke run is too short for each to hold a sample.
func segmentsFor(d time.Duration) int {
	n := int(d / (500 * time.Millisecond))
	if n < 1 {
		return 1
	}
	if n > 10 {
		return 10
	}
	return n
}

// run measures the workload for d. Resource snapshots are taken at the start,
// at each segment boundary, and after the last client has finished its last
// op, so every op and every allocation falls in exactly one segment.
func (e *env) run(d time.Duration) *runStats {
	for _, c := range e.clients {
		c.samples = make([]sample, 0, 1<<16)
		c.failed, c.firstErr = 0, nil
		c.put, c.get = xfer{}, xfer{}
	}
	goruntime.GC()
	segs := segmentsFor(d)
	marks := make([]mark, segs+1)
	start := time.Now()
	e.runStart = start
	marks[0] = takeMark(start)
	ticks := make(chan struct{})
	go func() {
		defer close(ticks)
		for i := 1; i < segs; i++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(i) / time.Duration(segs))))
			marks[i] = takeMark(start)
		}
	}()
	e.drive(func(_ *client, _ int, elapsed time.Duration) bool { return elapsed >= d })
	<-ticks
	marks[segs] = takeMark(start)

	st := &runStats{marks: marks}
	for _, c := range e.clients {
		st.samples = append(st.samples, c.samples...)
		st.failed += c.failed
		if st.firstErr == nil {
			st.firstErr = c.firstErr
		}
		st.put += c.put.mbPerS() / float64(len(e.clients))
		st.get += c.get.mbPerS() / float64(len(e.clients))
	}
	st.attempted = int64(len(st.samples))
	sort.Slice(st.samples, func(i, j int) bool { return st.samples[i].end < st.samples[j].end })
	return st
}
