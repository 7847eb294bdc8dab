package bench

import (
	"context"
	"fmt"
	"os"
	goruntime "runtime"
	"time"

	"skadi/internal/arrowlite"
	"skadi/internal/caching"
	"skadi/internal/fabric"
	"skadi/internal/idgen"
	"skadi/internal/metrics"
	"skadi/internal/objectstore"
	"skadi/internal/ownership"
	"skadi/internal/raylet"
	"skadi/internal/scheduler"
	"skadi/internal/task"
	"skadi/internal/tenancy"
	"skadi/internal/transport"
	"skadi/internal/wire"
)

// probeBatches is how many equal batches a probe's iterations are cut into;
// the probe reports the median batch, so one preempted batch does not move it.
const probeBatches = 5

// timeCalls times fn over iters calls on the calling goroutine and returns the
// median batch's ns per call and the mean allocations per call.
func timeCalls(iters int, fn func()) (nsPerOp, allocsPerOp float64) {
	for i := 0; i < iters/10+1; i++ {
		fn()
	}
	per := iters/probeBatches + 1
	batch := make([]float64, probeBatches)
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for b := range batch {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		batch[b] = float64(time.Since(t0).Nanoseconds()) / float64(per)
	}
	goruntime.ReadMemStats(&ms)
	return median(batch), float64(ms.Mallocs-mallocs) / float64(per*probeBatches)
}

// must stops a probe whose fixture cannot be built: a bug in the benchmark or
// a changed API, never an input.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench probe: %v", err))
	}
}

// probeLocator answers locality queries for the scheduler probes: object i
// of a spec lives on node i mod 4.
type probeLocator struct {
	where map[idgen.ObjectID][]idgen.NodeID
}

func (l *probeLocator) Locations(id idgen.ObjectID) []idgen.NodeID { return l.where[id] }
func (l *probeLocator) Size(idgen.ObjectID) int64                  { return dagPartBytes }

// RunProbes measures each layer's public API directly, single-goroutine, with
// the message shapes the workloads use. It is the P source of the per-layer
// metrics and the only part of the benchmark that opens sockets.
func RunProbes(seed uint64) map[string]float64 { return runProbes(seed, 1) }

// runProbes is RunProbes with every iteration count scaled, so the smoke test
// can exercise each probe in milliseconds.
func runProbes(seed uint64, scale float64) map[string]float64 {
	probe := func(iters int, fn func()) (float64, float64) {
		return timeCalls(int(float64(iters)*scale)+probeBatches, fn)
	}
	m := map[string]float64{}
	ctx := context.Background()
	rnd := newRand(seed, "probes")
	small := randomBytes(rnd, objSmall)
	large := randomBytes(rnd, objLarge)
	nodes := make([]idgen.NodeID, 4)
	for i := range nodes {
		nodes[i] = idgen.Next()
	}

	// transport: the codec on task_seq's exec request, then echo calls.
	spec := task.NewSpec(idgen.Next(), fnEcho8, []task.Arg{task.ValueArg(make([]byte, 8))}, 1)
	spec.Owner = nodes[0]
	req := raylet.ExecRequest{Spec: *spec}
	encoded := transport.MustEncode(req)
	var encAllocs, decAllocs float64
	m["transport.encode_exec_ns"], encAllocs = probe(20000, func() { _ = transport.MustEncode(req) })
	m["transport.decode_exec_ns"], decAllocs = probe(20000, func() {
		var out raylet.ExecRequest
		must(transport.Decode(encoded, &out))
	})
	m["transport.codec_allocs"] = encAllocs + decAllocs

	echo := func(_ context.Context, _ idgen.NodeID, _ string, p []byte) ([]byte, error) { return p, nil }
	inprocFabric := fabric.New(fabric.Config{})
	for _, n := range nodes {
		inprocFabric.Register(n, fabric.Location{Island: -1}) // one rack, like the runtime's servers
	}
	inproc := transport.NewInProc(inprocFabric)
	must(inproc.Listen(nodes[0], echo))
	call := func(tr transport.Transport, payload []byte) func() {
		return func() {
			_, err := tr.Call(ctx, nodes[1], nodes[0], "echo", payload)
			must(err)
		}
	}
	m["transport.inproc_call_64b_ns"], m["transport.inproc_call_allocs"] = probe(200000, call(inproc, small[:64]))
	m["transport.inproc_call_64k_ns"], _ = probe(2000, call(inproc, small))
	must(inproc.Close())

	tcp := transport.NewTCP()
	if err := tcp.Listen(nodes[0], echo); err != nil {
		// No loopback in this sandbox: the two TCP probes read 0.
		fmt.Fprintf(os.Stderr, "skadi-perf: tcp probes skipped: %v\n", err)
	} else {
		m["transport.tcp_call_64b_ns"], _ = probe(10000, call(tcp, small[:64]))
		m["transport.tcp_call_64k_ns"], _ = probe(1500, call(tcp, small))
	}
	must(tcp.Close())

	// scheduler: pick + finished on 4 nodes.
	loc := &probeLocator{where: map[idgen.ObjectID][]idgen.NodeID{}}
	refArgs := make([]task.Arg, 8)
	for i := range refArgs {
		id := idgen.Next()
		refArgs[i] = task.RefArg(id)
		loc.where[id] = []idgen.NodeID{nodes[i%len(nodes)]}
	}
	localitySpec := task.NewSpec(idgen.Next(), fnDagReduce, refArgs, 1)
	pick := func(p scheduler.Placer, s *task.Spec) func() {
		for _, n := range nodes {
			p.AddNode(scheduler.NodeInfo{ID: n, Backend: "cpu", Slots: clusterSpec.ServerSlots})
		}
		return func() {
			n, err := p.Pick(s)
			must(err)
			p.Finished(n)
		}
	}
	m["scheduler.pick_ns"], _ = probe(500000, pick(scheduler.New(scheduler.RoundRobin, loc), spec))
	m["scheduler.pick_locality_ns"], _ = probe(200000, pick(scheduler.New(scheduler.DataLocality, loc), localitySpec))
	m["scheduler.mesh_pick_ns"], _ = probe(500000, pick(scheduler.NewMesh(scheduler.RoundRobin, loc), spec))

	// ownership: one object's life in the directory.
	cycle := func(d ownership.Directory) func() {
		return func() {
			id := idgen.Next()
			must(d.CreatePending(id, nodes[0], idgen.Nil))
			_, err := d.MarkReady(id, 8, nodes[1], idgen.Nil, "")
			must(err)
			_, err = d.Get(id)
			must(err)
			d.Delete(id)
		}
	}
	m["ownership.table_cycle_ns"], m["ownership.cycle_allocs"] = probe(200000, cycle(ownership.NewTable()))
	sharded := ownership.NewSharded(0)
	sharded.AddMember(idgen.Next())
	for _, n := range nodes {
		sharded.AddMember(n)
	}
	m["ownership.sharded_cycle_ns"], _ = probe(200000, cycle(sharded))

	// tenancy: one task's passage through an uncontended controller.
	ctl := tenancy.NewController(tenancy.Options{FairShare: true}, metrics.NewRegistry())
	ctl.AddCapacity(len(nodes)*clusterSpec.ServerSlots, int64(len(nodes))*clusterSpec.ServerMemBytes)
	must(ctl.RegisterTenant(tenancy.Config{Name: "t0", Weight: 1}))
	taskID := idgen.Next()
	m["tenancy.admit_acquire_release_ns"], _ = probe(200000, func() {
		must(ctl.Admit(ctx, "t0"))
		g, err := ctl.Acquire(ctx, "t0", taskID)
		must(err)
		g.Release()
		ctl.TaskDone("t0", true, true)
	})

	// caching and objectstore: puts and a remote get on a 4-store layer.
	layer := func(cfg caching.Config) *caching.Layer {
		f := fabric.New(fabric.Config{})
		l, err := caching.NewLayer(f, cfg)
		must(err)
		for _, n := range nodes {
			f.Register(n, fabric.Location{Island: -1})
			l.AddStore(n, caching.HostDRAM, objectstore.New(clusterSpec.ServerMemBytes, nil))
		}
		return l
	}
	putDelete := func(l *caching.Layer, data []byte) func() {
		return func() {
			id := idgen.Next()
			must(l.Put(nodes[0], id, data, "raw"))
			l.Delete(id)
		}
	}
	m["caching.put_none_64k_us"] = nsToUs(probe(20000, putDelete(layer(caching.Config{}), small)))
	repl := layer(caching.Config{Mode: caching.ModeReplicate, Replicas: 2})
	m["caching.put_repl2_1m_us"] = nsToUs(probe(500, putDelete(repl, large)))
	remote := layer(caching.Config{})
	remoteID := idgen.Next()
	must(remote.Put(nodes[0], remoteID, large, "raw"))
	m["caching.get_remote_1m_us"] = nsToUs(probe(500, func() {
		_, _, err := remote.Get(nodes[1], remoteID)
		must(err)
	}))

	store := objectstore.New(clusterSpec.ServerMemBytes, nil)
	m["objectstore.put_get_64k_ns"], _ = probe(200000, func() {
		id := idgen.Next()
		must(store.Put(id, small, "raw"))
		_, _, err := store.Get(id)
		must(err)
		must(store.Delete(id))
	})

	// wire and arrowlite: the codecs under the bulk path and the sql tables.
	dst := make([]byte, 0, wire.CompressBound(len(large)))
	m["wire.lz4_compress_1m_us"] = nsToUs(probe(200, func() { dst = wire.AppendCompress(dst[:0], large) }))
	_, sales := genSales(seed)
	salesBytes := arrowlite.Encode(sales)
	m["arrowlite.encode_50k_us"] = nsToUs(probe(200, func() { _ = arrowlite.Encode(sales) }))
	m["arrowlite.decode_50k_us"] = nsToUs(probe(200, func() {
		_, err := arrowlite.Decode(salesBytes)
		must(err)
	}))
	return m
}

func nsToUs(ns, _ float64) float64 { return ns / 1e3 }

// budgetRow is one line of the layer budget of a task_seq op.
type budgetRow struct {
	Layer string  `json:"layer"`
	Calls float64 `json:"calls_per_task"`
	Ns    float64 `json:"probe_ns"`
}

// taskSeqBudget is the layer-budget table ROADMAP item 1 asks for: calls per
// task_seq op times each layer's probed cost. The call counts come from the
// measured fabric message count: a transport call is a request and a
// response, and is charged one encode and one decode of an exec-sized gob
// message — a model, since the codec's own call count is not visible from
// outside; README.md says how to read a covered fraction above 1.
func taskSeqBudget(perLayer map[string]Value) []budgetRow {
	calls := perLayer["fabric.msgs_per_op"].Value / 2
	return []budgetRow{
		{"transport.encode", calls, perLayer["transport.encode_exec_ns"].Value},
		{"transport.decode", calls, perLayer["transport.decode_exec_ns"].Value},
		{"transport.inproc_call", calls, perLayer["transport.inproc_call_64b_ns"].Value},
		{"scheduler.pick", 1, perLayer["scheduler.pick_ns"].Value},
		{"ownership.table_cycle", 1, perLayer["ownership.table_cycle_ns"].Value},
	}
}

// coveredFrac is the share of opP50us the budget rows add up to.
func coveredFrac(rows []budgetRow, opP50us float64) float64 {
	var ns float64
	for _, r := range rows {
		ns += r.Calls * r.Ns
	}
	return ratio(ns/1e3, opP50us)
}
