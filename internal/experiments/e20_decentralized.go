package experiments

import (
	"context"
	"fmt"
	stdruntime "runtime"
	"sort"
	"sync"
	"time"

	"skadi/internal/idgen"
	"skadi/internal/ownership"
	"skadi/internal/raylet"
	"skadi/internal/scheduler"
	"skadi/internal/task"
	"skadi/internal/transport"
)

func init() { register("e20", E20Decentralized) }

// E20 models the control plane at disaggregated-data-center scale
// (§2.3.1: "the centralized architecture limits scalability"): a sweep
// over simulated cluster sizes comparing the control plane's two
// configurations: centralized (the head is the directory ring's only
// member and the one station serving every placement) against
// decentralized (every node a ring member, per-node work-stealing
// placement).
//
// Method: virtual-time stations over the REAL data structures. Every
// control operation — Pick on the placement engine, CreatePending /
// MarkReady / Get on the ownership directory — is executed for real and
// charged to the virtual clock of the station that would serve it: the
// single head station in the centralized arm, the owning node's station
// (ring owner for directory ops, placed node for scheduling) in the
// sharded arm. The charge is the arm's calibrated cost of that op kind:
// the median of its measured costs over one calibration run per process
// (see e20Calibrated), the same at every sweep size, so the arms' ratios
// are a property of the model rather than of the host's noise in one run.
// Virtual throughput is tasks over the slowest station's clock — i.e. the
// makespan under per-station serialization, which is exactly what a
// single serialized head imposes and a sharded plane avoids. Real wall
// ops/s of the (sequential) driver is reported as a secondary column; it
// measures raw data-structure cost, not the serialization bottleneck.
//
// At the smallest sweep size two extra comparisons run:
//   - sharded-tcp serves every directory op over real TCP sockets through
//     the fixed-tag own.* frames (the cross-process deployment shape);
//     the station charge is the server-side handler cost (calibrated by
//     running the handler in process), so the row isolates the serve-path
//     overhead of the wire format, not loopback RTT (which the sequential
//     driver pays in wall ops/s instead).
//   - sharded-loc / sharded-rand chain tasks to recently produced objects
//     via ref args and compare locality-aware steal ordering against
//     random probing, reporting the arg bytes a thief had locally vs had
//     to fetch.
const (
	e20TasksPerNode = 10
	e20Slots        = 1
	// e20VNodes keeps ring construction cheap at 1000 members while still
	// spreading keys well (the distribution test bounds imbalance).
	e20VNodes = 8
	// e20ArgBytes is the committed size of every produced object; in the
	// chained arms it is also each ref arg's transfer cost on a miss.
	e20ArgBytes = 1024
)

// e20Sweep is the simulated-node sweep; the top sizes are the paper's
// "hundreds to thousands of nodes" regime.
var e20Sweep = []int{64, 250, 500, 1000}

// e20TCPNodes is the single sweep size that also runs the TCP and
// locality arms — large enough to shard meaningfully, small enough that
// a few thousand sequential loopback RPCs stay cheap.
const e20TCPNodes = 64

// e20Boost multiplies the task count for every arm at e20TCPNodes: the
// per-op costs being compared there are hundreds of nanoseconds, so the
// extra samples keep a single scheduler preemption or GC pause from
// deciding the tcp-vs-in-process ratio.
const e20Boost = 4

// e20Wave is the TCP arm's concurrency window: how many tasks advance
// through each directory phase with their RPCs in flight at once.
const e20Wave = 16

// E20Decentralized runs the sweep and renders the scaling table.
func E20Decentralized() (*Table, error) {
	t := &Table{
		ID:    "e20",
		Title: "Decentralized control plane: submit throughput vs cluster size (§2.3.1 scalability)",
		Header: []string{
			"nodes", "arm", "tasks/s (virtual)", "p99 submit (virtual)",
			"steal rate", "steal arg bytes (l/r)", "wall ops/s", "speedup",
		},
	}
	row := func(n int, arm string, a *e20Arm, central *e20Arm) {
		steal, bytes := "-", "-"
		if arm != "central" {
			steal = fmt.Sprintf("%.2f", a.stealRate)
		}
		if a.stealLocalBytes+a.stealRemoteBytes > 0 {
			bytes = fmt.Sprintf("%d/%d", a.stealLocalBytes, a.stealRemoteBytes)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), arm,
			fmt.Sprintf("%.0f", a.tasksPerSec),
			fmt.Sprintf("%.1f µs", float64(a.p99)/1e3),
			steal, bytes,
			fmt.Sprintf("%.0f", a.wallOpsPerSec),
			fmt.Sprintf("%.1fx", a.tasksPerSec/central.tasksPerSec),
		})
	}
	for _, n := range e20Sweep {
		central, err := e20Run(e20Config{n: n})
		if err != nil {
			return nil, fmt.Errorf("e20 central n=%d: %w", n, err)
		}
		shard, err := e20Run(e20Config{n: n, sharded: true})
		if err != nil {
			return nil, fmt.Errorf("e20 sharded n=%d: %w", n, err)
		}
		row(n, "central", central, central)
		row(n, "sharded", shard, central)
		if n != e20TCPNodes {
			continue
		}
		tcp, err := e20Run(e20Config{n: n, sharded: true, overTCP: true})
		if err != nil {
			return nil, fmt.Errorf("e20 sharded-tcp n=%d: %w", n, err)
		}
		loc, err := e20Run(e20Config{n: n, sharded: true, chained: true, locality: true})
		if err != nil {
			return nil, fmt.Errorf("e20 sharded-loc n=%d: %w", n, err)
		}
		rnd, err := e20Run(e20Config{n: n, sharded: true, chained: true})
		if err != nil {
			return nil, fmt.Errorf("e20 sharded-rand n=%d: %w", n, err)
		}
		row(n, "sharded-tcp", tcp, central)
		row(n, "sharded-loc", loc, central)
		row(n, "sharded-rand", rnd, central)
	}
	t.Notes = "Expected shape: centralized virtual throughput is flat in cluster size (every control op " +
		"serializes on the head station) while sharded scales near-linearly (ops spread across per-node " +
		"shard/scheduler stations); at >=500 nodes the sharded plane clears 5x. Every op is charged its arm's " +
		"calibrated cost (the median of one timed run per process), the same at every size. Steal rate is the fraction " +
		"of placements a peer accepted from a saturated home. Wall ops/s (sequential driver) is the raw " +
		"structure cost: the sharded path pays ring routing per op — and the tcp arm a loopback RTT — which " +
		"the parallelism buys back. sharded-tcp charges the server-side serve cost of the fixed-tag own.* " +
		"frames; its ratio to in-process sharded is reported, not gated. sharded-loc vs sharded-rand: chained tasks " +
		"carry 1 KiB ref args; locality-aware steal ordering shifts the local/remote split toward local, " +
		"cutting steal-induced arg fetches."
	return t, nil
}

// e20Station is a virtual service point: one control-plane CPU. serve
// charges a cost at the later of the station's clock and the op's ready
// time (the previous op in the task's chain), returning the completion.
type e20Station struct{ clock time.Duration }

func (s *e20Station) serve(after, cost time.Duration) time.Duration {
	start := s.clock
	if after > start {
		start = after
	}
	s.clock = start + cost
	return s.clock
}

type e20Arm struct {
	tasksPerSec      float64
	p99              time.Duration
	stealRate        float64
	wallOpsPerSec    float64
	stealLocalBytes  int64
	stealRemoteBytes int64
}

// The op kinds every task performs, in order.
const (
	e20Pick = iota
	e20Create
	e20Ready
	e20Get
	e20Kinds
)

// e20Costs is one arm's calibrated cost per op kind.
type e20Costs [e20Kinds]time.Duration

// e20Cal caches each arm's calibrated costs for the life of the process.
var e20Cal = struct {
	sync.Mutex
	costs map[e20Config]e20Costs
}{costs: make(map[e20Config]e20Costs)}

// e20Calibrated returns the arm's cost per op kind, measuring it on first
// use: one run of the arm at e20TCPNodes times every op (the TCP arm runs
// its server-side handler in process), and each kind's cost is the median
// of its samples — robust to the preemptions and GC pauses that land on
// single sub-µs samples.
func e20Calibrated(cfg e20Config) (e20Costs, error) {
	cfg.n = e20TCPNodes
	e20Cal.Lock()
	defer e20Cal.Unlock()
	if c, ok := e20Cal.costs[cfg]; ok {
		return c, nil
	}
	var samples [e20Kinds][]time.Duration
	if _, err := e20Drive(cfg, e20Costs{}, &samples); err != nil {
		return e20Costs{}, err
	}
	var c e20Costs
	for k, ds := range samples {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		c[k] = ds[len(ds)/2]
	}
	e20Cal.costs[cfg] = c
	return c, nil
}

// e20Frame encodes one directory op as the own.* frame a shard host serves.
func e20Frame(kind int, obj idgen.ObjectID, node idgen.NodeID, tid idgen.TaskID) (string, []byte) {
	switch kind {
	case e20Create:
		return raylet.KindOwnCreate, transport.MustEncode(raylet.OwnCreateRequest{
			IDs: []idgen.ObjectID{obj}, Owner: node, Task: tid})
	case e20Ready:
		return raylet.KindOwnReady, transport.MustEncode(raylet.OwnReadyRequest{
			ID: obj, Size: e20ArgBytes, Location: node})
	default:
		return raylet.KindOwnGet, transport.MustEncode(raylet.OwnGetRequest{ID: obj})
	}
}

// e20Config selects one arm: the one-member (centralized) baseline, the
// in-process sharded plane, the same plane served over TCP sockets, or the
// ref-arg-chained variants comparing steal orderings.
type e20Config struct {
	n        int
	sharded  bool
	overTCP  bool // serve directory ops over real TCP via the own.* codecs
	chained  bool // tasks carry ref args to recently produced objects
	locality bool // locality-aware steal ordering (chained arms only)
}

// e20Locator is the synthetic data plane for the chained arms: every
// produced object has one full copy, on the node that ran its producer.
type e20Locator struct {
	home map[idgen.ObjectID]idgen.NodeID
}

func (l *e20Locator) Locations(id idgen.ObjectID) []idgen.NodeID {
	if n, ok := l.home[id]; ok {
		return []idgen.NodeID{n}
	}
	return nil
}

func (l *e20Locator) Size(idgen.ObjectID) int64 { return e20ArgBytes }

// e20Run drives one arm at one cluster size, charging its calibrated
// costs.
func e20Run(cfg e20Config) (*e20Arm, error) {
	costs, err := e20Calibrated(cfg)
	if err != nil {
		return nil, err
	}
	return e20Drive(cfg, costs, nil)
}

// e20Drive runs one arm at one cluster size: n*e20TasksPerNode tasks, all
// offered at virtual time zero (closed-loop saturation — the regime where
// the head bottleneck binds), each doing one real placement and three real
// directory ops, each charged costs[kind]. Roughly half the fleet's slots
// stay occupied so the sharded arm's steal path genuinely fires. With
// samples set it is a calibration run: every op is timed and its duration
// appended to samples[kind], and the TCP arm serves its frames in process.
func e20Drive(cfg e20Config, costs e20Costs, samples *[e20Kinds][]time.Duration) (*e20Arm, error) {
	n := cfg.n
	nodes := make([]idgen.NodeID, n)
	for i := range nodes {
		nodes[i] = idgen.Next()
	}

	// Both arms are the same two structures. What differs is who is on the
	// ring and who serves: the central arm's only shard host — and only
	// station — is the head, and its placer never steals.
	var (
		sh       = ownership.NewSharded(e20VNodes)
		mesh     *scheduler.Mesh
		loc      *e20Locator
		stations = make(map[idgen.NodeID]*e20Station, n+1)
		head     = idgen.NodeID(idgen.Next())
	)
	if cfg.sharded {
		for _, id := range nodes {
			sh.AddMember(id)
			stations[id] = &e20Station{}
		}
		var locator scheduler.ObjectLocator
		if cfg.chained {
			loc = &e20Locator{home: make(map[idgen.ObjectID]idgen.NodeID, n*e20TasksPerNode)}
			locator = loc
		}
		// Random homes (not round-robin): with half the fleet's slots held,
		// a random home is saturated about half the time, so the steal path
		// is actually exercised instead of rotating around it.
		mesh = scheduler.NewMesh(scheduler.Random, locator)
		mesh.SetLocalitySteal(cfg.locality)
	} else {
		sh.AddMember(head)
		stations[head] = &e20Station{}
		mesh = scheduler.New(scheduler.Random, nil)
	}
	for _, id := range nodes {
		mesh.AddNode(scheduler.NodeInfo{ID: id, Backend: "cpu", Slots: e20Slots})
	}
	schedStation := func(node idgen.NodeID) *e20Station {
		if st, ok := stations[node]; ok {
			return st
		}
		return stations[head]
	}
	dirOwner := func(obj idgen.ObjectID) idgen.NodeID {
		owner, _ := sh.OwnerOf(obj)
		return owner
	}

	// Over TCP every shard host serves the own.* frames with the same
	// dispatch as a raylet; calibration runs that handler in process.
	var (
		tr      transport.Transport
		client  idgen.NodeID
		callCtx = context.Background()
	)
	overTCP := cfg.overTCP && samples == nil
	if overTCP {
		tr = transport.NewTCP()
		defer tr.Close()
		handler := func(ctx context.Context, _ idgen.NodeID, kind string, payload []byte) ([]byte, error) {
			resp, handled, err := raylet.ServeOwnership(ctx, sh, kind, payload)
			if !handled {
				return nil, fmt.Errorf("e20: unhandled kind %q", kind)
			}
			return resp, err
		}
		for _, id := range nodes {
			if err := tr.Listen(id, handler); err != nil {
				return nil, err
			}
		}
		client = idgen.NodeID(idgen.Next())
	}
	// timed runs one op of the given kind, appending its duration to the
	// samples when calibrating.
	timed := func(kind int, op func() error) error {
		t0 := time.Now()
		err := op()
		if samples != nil {
			samples[kind] = append(samples[kind], time.Since(t0))
		}
		return err
	}
	// dirOp runs one directory op against the structure, or through its
	// own.* handler for the TCP arm's calibration.
	dirOp := func(kind int, obj idgen.ObjectID, node idgen.NodeID, tid idgen.TaskID) error {
		if cfg.overTCP {
			k, payload := e20Frame(kind, obj, node, tid)
			return timed(kind, func() error {
				_, _, err := raylet.ServeOwnership(callCtx, sh, k, payload)
				return err
			})
		}
		return timed(kind, func() error {
			var err error
			switch kind {
			case e20Create:
				err = sh.CreatePending(obj, node, tid)
			case e20Ready:
				_, err = sh.MarkReady(obj, e20ArgBytes, node, idgen.Nil, "")
			default:
				_, err = sh.Get(obj)
			}
			return err
		})
	}

	job := idgen.JobID(idgen.Next())
	total := n * e20TasksPerNode
	if n == e20TCPNodes {
		total *= e20Boost
	}
	maxInflight := n*e20Slots/2 + 1
	inflight := make([]idgen.NodeID, 0, maxInflight+1)
	completions := make([]time.Duration, 0, total)
	var recent []idgen.ObjectID
	ops := 0
	// Settle allocator debt from setup and prior arms so a deferred GC
	// pause doesn't land inside this arm's sub-microsecond samples.
	stdruntime.GC()
	wallStart := time.Now()
	finishOne := func(node idgen.NodeID, done time.Duration) {
		ops += 4
		completions = append(completions, done)
		inflight = append(inflight, node)
		if len(inflight) > maxInflight {
			mesh.Finished(inflight[0])
			inflight = inflight[1:]
		}
	}
	if overTCP {
		// Wave driver: e20Wave tasks advance phase-by-phase with their
		// directory RPCs issued concurrently, so shard servers see
		// back-to-back frames the way they would under the closed-loop
		// saturation E20 models, instead of one cold wakeup per op from a
		// lock-step driver.
		waveNodes := make([]idgen.NodeID, e20Wave)
		waveObjs := make([]idgen.ObjectID, e20Wave)
		waveTask := make([]idgen.TaskID, e20Wave)
		dones := make([]time.Duration, e20Wave)
		for base := 0; base < total; base += e20Wave {
			w := min(e20Wave, total-base)
			for j := 0; j < w; j++ {
				spec := task.NewSpec(job, "e20/noop", nil, 1)
				node, err := mesh.Pick(spec)
				if err != nil {
					return nil, err
				}
				dones[j] = schedStation(node).serve(0, costs[e20Pick])
				waveNodes[j], waveObjs[j], waveTask[j] = node, idgen.ObjectID(idgen.Next()), spec.ID
			}
			for kind := e20Create; kind <= e20Get; kind++ {
				errs := make([]error, w)
				var wg sync.WaitGroup
				for j := 0; j < w; j++ {
					wg.Add(1)
					go func(j int) {
						defer wg.Done()
						k, p := e20Frame(kind, waveObjs[j], waveNodes[j], waveTask[j])
						_, errs[j] = tr.Call(callCtx, client, dirOwner(waveObjs[j]), k, p)
					}(j)
				}
				wg.Wait()
				for j := 0; j < w; j++ {
					if errs[j] != nil {
						return nil, errs[j]
					}
					dones[j] = stations[dirOwner(waveObjs[j])].serve(dones[j], costs[kind])
				}
			}
			for j := 0; j < w; j++ {
				finishOne(waveNodes[j], dones[j])
			}
		}
	} else {
		for i := 0; i < total; i++ {
			var args []task.Arg
			if cfg.chained {
				// Chain to the immediately preceding output plus an older
				// one: two 1 KiB ref args whose copies sit wherever their
				// producers ran, so steal ordering has real placement to
				// exploit.
				if len(recent) > 0 {
					args = append(args, task.RefArg(recent[len(recent)-1]))
				}
				if len(recent) >= 8 {
					args = append(args, task.RefArg(recent[len(recent)-8]))
				}
			}
			spec := task.NewSpec(job, "e20/noop", args, 1)

			var node idgen.NodeID
			if err := timed(e20Pick, func() (err error) {
				node, err = mesh.Pick(spec)
				return err
			}); err != nil {
				return nil, err
			}
			done := schedStation(node).serve(0, costs[e20Pick])

			obj := idgen.ObjectID(idgen.Next())
			st := stations[dirOwner(obj)]
			for kind := e20Create; kind <= e20Get; kind++ {
				if err := dirOp(kind, obj, node, spec.ID); err != nil {
					return nil, err
				}
				done = st.serve(done, costs[kind])
			}

			if cfg.chained {
				loc.home[obj] = node
				recent = append(recent, obj)
			}
			finishOne(node, done)
		}
	}
	wall := time.Since(wallStart)

	var makespan time.Duration
	for _, s := range stations {
		if s.clock > makespan {
			makespan = s.clock
		}
	}
	sort.Slice(completions, func(i, j int) bool { return completions[i] < completions[j] })
	p99 := completions[(len(completions)*99+99)/100-1]

	arm := &e20Arm{
		tasksPerSec:   float64(total) / makespan.Seconds(),
		p99:           p99,
		wallOpsPerSec: float64(ops) / wall.Seconds(),
		stealRate:     float64(mesh.StealCount()) / float64(total),
	}
	arm.stealLocalBytes, arm.stealRemoteBytes = mesh.StealBytes()
	return arm, nil
}
