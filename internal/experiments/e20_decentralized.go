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
// its measured CPU cost is charged to the virtual clock of the station
// that would serve it: the single head station in the centralized arm,
// the owning node's station (ring owner for directory ops, placed node
// for scheduling) in the sharded arm. Virtual throughput is tasks over
// the slowest station's clock — i.e. the makespan under per-station
// serialization, which is exactly what a single serialized head imposes
// and a sharded plane avoids. Real wall ops/s of the (sequential) driver
// is reported as a secondary column; it measures raw data-structure cost,
// not the serialization bottleneck.
//
// At the smallest sweep size two extra comparisons run:
//   - sharded-tcp serves every directory op over real TCP sockets through
//     the fixed-tag own.* frames (the cross-process deployment shape);
//     the station charge is the server-side handler cost, so the row
//     isolates the serve-path overhead of the wire format, not loopback
//     RTT (which the sequential driver pays in wall ops/s instead).
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
	// e20CostCeil clamps one op's measured cost before charging it, so an
	// OS preemption or GC pause landing on a single op cannot distort a
	// station's virtual clock (sharded stations serve few ops each). Every
	// real control op here is well under a microsecond; samples beyond 2µs
	// are scheduler artifacts, and on a small shared runner they are common
	// enough to decide arm ratios if charged at face value.
	e20CostCeil  = 2 * time.Microsecond
	e20CostFloor = 20 * time.Nanosecond
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
		"shard/scheduler stations); at >=500 nodes the sharded plane clears 5x. Steal rate is the fraction " +
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

// e20Cost clamps a measured op duration into the chargeable band.
func e20Cost(d time.Duration) time.Duration {
	if d < e20CostFloor {
		return e20CostFloor
	}
	if d > e20CostCeil {
		return e20CostCeil
	}
	return d
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

// e20Run drives one arm at one cluster size: n*e20TasksPerNode tasks, all
// offered at virtual time zero (closed-loop saturation — the regime where
// the head bottleneck binds), each doing one real placement and three real
// directory ops. Roughly half the fleet's slots stay occupied so the
// sharded arm's steal path genuinely fires.
func e20Run(cfg e20Config) (*e20Arm, error) {
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

	// Directory op costs charged to the owner's station: the op's own
	// measured duration in process, or the server-side handler cost
	// (decode, real directory op, encode) over TCP — the wire's serve cost
	// without the loopback RTT, which the driver pays in wall ops/s
	// instead.
	var (
		tr      transport.Transport
		served  sync.Map // object → serve cost ns, attributed post-measurement
		client  idgen.NodeID
		callCtx = context.Background()
	)
	if cfg.overTCP {
		tr = transport.NewTCP()
		defer tr.Close()
		handler := func(ctx context.Context, _ idgen.NodeID, kind string, payload []byte) ([]byte, error) {
			t0 := time.Now()
			resp, handled, err := raylet.ServeOwnership(ctx, sh, kind, payload)
			d := int64(time.Since(t0))
			if !handled {
				return nil, fmt.Errorf("e20: unhandled kind %q", kind)
			}
			// Attribute the cost to its object outside the measured window.
			// The driver keeps at most one op per object in flight, so the
			// key cannot collide.
			var obj idgen.ObjectID
			switch kind {
			case raylet.KindOwnCreate:
				var r raylet.OwnCreateRequest
				if derr := transport.Decode(payload, &r); derr == nil && len(r.IDs) > 0 {
					obj = r.IDs[0]
				}
			case raylet.KindOwnReady:
				var r raylet.OwnReadyRequest
				if derr := transport.Decode(payload, &r); derr == nil {
					obj = r.ID
				}
			case raylet.KindOwnGet:
				var r raylet.OwnGetRequest
				if derr := transport.Decode(payload, &r); derr == nil {
					obj = r.ID
				}
			}
			served.Store(obj, d)
			return resp, err
		}
		for _, id := range nodes {
			if err := tr.Listen(id, handler); err != nil {
				return nil, err
			}
		}
		client = idgen.NodeID(idgen.Next())
	}
	tcpCost := func(obj idgen.ObjectID) (time.Duration, error) {
		v, ok := served.LoadAndDelete(obj)
		if !ok {
			return 0, fmt.Errorf("e20: no serve cost recorded for %s", obj.Short())
		}
		return time.Duration(v.(int64)), nil
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
	if cfg.overTCP {
		// Wave driver: e20Wave tasks advance phase-by-phase with their
		// directory RPCs issued concurrently, so shard servers see
		// back-to-back frames the way they would under the closed-loop
		// saturation E20 models, instead of one cold wakeup per op from a
		// lock-step driver. Each op's station charge is still the
		// handler's own measurement of that op.
		waveNodes := make([]idgen.NodeID, e20Wave)
		waveObjs := make([]idgen.ObjectID, e20Wave)
		waveTask := make([]idgen.TaskID, e20Wave)
		dones := make([]time.Duration, e20Wave)
		for base := 0; base < total; base += e20Wave {
			w := min(e20Wave, total-base)
			for j := 0; j < w; j++ {
				spec := task.NewSpec(job, "e20/noop", nil, 1)
				t0 := time.Now()
				node, err := mesh.Pick(spec)
				cost := time.Since(t0)
				if err != nil {
					return nil, err
				}
				dones[j] = schedStation(node).serve(0, e20Cost(cost))
				waveNodes[j], waveObjs[j], waveTask[j] = node, idgen.ObjectID(idgen.Next()), spec.ID
			}
			phase := func(payload func(j int) (string, []byte)) error {
				errs := make([]error, w)
				var wg sync.WaitGroup
				for j := 0; j < w; j++ {
					wg.Add(1)
					go func(j int) {
						defer wg.Done()
						kind, p := payload(j)
						_, errs[j] = tr.Call(callCtx, client, dirOwner(waveObjs[j]), kind, p)
					}(j)
				}
				wg.Wait()
				for j := 0; j < w; j++ {
					if errs[j] != nil {
						return errs[j]
					}
					cost, err := tcpCost(waveObjs[j])
					if err != nil {
						return err
					}
					dones[j] = stations[dirOwner(waveObjs[j])].serve(dones[j], e20Cost(cost))
				}
				return nil
			}
			if err := phase(func(j int) (string, []byte) {
				return raylet.KindOwnCreate, transport.MustEncode(raylet.OwnCreateRequest{
					IDs: []idgen.ObjectID{waveObjs[j]}, Owner: waveNodes[j], Task: waveTask[j]})
			}); err != nil {
				return nil, err
			}
			if err := phase(func(j int) (string, []byte) {
				return raylet.KindOwnReady, transport.MustEncode(raylet.OwnReadyRequest{
					ID: waveObjs[j], Size: e20ArgBytes, Location: waveNodes[j]})
			}); err != nil {
				return nil, err
			}
			if err := phase(func(j int) (string, []byte) {
				return raylet.KindOwnGet, transport.MustEncode(raylet.OwnGetRequest{ID: waveObjs[j]})
			}); err != nil {
				return nil, err
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

			t0 := time.Now()
			node, err := mesh.Pick(spec)
			cost := time.Since(t0)
			if err != nil {
				return nil, err
			}
			done := schedStation(node).serve(0, e20Cost(cost))

			obj := idgen.ObjectID(idgen.Next())
			st := stations[dirOwner(obj)]

			t0 = time.Now()
			err = sh.CreatePending(obj, node, spec.ID)
			cost = time.Since(t0)
			if err != nil {
				return nil, err
			}
			done = st.serve(done, e20Cost(cost))

			t0 = time.Now()
			_, err = sh.MarkReady(obj, e20ArgBytes, node, idgen.Nil, "")
			cost = time.Since(t0)
			if err != nil {
				return nil, err
			}
			done = st.serve(done, e20Cost(cost))

			t0 = time.Now()
			_, err = sh.Get(obj)
			cost = time.Since(t0)
			if err != nil {
				return nil, err
			}
			done = st.serve(done, e20Cost(cost))

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
