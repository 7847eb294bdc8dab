// Package runtime composes the substrates into Skadi's stateful serverless
// runtime (§2.3): a simulated disaggregated cluster with a head service
// (ownership + lineage), a raylet per executable node, the caching layer
// spanning every memory tier, and one control plane — sharded ownership
// directory, placement mesh, gossip liveness — whose centralized form is
// the configuration with a single shard host. It exposes the
// distributed task API — Put/Submit/Get/Wait, actors, gang submission — and
// failure handling: a lost object is repaired from a surviving cached copy
// if one exists and re-derived by lineage re-execution if none does.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skadi/internal/caching"
	"skadi/internal/chaos"
	"skadi/internal/cluster"
	"skadi/internal/dsm"
	"skadi/internal/fabric"
	"skadi/internal/gossip"
	"skadi/internal/idgen"
	"skadi/internal/metrics"
	"skadi/internal/migrate"
	"skadi/internal/objectstore"
	"skadi/internal/ownership"
	"skadi/internal/raylet"
	"skadi/internal/scheduler"
	"skadi/internal/skaderr"
	"skadi/internal/task"
	"skadi/internal/tenancy"
	"skadi/internal/trace"
	"skadi/internal/transport"
)

// DeviceMode selects the hardware generation of §2.3.2.
type DeviceMode int

// Device wiring modes.
const (
	// Gen1 is the CPU-centric model: device raylets run on DPUs and every
	// device message transits the DPU.
	Gen1 DeviceMode = iota
	// Gen2 is the device-centric model: each device runs its own raylet
	// and talks to peers directly.
	Gen2
)

// String returns the mode name.
func (m DeviceMode) String() string {
	if m == Gen2 {
		return "gen2"
	}
	return "gen1"
}

// RecoveryMode turns failure handling (§2.1) on or off.
type RecoveryMode int

// Recovery settings. Which mechanism saves an object is not a setting: it
// follows from what Options.Caching left behind (see restore).
const (
	// RecoverNone surfaces lost objects as errors.
	RecoverNone RecoveryMode = iota
	// Recover repairs a lost object from a surviving cached copy (replica,
	// EC shards, DSM) and re-executes producing tasks for what has none.
	Recover
)

// ClusterSpec sizes the simulated data center.
type ClusterSpec struct {
	// Servers is the number of worker servers (plus one implicit head).
	Servers int
	// ServerSlots is the per-server worker count.
	ServerSlots int
	// ServerMemBytes is the per-server object-store capacity.
	ServerMemBytes int64
	// GPUs and FPGAs are disaggregated device counts.
	GPUs, FPGAs int
	// DeviceSlots and DeviceMemBytes size each device.
	DeviceSlots    int
	DeviceMemBytes int64
	// MemBladeBytes, if positive, adds a disaggregated memory blade.
	MemBladeBytes int64
	// Racks spreads servers across this many racks (default 1).
	Racks int
}

// DefaultClusterSpec returns a small mixed cluster: 4 servers, 2 GPUs,
// 2 FPGAs, and a 1 GiB memory blade.
func DefaultClusterSpec() ClusterSpec {
	return ClusterSpec{
		Servers: 4, ServerSlots: 4, ServerMemBytes: 256 << 20,
		GPUs: 2, FPGAs: 2, DeviceSlots: 2, DeviceMemBytes: 64 << 20,
		MemBladeBytes: 1 << 30, Racks: 2,
	}
}

// Options configures runtime behaviour.
type Options struct {
	// TimeScale scales simulated fabric and kernel delays (0 = accounting
	// only, the test default).
	TimeScale float64
	// Resolution selects pull or push future resolution.
	Resolution raylet.Resolution
	// Policy selects the scheduling policy.
	Policy scheduler.Policy
	// Caching configures the caching layer (reliability mode etc.).
	Caching caching.Config
	// DeviceMode selects Gen-1 or Gen-2 device wiring.
	DeviceMode DeviceMode
	// Recovery turns failure handling on (Recover) or off (the default).
	Recovery RecoveryMode
	// Tenancy configures the multi-tenant control plane (fair share,
	// preemption). The controller stays inert — zero cost on every submit
	// path — until RegisterTenant is called.
	Tenancy tenancy.Options
	// Decentralized spreads the control plane over the workers: every
	// raylet node joins the head on the directory's consistent-hash ring,
	// a saturated home node hands tasks to peers by work stealing, and a
	// background SWIM-style gossip loop detects silent failures. Off, the
	// same plane runs with the head as the ring's only member, no
	// stealing, and liveness changes applied only when the runtime itself
	// kills, restarts or removes a node.
	Decentralized bool
	// GossipInterval is the background failure-detector tick period
	// (default 2ms; the loop runs only when Decentralized is on).
	GossipInterval time.Duration
}

// Runtime is a running Skadi instance.
type Runtime struct {
	Cluster *cluster.Cluster
	Layer   *caching.Layer
	Head    *raylet.Head
	// Sched is the placement engine, a *scheduler.Mesh.
	Sched    scheduler.Placer
	Registry *task.Registry
	// Metrics holds runtime-level gauges: per-node resident bytes, actor
	// counts, and queue depths (GaugeVec families keyed by node), refreshed
	// by SampleNodeGauges and read by the rebalancer and `skadi -trace`.
	Metrics *metrics.Registry
	// Tenancy is the multi-tenant control plane: admission, fair-share
	// slot grants with preemption, and worker/cache-byte quotas. Inert
	// until RegisterTenant.
	Tenancy *tenancy.Controller
	tracer  *trace.Tracer

	opts      Options
	driver    idgen.NodeID
	raylets   map[idgen.NodeID]*raylet.Raylet
	rayletCfg map[idgen.NodeID]raylet.Config
	drv       *raylet.Raylet
	pool      *dsm.Pool
	job       idgen.JobID
	migrator  *migrate.Migrator

	mu   sync.Mutex
	errs map[idgen.ObjectID]error
	// tasks tracks every submitted-but-unfinished task's cancellation
	// control, keyed by task ID; Cancel walks lineage and fires these.
	tasks map[idgen.TaskID]*taskCtl
	// producers indexes the registered tasks a Get/Wait may run itself
	// (taskCtl.helpable) by return ID; see help.
	producers map[idgen.ObjectID]*taskCtl
	actorLoc  map[idgen.ActorID]actorPlacement
	// actorGate pauses task dispatch for an actor mid-migration: submissions
	// park on the channel until the cutover lands, so none are lost.
	actorGate map[idgen.ActorID]chan struct{}
	inflight  sync.WaitGroup
	autoscale autoscaleState
	// retiredExecuted accumulates TasksExecuted from raylets discarded by
	// RestartNode, so TasksExecuted() stays monotonic across crash/restart
	// cycles instead of losing the crashed node's history.
	retiredExecuted int64

	// chaosEng interposes on the transport for fault injection; always
	// present, transparent until a plan is installed. See chaosctl.go.
	chaosEng *chaos.Engine

	// The control plane; decentral.go wires liveness through it. sharded is
	// also Head.Table and mesh is also Sched.
	sharded *ownership.ShardedTable
	mesh    *scheduler.Mesh
	gossip  *gossip.Cluster
	// shardHosts is the set of nodes that join the directory ring while
	// alive: always the head, plus every raylet node when Decentralized.
	// Guarded by mu.
	shardHosts map[idgen.NodeID]bool
	// decentralized is Options.Decentralized, kept for ControlPlaneSample.
	decentralized bool
	gossipStop    chan struct{}
	gossipWG      sync.WaitGroup
	// gossipProbe sends one failure-detector probe over the transport
	// (raylet.GossipProber); gossipReachable composes it with cluster
	// liveness.
	gossipProbe func(from, to idgen.NodeID) bool
}

// Metric names for the cancellation subsystem, read by `skadi -trace` and
// experiment E16.
const (
	MetricTasksCancelled        = "tasks_cancelled"
	MetricWorkersReclaimed      = "workers_reclaimed"
	MetricBytesReclaimed        = "bytes_reclaimed"
	MetricTasksDeadlineExceeded = "tasks_deadline_exceeded"
	// MetricTasksHelped counts tasks run by a Get or Wait caller instead of
	// their own goroutine (see help).
	MetricTasksHelped = "tasks_helped"
)

// taskCtl is the control for one in-flight task: the cancel function
// revokes its dispatch context (interrupting the exec RPC and, over the
// wire, the remote handler), and executing reports whether the task
// currently occupies a worker — the distinction behind the WorkersReclaimed
// counter.
type taskCtl struct {
	spec      *task.Spec
	cancel    context.CancelCauseFunc
	executing atomic.Bool
	// claim is the task's start-once flag. start arms it once ctx, root
	// and pinned are set; whichever of the task's goroutine and a Get/Wait
	// caller moves it from armed to claimed first runs the task (see run).
	claim  atomic.Int32
	ctx    context.Context
	root   *trace.Span
	pinned idgen.NodeID
	// helpable marks a task a Get/Wait caller may run: it has no
	// reference arguments, so running it never parks on a pull, and it is
	// not a gang member, whose members must start together.
	helpable bool
	// recovery marks a lineage re-submission, kept out of tenancy
	// accounting; resubmitted (guarded by Runtime.mu) notes one dropped
	// while this run was registered — see finish.
	recovery, resubmitted bool
}

// taskCtl.claim states after the zero value, unarmed. A gang member stays
// unarmed: SubmitGang runs it.
const (
	armed int32 = iota + 1
	claimed
)

// registerTask tracks a task's control until finish. A task is never
// registered twice: a duplicate — a lineage re-submission racing the end
// of the task's previous run — is dropped and noted on that run.
func (rt *Runtime) registerTask(ctl *taskCtl) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if prev := rt.tasks[ctl.spec.ID]; prev != nil {
		prev.resubmitted = true
		return false
	}
	rt.tasks[ctl.spec.ID] = ctl
	if ctl.helpable {
		for _, ret := range ctl.spec.Returns {
			rt.producers[ret] = ctl
		}
	}
	return true
}

// finish forgets a task whose run ended. A re-submission dropped meanwhile
// is issued now if a return is still Pending: restore claimed it after this
// run committed or failed it, so nobody else will produce it.
func (rt *Runtime) finish(ctl *taskCtl) {
	rt.mu.Lock()
	delete(rt.tasks, ctl.spec.ID)
	if ctl.helpable {
		for _, ret := range ctl.spec.Returns {
			delete(rt.producers, ret)
		}
	}
	redo := ctl.resubmitted
	rt.mu.Unlock()
	if redo && slices.ContainsFunc(ctl.spec.Returns, rt.pending) {
		rt.start(context.Background(), idgen.Nil, ctl.spec, true)
	}
}

// actorPlacement records where an actor lives and what backend it needs,
// so a failed actor can be re-placed on a compatible node.
type actorPlacement struct {
	node    idgen.NodeID
	backend string
}

// locator adapts the caching layer + ownership directory to the
// scheduler's ObjectLocator.
type locator struct {
	layer *caching.Layer
	table ownership.Directory
}

func (l *locator) Locations(id idgen.ObjectID) []idgen.NodeID { return l.layer.Locations(id) }

func (l *locator) Size(id idgen.ObjectID) int64 {
	rec, err := l.table.Get(id)
	if err != nil {
		return 0
	}
	return rec.Size
}

// New builds a cluster from spec and boots a runtime on it.
func New(spec ClusterSpec, opts Options) (*Runtime, error) {
	if spec.Racks < 1 {
		spec.Racks = 1
	}
	c := cluster.New(cluster.Config{TimeScale: opts.TimeScale})
	rt := &Runtime{
		Cluster:   c,
		Registry:  task.NewRegistry(),
		Metrics:   metrics.NewRegistry(),
		tracer:    trace.New(),
		opts:      opts,
		raylets:   make(map[idgen.NodeID]*raylet.Raylet),
		rayletCfg: make(map[idgen.NodeID]raylet.Config),
		errs:      make(map[idgen.ObjectID]error),
		tasks:     make(map[idgen.TaskID]*taskCtl),
		producers: make(map[idgen.ObjectID]*taskCtl),
		actorLoc:  make(map[idgen.ActorID]actorPlacement),
		actorGate: make(map[idgen.ActorID]chan struct{}),
		job:       idgen.Next(),

		decentralized: opts.Decentralized,
	}
	rt.initChaos()
	rt.Tenancy = tenancy.NewController(opts.Tenancy, rt.Metrics)

	layer, err := caching.NewLayer(c.Fabric, opts.Caching)
	if err != nil {
		return nil, err
	}
	rt.Layer = layer
	// Cache-byte quotas gate the put path; evictions under per-tenant
	// pressure free the object cluster-wide (ownership + residency +
	// lineage) so the chaos residency invariant keeps holding.
	layer.SetQuota(rt.Tenancy)
	rt.Tenancy.SetEvictor(func(id idgen.ObjectID) { rt.Free(id) })

	// Head node: hosts the ownership service, the driver, and a driver-side
	// raylet for result fetching. It is not a scheduling target.
	headNode := c.AddServer("head", 0, 2, 1<<30)
	rt.driver = headNode.ID
	layer.AddStore(headNode.ID, caching.HostDRAM, objectstore.New(1<<30, nil))
	// The head is a permanent ring member, so the ring is never empty:
	// worker crashes hand their shards somewhere, and a cluster whose only
	// shard host is the head still resolves every key.
	rt.sharded = ownership.NewSharded(0)
	rt.sharded.AddMember(headNode.ID)
	rt.shardHosts = map[idgen.NodeID]bool{headNode.ID: true}
	rt.Head = raylet.NewHead(headNode.ID, rt.sharded)
	rt.gossipProbe = raylet.GossipProber(c.Transport, 0)
	rt.gossip = gossip.New(gossip.Config{}, rt.gossipReachable)
	rt.gossip.Join(headNode.ID)
	rt.gossip.Drain()
	// Residency guard: a commit naming a location must be backed by bytes —
	// either in that node's store or, for the commit itself, redundantly
	// elsewhere (DSM, EC, another verified replica); a claimed extra copy
	// (own.addloc) must be in that store. Rejects messages from nodes wiped
	// between their local write and the message landing at the head (the
	// commit-vs-crash race chaos kills hit).
	rt.Head.Table.SetCommitGuard(func(loc idgen.NodeID, id idgen.ObjectID, extra bool) bool {
		if st := layer.Store(loc); st != nil && st.Contains(id) {
			return true
		}
		return !extra && layer.RecoverableWithout(loc, id)
	})

	loc := &locator{layer: layer, table: rt.sharded}
	if opts.Decentralized {
		rt.mesh = scheduler.NewMesh(opts.Policy, loc)
	} else {
		rt.mesh = scheduler.New(opts.Policy, loc)
	}
	rt.Sched = rt.mesh
	// Worker quotas are enforced twice: at the tenancy slot gate (the
	// primary, fair-share path) and here at placement, covering gang and
	// recovery placements that bypass the gate.
	rt.Sched.SetGate(func(spec *task.Spec) error {
		return rt.Tenancy.WorkerQuota(spec.Tenant)
	})

	// Memory blade first so stores can spill to it.
	if spec.MemBladeBytes > 0 {
		_, blade := c.AddMemBlade("mem", 0, spec.MemBladeBytes)
		rt.pool = dsm.New(c.Fabric, blade.ID, spec.MemBladeBytes)
		layer.SetDSM(rt.pool)
	}

	// Worker servers.
	for i := 0; i < spec.Servers; i++ {
		node := c.AddServer(fmt.Sprintf("server-%d", i), i%spec.Racks, spec.ServerSlots, spec.ServerMemBytes)
		if err := rt.addRaylet(node, "cpu", spec.ServerSlots, idgen.Nil); err != nil {
			return nil, err
		}
	}

	// Disaggregated devices.
	addDevices := func(n int, kind cluster.NodeKind, name string) error {
		if n <= 0 {
			return nil
		}
		switch opts.DeviceMode {
		case Gen2:
			devices := c.AddDirectDevices(name, 0, 1, n, kind, spec.DeviceSlots, spec.DeviceMemBytes)
			for _, d := range devices {
				if err := rt.addRaylet(d, kind.Backend(), spec.DeviceSlots, idgen.Nil); err != nil {
					return err
				}
			}
		default: // Gen1
			dpu, devices := c.AddDeviceGroup(name, 0, -1, n, kind, spec.DeviceSlots, spec.DeviceMemBytes)
			for _, d := range devices {
				if err := rt.addRaylet(d, kind.Backend(), spec.DeviceSlots, dpu.ID); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := addDevices(spec.GPUs, cluster.GPUDevice, "gpu"); err != nil {
		return nil, err
	}
	if err := addDevices(spec.FPGAs, cluster.FPGADevice, "fpga"); err != nil {
		return nil, err
	}

	// Driver-side raylet on the head node, multiplexed with the head
	// service on one transport endpoint. Not a scheduling target.
	drvCfg := raylet.Config{
		Node: headNode.ID, Backend: "cpu", Slots: 2,
		Head: headNode.ID, Transport: c.Transport, Fabric: c.Fabric,
		Layer: layer, Registry: rt.Registry, Resolution: opts.Resolution,
		TimeScale: opts.TimeScale,
		Directory: rt.sharded, OwnerRouter: rt.sharded.OwnerOf,
	}
	drv, err := raylet.New(drvCfg)
	if err != nil {
		return nil, err
	}
	rt.drv = drv
	headHandler := rt.Head.Handler()
	drvHandler := drv.Handler()
	err = c.Transport.Listen(headNode.ID, func(ctx context.Context, from idgen.NodeID, kind string, payload []byte) ([]byte, error) {
		if strings.HasPrefix(kind, "own.") || strings.HasPrefix(kind, "actor.") {
			return headHandler(ctx, from, kind, payload)
		}
		return drvHandler(ctx, from, kind, payload)
	})
	if err != nil {
		return nil, err
	}
	rt.migrator = migrate.New(migrate.Config{
		Self: headNode.ID, Head: headNode.ID, Transport: c.Transport,
	})
	if opts.Decentralized {
		rt.startGossipPump(opts.GossipInterval)
	}
	return rt, nil
}

// addRaylet creates, starts, and registers a raylet for a node.
func (rt *Runtime) addRaylet(node *cluster.Node, backend string, slots int, dpuProxy idgen.NodeID) error {
	rt.Layer.AddStore(node.ID, tierFor(node.Kind), objectstore.New(node.Res.MemBytes, nil))
	cfg := raylet.Config{
		Node: node.ID, Backend: backend, Slots: slots,
		Head: rt.driver, Transport: rt.Cluster.Transport, Fabric: rt.Cluster.Fabric,
		Layer: rt.Layer, Registry: rt.Registry, Resolution: rt.opts.Resolution,
		DPUProxy: dpuProxy, TimeScale: rt.opts.TimeScale,
		// The raylet serves whatever directory shard the ring gives it and
		// routes ownership RPCs to whichever node the ring says owns the key.
		Directory: rt.sharded, OwnerRouter: rt.sharded.OwnerOf,
	}
	rl, err := raylet.New(cfg)
	if err != nil {
		return err
	}
	if err := rl.Start(); err != nil {
		return err
	}
	rt.mu.Lock()
	rt.raylets[node.ID] = rl
	rt.rayletCfg[node.ID] = cfg
	if rt.opts.Decentralized {
		rt.shardHosts[node.ID] = true
	}
	rt.mu.Unlock()
	rt.Sched.AddNode(scheduler.NodeInfo{ID: node.ID, Backend: backend, Slots: slots})
	// Joining gossip makes the node's liveness tracked; a shard host's
	// Alive event also joins the ring, pulling its key range over from the
	// existing members (whole-entry handoff: waiters and forwards move with
	// the records).
	rt.noteNodeAlive(node.ID)
	// The node's slots and store bytes join the capacity pool the
	// fair-share controller divides among tenants.
	rt.Tenancy.AddCapacity(slots, node.Res.MemBytes)
	return nil
}

func tierFor(kind cluster.NodeKind) caching.Tier {
	switch kind {
	case cluster.GPUDevice, cluster.FPGADevice:
		return caching.DeviceHBM
	case cluster.MemBlade:
		return caching.DisaggMem
	default:
		return caching.HostDRAM
	}
}

// Driver returns the driver/head node ID.
func (rt *Runtime) Driver() idgen.NodeID { return rt.driver }

// RegisterTenant activates the multi-tenant control plane for one tenant:
// subsequent submits tagged with the tenant (tenancy.ContextWith or
// Spec.Tenant) are admission-controlled, fair-share scheduled, and bounded
// by the config's quotas.
func (rt *Runtime) RegisterTenant(cfg tenancy.Config) error {
	return rt.Tenancy.RegisterTenant(cfg)
}

// Tracer returns the runtime's span store. Every submitted task records a
// trace under its task ID: submit → sched-pick → exec/pull-stall/fetch →
// cache puts and fabric transfers, ready for critical-path analysis.
func (rt *Runtime) Tracer() *trace.Tracer { return rt.tracer }

// traceCtx opens the root span of a task's trace, keyed by the task ID. The
// parent context carries the submitter's deadline and cancellation, which
// thereby bound every downstream hop of the task.
func (rt *Runtime) traceCtx(parent context.Context, spec *task.Spec) (context.Context, *trace.Span) {
	ctx, root := rt.tracer.StartRoot(parent, spec.ID, trace.KindSubmit, rt.driver)
	root.SetAttr("fn", spec.Fn)
	return ctx, root
}

// Job returns the runtime's default job ID.
func (rt *Runtime) Job() idgen.JobID { return rt.job }

// Raylet returns the raylet running on a node, or nil.
func (rt *Runtime) Raylet(node idgen.NodeID) *raylet.Raylet {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.raylets[node]
}

// Raylets returns every worker raylet, in cluster insertion order.
func (rt *Runtime) Raylets() []*raylet.Raylet {
	nodes := rt.Cluster.Nodes()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]*raylet.Raylet, 0, len(rt.raylets))
	for _, n := range nodes {
		if rl, ok := rt.raylets[n.ID]; ok {
			out = append(out, rl)
		}
	}
	return out
}

// TasksExecuted returns the cluster-wide count of completed task
// executions, including those performed by raylets since discarded by
// crash/restart cycles. Executions beyond one per submitted task are
// recovery work: dispatch retries and lineage replays.
func (rt *Runtime) TasksExecuted() int64 {
	rt.mu.Lock()
	total := rt.retiredExecuted
	rt.mu.Unlock()
	for _, rl := range rt.Raylets() {
		total += rl.Stats().TasksExecuted
	}
	return total
}

// Put stores driver-provided input data and returns its reference.
func (rt *Runtime) Put(data []byte, format string) (idgen.ObjectID, error) {
	return rt.PutAt(rt.driver, data, format)
}

// PutAt stores input data onto a specific node — experiments use it to
// control initial shard placement. Data placed off-driver is charged to
// the fabric.
func (rt *Runtime) PutAt(node idgen.NodeID, data []byte, format string) (idgen.ObjectID, error) {
	id := idgen.Next()
	if node != rt.driver {
		// Bulk placement streams in pipelined chunks: one latency plus the
		// bandwidth cost, however large the input shard.
		rt.Cluster.Fabric.TransferData(rt.driver, node, data)
	}
	if err := rt.Layer.Put(node, id, data, format); err != nil {
		return idgen.Nil, err
	}
	if err := rt.Head.Table.CreatePending(id, rt.driver, idgen.Nil); err != nil {
		return idgen.Nil, err
	}
	if _, err := rt.Head.Table.MarkReady(id, int64(len(data)), node, idgen.Nil, ""); err != nil {
		return idgen.Nil, err
	}
	return id, nil
}

// Submit schedules a task asynchronously and returns its result references
// immediately (futures). Errors surface through Get on the returns.
func (rt *Runtime) Submit(spec *task.Spec) []idgen.ObjectID {
	return rt.SubmitCtx(context.Background(), spec)
}

// SubmitCtx is Submit with an end-to-end context: a deadline or cancellation
// on ctx bounds the whole task — scheduling, argument pulls, the kernel, and
// commits — failing the task's futures with skaderr.DeadlineExceeded or
// skaderr.Cancelled.
func (rt *Runtime) SubmitCtx(ctx context.Context, spec *task.Spec) []idgen.ObjectID {
	return rt.submitAsync(ctx, idgen.Nil, spec)
}

// SubmitTo schedules a task on an explicit node, bypassing the scheduler —
// the physical graph planner uses it to realize its placements.
func (rt *Runtime) SubmitTo(node idgen.NodeID, spec *task.Spec) []idgen.ObjectID {
	return rt.SubmitToCtx(context.Background(), node, spec)
}

// SubmitToCtx is SubmitTo with an end-to-end context (see SubmitCtx).
func (rt *Runtime) SubmitToCtx(ctx context.Context, node idgen.NodeID, spec *task.Spec) []idgen.ObjectID {
	return rt.submitAsync(ctx, node, spec)
}

// submitAsync records, admits and starts one task.
func (rt *Runtime) submitAsync(ctx context.Context, pinned idgen.NodeID, spec *task.Spec) []idgen.ObjectID {
	rt.prepare(spec)
	// Tenant attribution: an explicit Spec.Tenant wins; otherwise the
	// submit context's tenant tags the spec, so attribution survives
	// re-dispatch and rides the wire with the exec RPC.
	if spec.Tenant == "" {
		spec.Tenant, _ = tenancy.FromContext(ctx)
	} else if t, _ := tenancy.FromContext(ctx); t != spec.Tenant {
		ctx = tenancy.ContextWith(ctx, spec.Tenant)
	}
	// Admission control: an over-bounds submit blocks here (backpressure)
	// or fails its futures with a typed skaderr.ResourceExhausted before
	// any dispatch machinery spins up — the pending queue stays bounded.
	if err := rt.Tenancy.Admit(ctx, spec.Tenant); err != nil {
		rt.failTask(spec, err)
		return spec.Returns
	}
	rt.start(ctx, pinned, spec, false)
	return spec.Returns
}

// start registers, traces, and dispatches one task. Submit stays
// asynchronous: the task gets its own goroutine, which runs it unless a
// Get or Wait caller claimed it first (see help). A recovery run is a
// lineage re-submission of a recorded task: it was neither admitted nor
// concludes tenancy accounting, and it is dropped if the task is still
// registered (see registerTask).
func (rt *Runtime) start(ctx context.Context, pinned idgen.NodeID, spec *task.Spec, recovery bool) {
	tctx, cancel := context.WithCancelCause(ctx)
	ctl := &taskCtl{
		spec: spec, cancel: cancel, pinned: pinned, recovery: recovery,
		helpable: !slices.ContainsFunc(spec.Args, func(a task.Arg) bool { return a.IsRef }),
	}
	if !rt.registerTask(ctl) {
		cancel(nil)
		return
	}
	if recovery {
		rt.Metrics.Counter(MetricLineageRecoveries).Inc()
	}
	rt.inflight.Add(1)
	rt.autoscale.pending.Add(1)
	ctl.ctx, ctl.root = rt.traceCtx(tctx, spec)
	ctl.claim.Store(armed)
	go rt.run(ctl)
}

// run claims an armed task and runs it to the end: dispatch, tenancy
// accounting, and the bookkeeping Drain, Pending and Cancel read. It
// reports false, doing nothing, if the task is claimed already or not
// armed yet.
func (rt *Runtime) run(ctl *taskCtl) bool {
	if !ctl.claim.CompareAndSwap(armed, claimed) {
		return false
	}
	defer rt.inflight.Done()
	defer rt.autoscale.pending.Add(-1)
	defer ctl.root.End()
	defer ctl.cancel(nil)
	defer rt.finish(ctl)
	dequeued, ok := rt.dispatch(ctl.ctx, ctl, ctl.pinned)
	if !ctl.recovery {
		rt.Tenancy.TaskDone(ctl.spec.Tenant, dequeued, ok)
	}
	return true
}

// SubmitGang atomically places a gang of tasks (SPMD subgraph) and runs
// them; it retries placement until capacity frees up or ctx expires.
func (rt *Runtime) SubmitGang(ctx context.Context, specs []*task.Spec) ([][]idgen.ObjectID, error) {
	gangTenant, _ := tenancy.FromContext(ctx)
	for _, s := range specs {
		if s.Tenant == "" {
			s.Tenant = gangTenant
		}
		rt.prepare(s)
	}
	// Gang members count toward the autoscaler's pending-task signal just
	// like Submit/SubmitTo tasks, so SPMD bursts trigger scale-up.
	rt.autoscale.pending.Add(int64(len(specs)))
	var placements []idgen.NodeID
	for {
		// Obtain the capacity watch BEFORE attempting placement: capacity
		// freed between a failed attempt and the wait would otherwise be a
		// lost wakeup. No polling floor — the scheduler wakes us when a task
		// finishes, a node revives, or a node is added.
		watch := rt.Sched.CapacityWatch()
		var err error
		placements, err = rt.Sched.PickGang(specs)
		if err == nil {
			break
		}
		if !errors.Is(err, scheduler.ErrNoCapacity) {
			rt.autoscale.pending.Add(-int64(len(specs)))
			return nil, err
		}
		select {
		case <-ctx.Done():
			rt.autoscale.pending.Add(-int64(len(specs)))
			return nil, skaderr.Mark(skaderr.CodeOf(ctx.Err()), ctx.Err())
		case <-watch:
		}
	}
	refs := make([][]idgen.ObjectID, len(specs))
	for i, s := range specs {
		refs[i] = s.Returns
		// Gang members bypass tenant admission (gating individual members
		// could deadlock a gang against itself — PickGang already reserved
		// their slots atomically) but are tracked so per-tenant accounting
		// and dominant shares include gang slot occupancy.
		rt.Tenancy.Track(s.Tenant)
		rt.inflight.Add(1)
		gctx, cancel := context.WithCancelCause(ctx)
		ctl := &taskCtl{spec: s, cancel: cancel}
		rt.registerTask(ctl)
		tctx, root := rt.traceCtx(gctx, s)
		root.SetAttr("gang", s.Gang)
		go func(i int, s *task.Spec, tctx context.Context, root *trace.Span, ctl *taskCtl) {
			defer rt.inflight.Done()
			defer rt.autoscale.pending.Add(-1)
			defer root.End()
			defer ctl.cancel(nil)
			defer rt.finish(ctl)
			rt.Tenancy.GangStarted(s.Tenant)
			ctl.executing.Store(true)
			err := rt.execOn(tctx, placements[i], s)
			ctl.executing.Store(false)
			rt.Sched.Finished(placements[i])
			rt.Tenancy.GangFinished(s.Tenant)
			if err != nil {
				if cause := context.Cause(tctx); cause != nil {
					err = cause
				}
				rt.failTask(s, err)
			}
			rt.Tenancy.TaskDone(s.Tenant, true, err == nil)
		}(i, s, tctx, root, ctl)
	}
	return refs, nil
}

// prepare registers a spec's returns and lineage before dispatch.
func (rt *Runtime) prepare(spec *task.Spec) {
	if spec.Job.IsNil() {
		spec.Job = rt.job
	}
	spec.Owner = rt.driver
	for _, ret := range spec.Returns {
		// Ignore ErrExists: a spec submitted again keeps its records.
		_ = rt.Head.Table.CreatePending(ret, rt.driver, spec.ID)
	}
	rt.Head.Lineage.Record(spec)
}

// dispatch picks a node (unless pinned) and executes the task until it
// succeeds, fails terminally or a budget runs out. maxAttempts counts
// transient exec errors: the task ran on a live node and failed with a
// retryable code. maxReplaces bounds the runs that never had
// a fair chance — the node or an argument's last holder died under it, its
// actor migrated away, or the fair-share controller preempted it. A
// recovery run skips the tenancy slot gate. dispatch reports whether the
// task left the tenancy pending queue (took a slot grant it did not give
// back) and whether it succeeded; the caller concludes per-tenant
// accounting with both.
func (rt *Runtime) dispatch(ctx context.Context, ctl *taskCtl, pinned idgen.NodeID) (dequeued, ok bool) {
	const maxAttempts, maxReplaces = 3, 64
	spec := ctl.spec
	var lastErr error
	for attempts, replaces := 0, 0; attempts < maxAttempts && replaces <= maxReplaces; {
		// Cancellation checkpoint between attempts: a revoked task stops
		// before taking a node, and the recorded error carries the cause
		// (skaderr.Cancelled or DeadlineExceeded), not a transport artifact.
		if cause := context.Cause(ctx); cause != nil {
			rt.failTask(spec, cause)
			return dequeued, false
		}
		// Fair-share slot gate: blocks until this tenant may occupy one
		// more worker (weighted dominant share, priority bands, MaxWorkers
		// quota). A nil grant means tenancy is inert or this is a recovery
		// run. The grant's cancel hook is what makes the attempt preemptible.
		var grant *tenancy.Grant
		var err error
		if !ctl.recovery {
			if grant, err = rt.Tenancy.Acquire(ctx, spec.Tenant, spec.ID); err != nil {
				rt.failTask(spec, err)
				return dequeued, false
			}
		}
		attemptCtx, attemptCancel := ctx, context.CancelCauseFunc(nil)
		if grant != nil {
			dequeued = true
			attemptCtx, attemptCancel = context.WithCancelCause(ctx)
			grant.BindCancel(func(cause error) { attemptCancel(cause) })
		}
		// endAttempt releases the slot AFTER the scheduler forgets the
		// in-flight task, so a preemption-freed node is the least-loaded
		// candidate when the woken waiter places its task.
		endAttempt := func(node idgen.NodeID) {
			if !node.IsNil() {
				rt.Sched.Finished(node)
			}
			if grant != nil {
				grant.Release()
			}
			if attemptCancel != nil {
				attemptCancel(nil)
			}
		}
		node := pinned
		if node.IsNil() && !spec.Actor.IsNil() {
			rt.waitActorGate(attemptCtx, spec.Actor)
			rt.mu.Lock()
			node = rt.actorLoc[spec.Actor].node
			rt.mu.Unlock()
		}
		if !node.IsNil() {
			rt.Sched.Started(node)
		} else if node, err = rt.Sched.PickCtx(attemptCtx, spec); err != nil {
			endAttempt(idgen.Nil)
			rt.failTask(spec, err)
			return dequeued, false
		}
		// A re-submission is redundant if an output it would produce is
		// already live: the run it replaces was not lost after all.
		if ctl.recovery && attempts+replaces == 0 && slices.ContainsFunc(spec.Returns, rt.live) {
			rt.Metrics.Counter(MetricRedundantRuns).Inc()
		}
		ctl.executing.Store(true)
		err = rt.execOn(attemptCtx, node, spec)
		ctl.executing.Store(false)
		preempted := grant != nil &&
			skaderr.CodeOf(context.Cause(attemptCtx)) == skaderr.Preempted
		endAttempt(node)
		if err == nil {
			return dequeued, true
		}
		if cause := context.Cause(ctx); cause != nil {
			rt.failTask(spec, cause)
			return dequeued, false
		}
		// The error came after the commit: every output is live, so done.
		if len(spec.Returns) > 0 && !slices.ContainsFunc(spec.Returns, func(id idgen.ObjectID) bool { return !rt.live(id) }) {
			return dequeued, true
		}
		lastErr = err
		var moved *raylet.ActorMigratedError
		undelivered, dead := errors.Is(err, transport.ErrUnreachable), !rt.nodeAlive(node)
		switch {
		case preempted:
			// The fair-share controller revoked this attempt for an
			// under-share tenant: replay it through the fair queue. The
			// kernel's partial work is discarded, its inputs are intact, and
			// the next grant re-executes from the spec.
			replaces++
		case errors.As(err, &moved) && pinned.IsNil():
			// The actor live-migrated while this task was queued; follow
			// the forward and re-dispatch.
			rt.mu.Lock()
			p := rt.actorLoc[spec.Actor]
			p.node = moved.To
			rt.actorLoc[spec.Actor] = p
			rt.mu.Unlock()
			replaces++
		case pinned.IsNil() && (undelivered ||
			spec.Actor.IsNil() && (dead || skaderr.CodeOf(err) == skaderr.Unavailable)):
			// The node died under the attempt — the exec RPC never arrived,
			// or it did and the node's store, fabric endpoint or commit went
			// away mid-task — or every holder of an argument did (typed
			// Unavailable): re-place. An actor task, which may have mutated
			// state, is re-placed only when undelivered: replaceActors
			// re-pins the actor onto a healthy node (a no-op if KillNode
			// already did) and the next attempt re-resolves its location.
			if undelivered || dead {
				rt.Sched.SetAlive(node, false)
			}
			if !spec.Actor.IsNil() {
				rt.replaceActors(node)
			}
			replaces++
		case spec.Actor.IsNil() && !dead && skaderr.Retryable(err):
			// A transient failure on a live node: an argument or the commit
			// may succeed on the next try.
			attempts++
		default:
			// A terminal error (the kernel, or an argument restore judged
			// Lost), a pinned node that died, or an actor task's kernel —
			// running that again could apply its state change twice.
			rt.failTask(spec, err)
			return dequeued, false
		}
		// Between attempts the task gave its slot grant back and contends
		// in the tenancy pending queue again.
		if !ctl.recovery {
			rt.Tenancy.Requeue(spec.Tenant)
		}
		dequeued = false
	}
	rt.failTask(spec, lastErr)
	return dequeued, false
}

// execOn performs the exec RPC against one raylet.
func (rt *Runtime) execOn(ctx context.Context, node idgen.NodeID, spec *task.Spec) error {
	payload := transport.MustEncode(raylet.ExecRequest{Spec: *spec})
	respB, err := rt.Cluster.Transport.Call(ctx, rt.driver, node, raylet.KindExec, payload)
	if err != nil {
		return err
	}
	if !spec.Actor.IsNil() && len(respB) > 0 {
		var resp raylet.ExecResponse
		if derr := transport.Decode(respB, &resp); derr == nil && !resp.ActorMovedTo.IsNil() {
			return &raylet.ActorMigratedError{Actor: spec.Actor, To: resp.ActorMovedTo}
		}
	}
	return nil
}

// waitActorGate blocks while the actor has a migration gate up, so no
// submission races a cutover.
func (rt *Runtime) waitActorGate(ctx context.Context, actor idgen.ActorID) {
	for {
		rt.mu.Lock()
		gate := rt.actorGate[actor]
		rt.mu.Unlock()
		if gate == nil {
			return
		}
		select {
		case <-gate:
		case <-ctx.Done():
			return
		}
	}
}

// failTask marks every return of a failed task lost and records the error.
// The error is recorded BEFORE MarkLost wakes any waiter, so a Get released
// by the loss always sees the typed failure, never a bare "lost".
func (rt *Runtime) failTask(spec *task.Spec, err error) {
	err = skaderr.Coerce(err)
	if skaderr.CodeOf(err) == skaderr.DeadlineExceeded {
		rt.Metrics.Counter(MetricTasksDeadlineExceeded).Inc()
	}
	rt.mu.Lock()
	for _, ret := range spec.Returns {
		rt.errs[ret] = fmt.Errorf("task %s (%s): %w", spec.ID.Short(), spec.Fn, err)
	}
	rt.mu.Unlock()
	for _, ret := range spec.Returns {
		_ = rt.Head.Table.MarkLost(ret)
	}
}

// taskErr returns the recorded failure for a reference, if any.
func (rt *Runtime) taskErr(id idgen.ObjectID) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.errs[id]
}

// Get blocks until the referenced object is ready and returns its bytes at
// the driver. If the object's producer has not started yet and may be
// helped (see help), Get runs it in the calling goroutine first. An object
// whose last holder died is waited for like a pending one. An object found
// Lost — given up, or its task failed with a retryable error — is put to
// restore once, and waited for again if that repaired it or re-submitted
// its producer, before Get reports failure. A terminal failure (see
// terminalFailure) is reported as recorded.
func (rt *Runtime) Get(ctx context.Context, id idgen.ObjectID) ([]byte, error) {
	err := rt.waitReady(ctx, id)
	if errors.Is(err, ownership.ErrObjectLost) && !rt.terminalFailure(id) {
		if lost, rerr := rt.restore([]idgen.ObjectID{id}, true); len(lost) == 0 {
			err = rt.waitReady(ctx, id)
		} else if rerr != nil {
			err = fmt.Errorf("%w (recovery also failed: %v)", err, rerr)
		}
	}
	if err != nil {
		if terr := rt.taskErr(id); terr != nil {
			// The recorded task error is the primary failure: keep it on the
			// %w chain so errors.Is sees its code; the wait error is context.
			return nil, fmt.Errorf("%w (wait: %v)", terr, err)
		}
		return nil, err
	}
	return rt.drv.FetchLocal(ctx, id)
}

// waitReady is help, then WaitReady on the ownership directory.
func (rt *Runtime) waitReady(ctx context.Context, id idgen.ObjectID) error {
	rt.help(ctx, id)
	return rt.Head.Table.WaitReady(ctx, id)
}

// help runs id's producer in the calling goroutine if it is registered,
// helpable (value arguments only, not a gang member) and not started yet:
// the caller would park until it finishes anyway, and running it here saves
// the two cross-thread wake-ups of the task's goroutine and of the parked
// caller. A caller whose ctx can be cancelled or can expire never helps, so
// it returns on time instead of sitting inside someone's kernel.
func (rt *Runtime) help(ctx context.Context, id idgen.ObjectID) {
	if ctx.Done() != nil {
		return
	}
	rt.mu.Lock()
	ctl := rt.producers[id]
	rt.mu.Unlock()
	if ctl != nil && rt.run(ctl) {
		rt.Metrics.Counter(MetricTasksHelped).Inc()
	}
}

// terminalFailure reports whether an object's recorded error is terminal: a
// deliberate revocation (cancel or deadline) or a failure no retry can
// change (skaderr.Retryable is false, e.g. the kernel's own error). Neither
// is re-derived: re-executing revoked work would defeat the cancellation,
// and re-running a failed kernel fails it again.
func (rt *Runtime) terminalFailure(id idgen.ObjectID) bool {
	err := rt.taskErr(id)
	return err != nil && !skaderr.Retryable(err)
}

// Wait blocks until at least n of the references are ready (or failed) and
// returns the ready ones. When every reference is required it helps their
// producers (see help) and parks on each in turn.
func (rt *Runtime) Wait(ctx context.Context, ids []idgen.ObjectID, n int) ([]idgen.ObjectID, error) {
	if n >= len(ids) {
		return rt.waitAll(ctx, ids)
	}
	// Waiters run under a context canceled when Wait returns, so waiters
	// for not-yet-ready objects do not outlive the call (goroutine leak).
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		id  idgen.ObjectID
		err error
	}
	ch := make(chan result, len(ids))
	for _, id := range ids {
		go func(id idgen.ObjectID) {
			ch <- result{id, rt.Head.Table.WaitReady(wctx, id)}
		}(id)
	}
	var ready []idgen.ObjectID
	for i := 0; i < len(ids) && len(ready) < n; i++ {
		select {
		case res := <-ch:
			if res.err == nil {
				ready = append(ready, res.id)
			}
		case <-ctx.Done():
			return ready, ctx.Err()
		}
	}
	if len(ready) < n {
		return ready, fmt.Errorf("runtime: only %d of %d objects became ready", len(ready), n)
	}
	return ready, nil
}

// waitAll is Wait with every reference required.
func (rt *Runtime) waitAll(ctx context.Context, ids []idgen.ObjectID) ([]idgen.ObjectID, error) {
	for _, id := range ids {
		rt.help(ctx, id)
	}
	var ready []idgen.ObjectID
	for _, id := range ids {
		if err := rt.Head.Table.WaitReady(ctx, id); err == nil {
			ready = append(ready, id)
		} else if ctx.Err() != nil {
			return ready, ctx.Err()
		}
	}
	if len(ready) < len(ids) {
		return ready, fmt.Errorf("runtime: only %d of %d objects became ready", len(ready), len(ids))
	}
	return ready, nil
}

// Drain blocks until every submitted task has finished dispatching.
func (rt *Runtime) Drain() { rt.inflight.Wait() }

// CreateActor places a stateful actor on a node matching the backend and
// returns its ID. All tasks with this actor ID run serially on that node
// against persistent state.
func (rt *Runtime) CreateActor(backend string) (idgen.ActorID, error) {
	probe := task.NewSpec(rt.job, "", nil, 0)
	probe.Backend = backend
	node, err := rt.Sched.Pick(probe)
	if err != nil {
		return idgen.Nil, err
	}
	rt.Sched.Finished(node)
	actor := idgen.Next()
	rt.mu.Lock()
	rt.actorLoc[actor] = actorPlacement{node: node, backend: backend}
	rt.mu.Unlock()
	return actor, nil
}

// replaceActors re-pins actors from a dead node onto healthy nodes. Their
// next task restores the last checkpoint from the head, so state survives
// up to the failure window of one task.
func (rt *Runtime) replaceActors(dead idgen.NodeID) {
	rt.mu.Lock()
	orphans := make(map[idgen.ActorID]string)
	for actor, p := range rt.actorLoc {
		if p.node == dead {
			orphans[actor] = p.backend
		}
	}
	rt.mu.Unlock()
	for actor, backend := range orphans {
		probe := task.NewSpec(rt.job, "", nil, 0)
		probe.Backend = backend
		node, err := rt.Sched.Pick(probe)
		if err != nil {
			continue // no compatible node; the actor stays orphaned
		}
		rt.Sched.Finished(node)
		rt.mu.Lock()
		rt.actorLoc[actor] = actorPlacement{node: node, backend: backend}
		rt.mu.Unlock()
	}
}

// ActorNode returns the node an actor is pinned to.
func (rt *Runtime) ActorNode(actor idgen.ActorID) (idgen.NodeID, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	p, ok := rt.actorLoc[actor]
	return p.node, ok
}

// KillNode simulates a node failure: the node drops off the transport, its
// store contents are lost, and every object that thereby lost its last
// recorded copy is settled by restore before KillNode returns. It returns
// the object IDs restore judged Lost.
func (rt *Runtime) KillNode(node idgen.NodeID) []idgen.ObjectID {
	// Dead first, so a task failing on the teardown below finds a dead node
	// and is re-placed. Then route through the chaos engine: the crash lands
	// in the episode journal and the fabric endpoint is unregistered, so
	// in-flight chunked transfers touching this node fail with a typed
	// Unavailable instead of silently completing against a dead peer.
	rt.Cluster.Kill(node)
	rt.chaosEng.CrashNode(node)
	// Confirm the death in gossip (the crash is known, not suspected): the
	// event handler withdraws the node from scheduling and hands any
	// directory shard it hosted to the surviving ring members before
	// locations are scrubbed.
	rt.noteNodeDead(node)
	if store := rt.Layer.Store(node); store != nil {
		store.Clear()
	}
	rt.Layer.DropNode(node)
	rt.replaceActors(node)
	lost, _ := rt.restore(rt.Head.Table.RemoveNodeLocations(node), true)
	return lost
}

// nodeAlive reports whether the cluster knows the node and it is up.
func (rt *Runtime) nodeAlive(node idgen.NodeID) bool {
	n := rt.Cluster.Node(node)
	return n != nil && n.Alive()
}

// holds reports whether node is up and its store has the bytes of id.
func (rt *Runtime) holds(node idgen.NodeID, id idgen.ObjectID) bool {
	st := rt.Layer.Store(node)
	return rt.nodeAlive(node) && st != nil && st.Contains(id)
}

// live reports whether id's record is Ready with a live holder that has the
// bytes; a Ready record can name a holder that died since its last scrub.
func (rt *Runtime) live(id idgen.ObjectID) bool {
	rec, err := rt.Head.Table.Get(id)
	return err == nil && rec.State == ownership.Ready &&
		slices.ContainsFunc(rec.Locations, func(loc idgen.NodeID) bool { return rt.holds(loc, id) })
}

// readable reports whether id can be read now: it is live, or the caching
// layer still serves a copy (replica, EC shards, DSM) and the record is
// repaired from it onto the driver — never for an object whose task failed
// terminally, which would resurrect work the user cancelled or a result
// the kernel never produced.
func (rt *Runtime) readable(id idgen.ObjectID) bool {
	if rt.live(id) {
		return true
	}
	if rt.terminalFailure(id) {
		return false
	}
	data, format, err := rt.Layer.Get(rt.driver, id)
	if err != nil {
		return false
	}
	if store := rt.Layer.Store(rt.driver); store != nil {
		_ = store.Put(id, data, format)
	}
	_, err = rt.Head.Table.MarkReady(id, int64(len(data)), rt.driver, idgen.Nil, "")
	return err == nil
}

// pending reports whether id's record is Pending: the value will arrive.
func (rt *Runtime) pending(id idgen.ObjectID) bool {
	rec, err := rt.Head.Table.Get(id)
	return err == nil && rec.State == ownership.Pending
}

// restore is the one judge of objects that lost their last copy (orphaned,
// or found Lost): §2.1's two mechanisms as an order. Each id is settled —
// Ready if a copy is readable, Pending if its producer is re-submitted,
// else Lost; with rederive false (a drained node's dead weight), Lost
// unlooked. A producer whose recorded failure is terminal (see
// terminalFailure) is never re-submitted: its outputs are Lost. Lineage asks the same of every argument: one readable or
// Pending will arrive, the rest are re-derived too. Every planned return
// is claimed Pending (Settle, a compare-and-set: concurrent restores
// re-submit a producer once) before its producer starts through dispatch;
// restore waits for none. It returns the ids judged Lost and the first
// lineage error.
func (rt *Runtime) restore(ids []idgen.ObjectID, rederive bool) (lost []idgen.ObjectID, err error) {
	if rt.opts.Recovery == Recover && rederive {
		available := func(id idgen.ObjectID) bool { return rt.pending(id) || rt.readable(id) }
		var plan []*task.Spec
		planned := make(map[idgen.TaskID]bool)
		for _, id := range ids {
			// One plan per id: an object with no lineage dooms only itself.
			steps, perr := rt.Head.Lineage.RecoveryPlan([]idgen.ObjectID{id}, available)
			if slices.ContainsFunc(steps, func(s *task.Spec) bool { return !s.Actor.IsNil() }) {
				// Ray's rule: re-running an actor method would apply its
				// state change twice.
				steps, perr = nil, errors.New("runtime: an actor task's output is not re-derived")
			}
			if err == nil {
				err = perr
			}
			for _, spec := range steps {
				// Never re-run a terminal failure. Cancellation cascades to
				// every downstream consumer, and a consumer of a failed
				// output fails on the lost argument, so a dependent of a
				// skipped producer is itself skipped.
				if !planned[spec.ID] && !rt.failedTerminally(spec) {
					planned[spec.ID] = true
					plan = append(plan, spec)
				}
			}
		}
		// The plan is in dependency order, so a producer's returns are
		// claimed before any consumer of them starts.
		for _, spec := range plan {
			mine := false
			rt.mu.Lock()
			for _, ret := range spec.Returns {
				if rt.Head.Table.Settle(ret, ownership.Pending) {
					mine = true
					delete(rt.errs, ret)
				}
			}
			rt.mu.Unlock()
			if mine {
				rt.start(context.Background(), idgen.Nil, spec, true)
			}
		}
	}
	for _, id := range ids {
		if rt.Head.Table.Settle(id, ownership.Lost) {
			lost = append(lost, id)
		}
	}
	return lost, err
}

// failedTerminally reports whether any of a task's returns carries a
// terminal failure (see terminalFailure).
func (rt *Runtime) failedTerminally(spec *task.Spec) bool {
	return slices.ContainsFunc(spec.Returns, rt.terminalFailure)
}

// CancelReport summarizes what one Cancel call reclaimed.
type CancelReport struct {
	// TasksCancelled counts tasks in the cancelled graph (queued, running,
	// or already finished with reclaimable outputs).
	TasksCancelled int
	// WorkersReclaimed counts tasks whose exec RPC was in flight — a worker
	// slot freed before the kernel would have finished on its own.
	WorkersReclaimed int
	// BytesReclaimed sums the sizes of already-committed outputs freed.
	BytesReclaimed int64
}

// Cancel revokes the tasks producing the given objects and, cascading over
// lineage consumer edges, every queued or in-flight descendant. In-flight
// tasks are interrupted at the raylet's cancel checkpoints (the cancel rides
// the transport to the remote handler), futures fail with skaderr.Cancelled,
// blocked Get/Wait callers wake, and already-committed outputs of the doomed
// graph are freed from the caching layer.
func (rt *Runtime) Cancel(ids ...idgen.ObjectID) CancelReport {
	// Seed with the producers of the given objects, then BFS downstream:
	// every recorded consumer of a cancelled task's outputs is doomed too.
	seen := make(map[idgen.TaskID]bool)
	var frontier, doomed []*task.Spec
	for _, id := range ids {
		if spec, ok := rt.Head.Lineage.Producer(id); ok && !seen[spec.ID] {
			seen[spec.ID] = true
			frontier = append(frontier, spec)
		}
	}
	for len(frontier) > 0 {
		spec := frontier[0]
		frontier = frontier[1:]
		doomed = append(doomed, spec)
		for _, ret := range spec.Returns {
			for _, c := range rt.Head.Lineage.Consumers(ret) {
				if !seen[c.ID] {
					seen[c.ID] = true
					frontier = append(frontier, c)
				}
			}
		}
	}

	var rep CancelReport
	cancelErr := skaderr.New(skaderr.Cancelled, "runtime: cancelled")
	for _, spec := range doomed {
		rep.TasksCancelled++
		rt.mu.Lock()
		ctl := rt.tasks[spec.ID]
		rt.mu.Unlock()
		if ctl != nil {
			if ctl.executing.Load() {
				rep.WorkersReclaimed++
			}
			ctl.cancel(cancelErr)
		}
		// Record the error BEFORE MarkLost wakes waiters, so a released Get
		// sees Cancelled rather than a bare loss.
		rt.mu.Lock()
		for _, ret := range spec.Returns {
			if _, exists := rt.errs[ret]; !exists {
				rt.errs[ret] = fmt.Errorf("task %s (%s): %w", spec.ID.Short(), spec.Fn, cancelErr)
			}
		}
		rt.mu.Unlock()
		for _, ret := range spec.Returns {
			if rec, err := rt.Head.Table.Get(ret); err == nil && rec.State == ownership.Ready {
				// Partial progress of the doomed graph: reclaim the bytes.
				rep.BytesReclaimed += rec.Size
				rt.Layer.Delete(ret)
			}
			_ = rt.Head.Table.MarkLost(ret)
		}
	}
	rt.Metrics.Counter(MetricTasksCancelled).Add(int64(rep.TasksCancelled))
	rt.Metrics.Counter(MetricWorkersReclaimed).Add(int64(rep.WorkersReclaimed))
	rt.Metrics.Counter(MetricBytesReclaimed).Add(rep.BytesReclaimed)
	return rep
}

// RestartNode brings a killed node back with empty state: the raylet
// daemon is rebuilt against a fresh (empty) object store registered with
// the caching layer, and the node becomes schedulable again.
func (rt *Runtime) RestartNode(node idgen.NodeID) {
	// Restarting a node that is already running must be a no-op: the
	// restart path swaps in an empty store, so applying it to a live node
	// would erase bytes committed since the last restart while the
	// ownership table keeps the now-dangling locations. (Generated chaos
	// plans can schedule overlapping crash/restart cycles for one node.)
	if n := rt.Cluster.Node(node); n == nil || n.Alive() {
		return
	}
	// Mirror of KillNode: journal the restart and re-register the fabric
	// endpoint at its pre-crash location.
	rt.chaosEng.RestoreNode(node)
	rt.Cluster.Restart(node)
	n := rt.Cluster.Node(node)
	if n == nil {
		return
	}
	rt.mu.Lock()
	old, hadRaylet := rt.raylets[node]
	cfg, hadCfg := rt.rayletCfg[node]
	rt.mu.Unlock()
	if hadRaylet && hadCfg {
		old.Stop()
		rt.mu.Lock()
		rt.retiredExecuted += old.Stats().TasksExecuted
		rt.mu.Unlock()
		rt.Layer.AddStore(node, tierFor(n.Kind), objectstore.New(n.Res.MemBytes, nil))
		if rl, err := raylet.New(cfg); err == nil {
			if err := rl.Start(); err == nil {
				rt.mu.Lock()
				rt.raylets[node] = rl
				rt.mu.Unlock()
			}
		}
	}
	// Rejoin gossip (bumping the incarnation refutes the death verdict): the
	// event handler makes the node schedulable again and, for a shard host,
	// takes a key range back from the ring.
	rt.noteNodeAlive(node)
}

// Free releases objects cluster-wide: every cached copy, replica, EC
// shard, and DSM entry is reclaimed, the ownership entries are deleted
// (pending waiters are released with a loss error), and lineage is
// forgotten. Freed objects cannot be recovered; free only consumed
// results and dead intermediates.
func (rt *Runtime) Free(ids ...idgen.ObjectID) {
	for _, id := range ids {
		rt.Head.Table.Delete(id)
		rt.Layer.Delete(id)
		rt.Head.Lineage.Forget(id)
		rt.mu.Lock()
		delete(rt.errs, id)
		rt.mu.Unlock()
	}
}

// FabricStats returns total fabric accounting, for experiment reporting.
func (rt *Runtime) FabricStats() fabric.Stats { return rt.Cluster.Fabric.TotalStats() }

// Shutdown drains in-flight tasks, releases every waiter still blocked on a
// never-to-be-produced object (with skaderr.Unavailable), and tears down the
// transport. No Get/Wait goroutine outlives it.
func (rt *Runtime) Shutdown() {
	rt.stopGossipPump()
	rt.Drain()
	// Record the cause before AbortPending wakes waiters: a released Get
	// must observe Unavailable, never a bare loss.
	rt.mu.Lock()
	for _, id := range rt.Head.Table.PendingIDs() {
		if _, ok := rt.errs[id]; !ok {
			rt.errs[id] = skaderr.New(skaderr.Unavailable,
				"runtime: shutdown before object %s was produced", id.Short())
		}
	}
	rt.mu.Unlock()
	rt.Head.Table.AbortPending()
	_ = rt.Cluster.Transport.Close()
}
