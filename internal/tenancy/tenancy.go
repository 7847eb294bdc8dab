// Package tenancy is the multi-tenant serving control plane: tenants and
// jobs as first-class objects threaded through submit → schedule → exec.
//
// The runtime serves thousands of concurrent jobs from antagonistic
// tenants contending for worker slots, cache bytes, and fabric links
// ("Serverless End Game": disaggregation pays off only when the platform
// transparently multiplexes tenants over shared resources). This package
// supplies the three mechanisms that make sharing safe:
//
//   - Admission control: per-tenant token-bucket rate limiting plus a
//     bounded pending queue. A tenant over its bounds is rejected with a
//     typed skaderr.ResourceExhausted (fail-fast) or blocked at the submit
//     call (backpressure) — never an unbounded queue.
//   - Weighted fair-share scheduling: a DRF-style dominant-resource fair
//     scheduler layered over the placement scheduler. Worker slots are
//     granted to the waiting tenant with the highest priority band and,
//     within a band, the lowest weighted dominant share (workers and cache
//     bytes are the two resources). The scheme is work-conserving: free
//     slots go to whoever asks.
//   - Preemption: when slots are exhausted and a waiter's dominant share
//     is strictly below a running tenant's, one of the over-share tenant's
//     running tasks is revoked with skaderr.Preempted. The runtime's
//     cancel machinery interrupts the kernel mid-flight and the task
//     replays through the fair queue later — preemption is the payoff of
//     the cascading-cancellation control plane.
//
// Per-tenant quotas bound workers (MaxWorkers, enforced both here and at
// scheduler placement) and cache bytes (MaxCacheBytes, enforced on the
// caching layer's put path via the Reserve/Release quota hook, with
// per-tenant eviction pressure: a tenant over its byte quota evicts its
// own oldest objects before failing the put).
//
// The Controller is inert until the first tenant registers: with no
// tenants, every call is a pass-through, so single-job workloads pay
// nothing.
package tenancy

import (
	"context"
	"sort"
	"sync"
	"time"

	"skadi/internal/idgen"
	"skadi/internal/metrics"
	"skadi/internal/skaderr"
)

// Metric families maintained per tenant (label = tenant name). Rendered by
// `skadi -trace` next to the per-node gauges and read by experiment E19.
const (
	MetricQueued     = "tenant_queued"
	MetricRunning    = "tenant_running"
	MetricCacheBytes = "tenant_cache_bytes"
	MetricAdmitted   = "tenant_admitted"
	MetricRejected   = "tenant_admission_rejected"
	MetricPreempted  = "tenant_preempted"
	MetricCompleted  = "tenant_completed"
	MetricFailed     = "tenant_failed"
)

// ctxKey carries the tenant ID through a context.
type ctxKey struct{}

// blockKey carries the caller's backpressure choice through a context.
type blockKey struct{}

// ContextWith returns ctx tagged with the tenant ID. Everything submitted
// under the returned context is attributed to (and bounded by) that tenant.
func ContextWith(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, tenant)
}

// FromContext returns the tenant ID carried by ctx, if any.
func FromContext(ctx context.Context) (string, bool) {
	t, ok := ctx.Value(ctxKey{}).(string)
	return t, ok && t != ""
}

// WithBlock returns ctx tagged with the caller's backpressure choice:
// block=true makes an over-limit submit wait for admission (backpressure),
// block=false makes it fail fast with skaderr.ResourceExhausted. Without
// the tag, the tenant's configured default (Config.BlockOnFull) applies.
func WithBlock(ctx context.Context, block bool) context.Context {
	return context.WithValue(ctx, blockKey{}, block)
}

// blockFromContext returns the caller's backpressure choice, if tagged.
func blockFromContext(ctx context.Context) (bool, bool) {
	b, ok := ctx.Value(blockKey{}).(bool)
	return b, ok
}

// Config describes one tenant.
type Config struct {
	// Name identifies the tenant; it is the metric label and the wire ID.
	Name string
	// Weight scales the tenant's fair share (default 1). A weight-2 tenant
	// tolerates twice the usage of a weight-1 tenant before being
	// considered over-share.
	Weight float64
	// Priority is the tenant's band. Higher bands always win slot grants
	// over lower bands and may preempt them; equal bands compete by
	// dominant share.
	Priority int
	// Rate is the admission token-bucket refill rate in admissions per
	// second (0 = unlimited).
	Rate float64
	// Burst is the token-bucket depth (default: max(Rate, 1)).
	Burst float64
	// MaxPending bounds tasks admitted but not yet running (0 = unlimited).
	// Beyond it, submits block or fail fast per BlockOnFull / WithBlock.
	MaxPending int
	// MaxWorkers caps the tenant's concurrently running tasks
	// (0 = unlimited). Enforced at slot grant and at scheduler placement.
	MaxWorkers int
	// MaxCacheBytes caps the tenant's committed object bytes in the caching
	// layer (0 = unlimited). Enforced on the put path via Reserve.
	MaxCacheBytes int64
	// EvictOnQuota lets a tenant over MaxCacheBytes evict its own oldest
	// objects (per-tenant eviction pressure) instead of failing the put.
	EvictOnQuota bool
	// BlockOnFull makes over-limit submits block for admission by default
	// instead of failing fast. WithBlock on the submit context overrides.
	BlockOnFull bool
}

// Options configures the controller's global behaviour.
type Options struct {
	// FairShare gates worker-slot grants by dominant-resource fairness.
	// When false, slots are granted immediately (FIFO arrival order — the
	// E19 baseline arm).
	FairShare bool
	// Preemption lets an under-share waiter revoke an over-share tenant's
	// running task. Requires FairShare.
	Preemption bool
}

// Account is one tenant's accounting snapshot. The chaos checker's I6
// invariant requires the identity
//
//	Admitted == Completed + Failed + InFlight
//
// at quiesce (Failed includes cancelled and deadline-exceeded tasks;
// Rejected tasks were never admitted: Submitted == Admitted + Rejected).
type Account struct {
	Tenant     string
	Submitted  int64
	Admitted   int64
	Rejected   int64
	Completed  int64
	Failed     int64
	Preempted  int64
	InFlight   int64
	Queued     int64
	Running    int64
	CacheBytes int64
}

// waiter is one parked Acquire call.
type waiter struct {
	ch      chan struct{}
	granted bool
}

// runningTask is one granted slot's preemption handle.
type runningTask struct {
	seq     uint64
	preempt func()
	// preemptable is false once the grant is released or while no cancel
	// hook is bound yet but the task already asked not to be (gang tasks).
	taken bool
}

// tenant is the controller's per-tenant state.
type tenant struct {
	cfg Config

	// Token bucket.
	tokens     float64
	lastRefill time.Time

	// Admission waiters are woken by a close-and-replace broadcast channel
	// whenever queued shrinks or tokens refill (lost-wakeup-free: take the
	// channel before re-checking).
	admitCh chan struct{}

	// Slot state.
	queued  int64 // admitted, not yet running
	running int64
	waiters []*waiter // FIFO
	tasks   map[idgen.TaskID]*runningTask

	// Cache-byte quota state. objects tracks reserved logical bytes by
	// object; evictOrder is insertion (oldest-first) order for per-tenant
	// eviction pressure.
	cacheBytes int64
	objects    map[idgen.ObjectID]int64
	evictOrder []idgen.ObjectID

	// Accounting.
	submitted, admitted, rejected int64
	completed, failed, preempted  int64
}

// Controller is the multi-tenant control plane. It is safe for concurrent
// use. The zero Controller is not usable; construct with NewController.
type Controller struct {
	mu      sync.Mutex
	opts    Options
	tenants map[string]*tenant
	// enabled flips on first RegisterTenant; before that every path is a
	// pass-through.
	enabled bool

	totalSlots      int
	totalCacheBytes int64
	running         int64 // across all tenants

	grantSeq uint64

	// objectTenant maps reserved objects back to their tenant for Release.
	objectTenant map[idgen.ObjectID]string

	// evictor frees an object cluster-wide (ownership + cache + lineage);
	// installed by the runtime. Nil disables eviction pressure.
	evictor func(idgen.ObjectID)

	now func() time.Time

	reg *metrics.Registry
}

// NewController returns an inert controller; it activates when the first
// tenant registers. reg may be nil (metrics are skipped).
func NewController(opts Options, reg *metrics.Registry) *Controller {
	return &Controller{
		opts:         opts,
		tenants:      make(map[string]*tenant),
		objectTenant: make(map[idgen.ObjectID]string),
		now:          time.Now,
		reg:          reg,
	}
}

// SetClock injects a time source (tests).
func (c *Controller) SetClock(now func() time.Time) {
	c.mu.Lock()
	c.now = now
	c.mu.Unlock()
}

// SetEvictor installs the cluster-wide object free hook used for
// per-tenant eviction pressure (the runtime installs Free).
func (c *Controller) SetEvictor(f func(idgen.ObjectID)) {
	c.mu.Lock()
	c.evictor = f
	c.mu.Unlock()
}

// AddCapacity grows the cluster capacity the fair-share scheduler divides:
// worker slots and cache bytes. The runtime calls it as raylets register.
func (c *Controller) AddCapacity(slots int, cacheBytes int64) {
	c.mu.Lock()
	c.totalSlots += slots
	c.totalCacheBytes += cacheBytes
	c.wakeBestLocked()
	c.mu.Unlock()
}

// Capacity returns the registered (slots, cacheBytes) capacity.
func (c *Controller) Capacity() (int, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totalSlots, c.totalCacheBytes
}

// RegisterTenant registers (or reconfigures) a tenant and activates the
// controller.
func (c *Controller) RegisterTenant(cfg Config) error {
	if cfg.Name == "" {
		return skaderr.New(skaderr.FailedPrecondition, "tenancy: tenant needs a name")
	}
	if cfg.Weight <= 0 {
		cfg.Weight = 1
	}
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.Rate
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.tenants[cfg.Name]; ok {
		st.cfg = cfg
		return nil
	}
	c.tenants[cfg.Name] = &tenant{
		cfg:        cfg,
		tokens:     cfg.Burst,
		lastRefill: c.now(),
		admitCh:    make(chan struct{}),
		tasks:      make(map[idgen.TaskID]*runningTask),
		objects:    make(map[idgen.ObjectID]int64),
	}
	c.enabled = true
	return nil
}

// Enabled reports whether any tenant is registered.
func (c *Controller) Enabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.enabled
}

// lookupLocked returns the tenant's state; unknown tenants (and the empty
// tenant) get a permissive default registration so accounting still
// balances for unattributed work once the controller is active.
func (c *Controller) lookupLocked(name string) *tenant {
	if name == "" {
		name = "default"
	}
	st, ok := c.tenants[name]
	if !ok {
		st = &tenant{
			cfg:        Config{Name: name, Weight: 1, Burst: 1},
			tokens:     1,
			lastRefill: c.now(),
			admitCh:    make(chan struct{}),
			tasks:      make(map[idgen.TaskID]*runningTask),
			objects:    make(map[idgen.ObjectID]int64),
		}
		c.tenants[name] = st
	}
	return st
}

// refillLocked advances st's token bucket to now.
func (c *Controller) refillLocked(st *tenant) {
	if st.cfg.Rate <= 0 {
		return
	}
	now := c.now()
	dt := now.Sub(st.lastRefill).Seconds()
	if dt > 0 {
		st.tokens += dt * st.cfg.Rate
		if st.tokens > st.cfg.Burst {
			st.tokens = st.cfg.Burst
		}
		st.lastRefill = now
	}
}

// notifyAdmitLocked wakes every admission waiter of st.
func (c *Controller) notifyAdmitLocked(st *tenant) {
	close(st.admitCh)
	st.admitCh = make(chan struct{})
}

// ErrAdmission is the typed rejection for an over-limit submit.
func errAdmission(tenant, what string) error {
	return skaderr.New(skaderr.ResourceExhausted,
		"tenancy: tenant %q %s", tenant, what)
}

// Admit applies admission control for one task submission by tenant. It
// returns nil immediately when the controller is inert or the tenant is
// within bounds. Over bounds, it blocks for admission (backpressure) when
// the context or tenant config asks for it, else fails fast with a typed
// skaderr.ResourceExhausted. A nil return means the task was admitted and
// MUST be concluded with exactly one TaskDone call.
func (c *Controller) Admit(ctx context.Context, name string) error {
	c.mu.Lock()
	if !c.enabled {
		c.mu.Unlock()
		return nil
	}
	st := c.lookupLocked(name)
	st.submitted++
	block := st.cfg.BlockOnFull
	if b, ok := blockFromContext(ctx); ok {
		block = b
	}
	for {
		c.refillLocked(st)
		overQueue := st.cfg.MaxPending > 0 && st.queued >= int64(st.cfg.MaxPending)
		overRate := st.cfg.Rate > 0 && st.tokens < 1
		if !overQueue && !overRate {
			if st.cfg.Rate > 0 {
				st.tokens--
			}
			st.queued++
			st.admitted++
			c.gaugeLocked(st, MetricQueued, st.queued)
			c.counterLocked(st, MetricAdmitted).Inc()
			c.mu.Unlock()
			return nil
		}
		if !block {
			st.rejected++
			c.counterLocked(st, MetricRejected).Inc()
			c.mu.Unlock()
			what := "pending queue full"
			if overRate && !overQueue {
				what = "admission rate exceeded"
			}
			return errAdmission(st.cfg.Name, what)
		}
		// Backpressure: wait for queue space or the next token, whichever
		// the submit is short of. Take the broadcast channel BEFORE
		// unlocking so a concurrent release cannot be lost.
		admitCh := st.admitCh
		var tokenWait <-chan time.Time
		var timer *time.Timer
		if overRate && st.cfg.Rate > 0 {
			need := (1 - st.tokens) / st.cfg.Rate
			timer = time.NewTimer(time.Duration(need * float64(time.Second)))
			tokenWait = timer.C
		}
		c.mu.Unlock()
		select {
		case <-ctx.Done():
			if timer != nil {
				timer.Stop()
			}
			c.mu.Lock()
			st.rejected++
			c.counterLocked(st, MetricRejected).Inc()
			c.mu.Unlock()
			return skaderr.Mark(skaderr.CodeOf(ctx.Err()), ctx.Err())
		case <-admitCh:
			if timer != nil {
				timer.Stop()
			}
		case <-tokenWait:
		}
		c.mu.Lock()
	}
}

// shareLocked computes st's weighted dominant share: the max over the
// worker and cache-byte resources of usage/(weight·capacity).
func (c *Controller) shareLocked(st *tenant) float64 {
	share := 0.0
	if c.totalSlots > 0 {
		if s := float64(st.running) / (st.cfg.Weight * float64(c.totalSlots)); s > share {
			share = s
		}
	}
	if c.totalCacheBytes > 0 {
		if s := float64(st.cacheBytes) / (st.cfg.Weight * float64(c.totalCacheBytes)); s > share {
			share = s
		}
	}
	return share
}

// Grant is one granted worker slot. Release it exactly once. BindCancel
// installs the preemption hook that revokes the running attempt.
type Grant struct {
	c  *Controller
	st *tenant
	id idgen.TaskID

	mu        sync.Mutex
	released  bool
	preempted bool
	cancel    func(error)
}

// preemptedCause is the typed revocation preemption delivers.
func preemptedCause(tenant string) error {
	return skaderr.New(skaderr.Preempted, "tenancy: tenant %q task preempted", tenant)
}

// BindCancel installs the attempt's cancel function. If the grant was
// preempted before the hook was bound, the cancel fires immediately — a
// preemption can race the gap between slot grant and exec start.
func (g *Grant) BindCancel(cancel func(error)) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.cancel = cancel
	fire := g.preempted
	g.mu.Unlock()
	if fire && cancel != nil {
		cancel(preemptedCause(g.st.cfg.Name))
	}
}

// preempt revokes the grant's running attempt. Called with c.mu held.
func (g *Grant) preempt() {
	g.mu.Lock()
	if g.preempted || g.released {
		g.mu.Unlock()
		return
	}
	g.preempted = true
	cancel := g.cancel
	g.mu.Unlock()
	if cancel != nil {
		cancel(preemptedCause(g.st.cfg.Name))
	}
}

// Release returns the slot and hands it to the best waiter.
func (g *Grant) Release() {
	if g == nil {
		return
	}
	g.mu.Lock()
	if g.released {
		g.mu.Unlock()
		return
	}
	g.released = true
	g.mu.Unlock()
	c := g.c
	c.mu.Lock()
	g.st.running--
	c.running--
	delete(g.st.tasks, g.id)
	c.gaugeLocked(g.st, MetricRunning, g.st.running)
	c.wakeBestLocked()
	c.mu.Unlock()
}

// canRunLocked reports whether st may take a slot now (hard limits only;
// fairness is the wake order's job).
func (c *Controller) canRunLocked(st *tenant) bool {
	if st.cfg.MaxWorkers > 0 && st.running >= int64(st.cfg.MaxWorkers) {
		return false
	}
	return c.totalSlots == 0 || c.running < int64(c.totalSlots)
}

// grantLocked accounts a slot grant to st for task id.
func (c *Controller) grantLocked(st *tenant, id idgen.TaskID, g *Grant) {
	st.queued--
	st.running++
	c.running++
	c.grantSeq++
	st.tasks[id] = &runningTask{seq: c.grantSeq, preempt: g.preempt, taken: true}
	c.gaugeLocked(st, MetricQueued, st.queued)
	c.gaugeLocked(st, MetricRunning, st.running)
	c.notifyAdmitLocked(st)
}

// wakeBestLocked hands free slots to waiters: highest priority band first,
// then lowest weighted dominant share (DRF), FIFO within a tenant.
func (c *Controller) wakeBestLocked() {
	for {
		var best *tenant
		var bestShare float64
		for _, st := range c.tenants {
			if len(st.waiters) == 0 || !c.canRunLocked(st) {
				continue
			}
			share := c.shareLocked(st)
			if best == nil ||
				st.cfg.Priority > best.cfg.Priority ||
				(st.cfg.Priority == best.cfg.Priority && share < bestShare) {
				best, bestShare = st, share
			}
		}
		if best == nil || (c.totalSlots > 0 && c.running >= int64(c.totalSlots)) {
			return
		}
		w := best.waiters[0]
		best.waiters = best.waiters[1:]
		w.granted = true
		close(w.ch)
		// The grant is accounted by the woken Acquire; reserve the slot here
		// so the loop doesn't over-grant. Acquire completes the bookkeeping.
		best.running++
		c.running++
	}
}

// tryPreemptLocked finds the over-share victim for waiter st and revokes
// one of its running tasks (the most recently granted, minimizing wasted
// work). Returns true if a preemption was fired.
func (c *Controller) tryPreemptLocked(st *tenant) bool {
	if !c.opts.Preemption {
		return false
	}
	myShare := c.shareLocked(st)
	var victim *tenant
	var victimShare float64
	for _, v := range c.tenants {
		if v == st || v.running == 0 || v.cfg.Priority > st.cfg.Priority {
			continue
		}
		share := c.shareLocked(v)
		// Same band: preempt only a strictly over-share tenant. Lower band:
		// always preemptible by a higher band with demand.
		if v.cfg.Priority == st.cfg.Priority && share <= myShare {
			continue
		}
		if victim == nil || share > victimShare {
			victim, victimShare = v, share
		}
	}
	if victim == nil {
		return false
	}
	var newest *runningTask
	for _, rt := range victim.tasks {
		if rt.taken && (newest == nil || rt.seq > newest.seq) {
			newest = rt
		}
	}
	if newest == nil {
		return false
	}
	newest.taken = false // fire at most once per grant
	victim.preempted++
	c.counterLocked(victim, MetricPreempted).Inc()
	// The preempt hook cancels the attempt context; run it without c.mu to
	// keep lock order simple (Grant.preempt takes only the grant's lock).
	go newest.preempt()
	return true
}

// Acquire blocks until tenant name may run one more task, per fair share,
// priority bands, and worker quotas. The returned Grant must be Released
// exactly once; bind the attempt's cancel with BindCancel so the task is
// preemptible. A nil Grant (with nil error) means the controller is inert.
func (c *Controller) Acquire(ctx context.Context, name string, id idgen.TaskID) (*Grant, error) {
	c.mu.Lock()
	if !c.enabled {
		c.mu.Unlock()
		return nil, nil
	}
	st := c.lookupLocked(name)
	g := &Grant{c: c, st: st, id: id}
	// Fast path: no contention (or fair-share disabled: FIFO grants).
	if !c.opts.FairShare || (c.noWaitersLocked() && c.canRunLocked(st)) {
		c.grantLocked(st, id, g)
		c.mu.Unlock()
		return g, nil
	}
	w := &waiter{ch: make(chan struct{})}
	st.waiters = append(st.waiters, w)
	// A slot may be free right now (transient: a release raced our
	// enqueue); let the fair wake order decide who gets it.
	c.wakeBestLocked()
	if !w.granted && (c.totalSlots == 0 || c.running >= int64(c.totalSlots)) {
		c.tryPreemptLocked(st)
	}
	c.mu.Unlock()

	select {
	case <-w.ch:
		// Slot was reserved by wakeBestLocked; finish the bookkeeping.
		c.mu.Lock()
		st.queued--
		c.grantSeq++
		st.tasks[id] = &runningTask{seq: c.grantSeq, preempt: g.preempt, taken: true}
		c.gaugeLocked(st, MetricQueued, st.queued)
		c.gaugeLocked(st, MetricRunning, st.running)
		c.notifyAdmitLocked(st)
		c.mu.Unlock()
		return g, nil
	case <-ctx.Done():
		c.mu.Lock()
		if w.granted {
			// The grant raced the cancellation; take it — the caller's next
			// cancellation checkpoint will release it.
			st.queued--
			c.grantSeq++
			st.tasks[id] = &runningTask{seq: c.grantSeq, preempt: g.preempt, taken: true}
			c.gaugeLocked(st, MetricQueued, st.queued)
			c.gaugeLocked(st, MetricRunning, st.running)
			c.notifyAdmitLocked(st)
			c.mu.Unlock()
			return g, nil
		}
		for i, cand := range st.waiters {
			if cand == w {
				st.waiters = append(st.waiters[:i], st.waiters[i+1:]...)
				break
			}
		}
		c.mu.Unlock()
		return nil, skaderr.Mark(skaderr.CodeOf(ctx.Err()), ctx.Err())
	}
}

// noWaitersLocked reports whether no tenant has a parked Acquire.
func (c *Controller) noWaitersLocked() bool {
	for _, st := range c.tenants {
		if len(st.waiters) > 0 {
			return false
		}
	}
	return true
}

// Requeue returns a task to the pending queue between execution attempts
// (preemption replay, migration redirect, node-failure retry): the task is
// queued again until its next slot grant.
func (c *Controller) Requeue(name string) {
	c.mu.Lock()
	if c.enabled {
		st := c.lookupLocked(name)
		st.queued++
		c.gaugeLocked(st, MetricQueued, st.queued)
	}
	c.mu.Unlock()
}

// Track accounts a task that bypasses admission. Gang members use it:
// their slots are reserved atomically by the placement scheduler, and
// gating individual members on admission could deadlock a gang against
// itself, so gangs are exempt from admission but not from accounting. The
// task still concludes through TaskDone.
func (c *Controller) Track(name string) {
	c.mu.Lock()
	if c.enabled {
		st := c.lookupLocked(name)
		st.submitted++
		st.admitted++
		st.queued++
		c.gaugeLocked(st, MetricQueued, st.queued)
		c.counterLocked(st, MetricAdmitted).Inc()
	}
	c.mu.Unlock()
}

// GangStarted accounts a gang member's slot occupancy. Gang slots are
// reserved by the placement scheduler rather than granted by Acquire, but
// they consume the same physical workers, so they count toward the
// tenant's running usage (and thus its dominant share) and the global
// pool — a tenant hogging slots via gangs is deprioritized for singles.
func (c *Controller) GangStarted(name string) {
	c.mu.Lock()
	if c.enabled {
		st := c.lookupLocked(name)
		st.queued--
		st.running++
		c.running++
		c.gaugeLocked(st, MetricQueued, st.queued)
		c.gaugeLocked(st, MetricRunning, st.running)
		c.notifyAdmitLocked(st)
	}
	c.mu.Unlock()
}

// GangFinished releases a gang member's slot accounting.
func (c *Controller) GangFinished(name string) {
	c.mu.Lock()
	if c.enabled {
		st := c.lookupLocked(name)
		st.running--
		c.running--
		c.gaugeLocked(st, MetricRunning, st.running)
		c.wakeBestLocked()
	}
	c.mu.Unlock()
}

// TaskDone concludes one admitted (or Tracked) task's lifecycle for
// accounting: completed on success, failed otherwise. Exactly one call per
// successful Admit or Track. dequeued reports whether the task has left
// the pending queue (it got a slot grant it did not give back via
// Requeue); a task that never ran still concludes here and its queued
// count is dropped.
func (c *Controller) TaskDone(name string, dequeued, ok bool) {
	c.mu.Lock()
	if !c.enabled {
		c.mu.Unlock()
		return
	}
	st := c.lookupLocked(name)
	if !dequeued {
		// Admitted but never ran: leave the pending queue.
		st.queued--
		c.gaugeLocked(st, MetricQueued, st.queued)
		c.notifyAdmitLocked(st)
	}
	if ok {
		st.completed++
		c.counterLocked(st, MetricCompleted).Inc()
	} else {
		st.failed++
		c.counterLocked(st, MetricFailed).Inc()
	}
	c.mu.Unlock()
}

// WorkerQuota reports whether tenant name may start one more task under
// its hard MaxWorkers quota — the scheduler consults it at placement (the
// second enforcement point, covering pinned and gang placements that
// bypass the slot gate).
func (c *Controller) WorkerQuota(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.enabled || name == "" {
		return nil
	}
	st := c.lookupLocked(name)
	if st.cfg.MaxWorkers > 0 && st.running > int64(st.cfg.MaxWorkers) {
		return skaderr.New(skaderr.ResourceExhausted,
			"tenancy: tenant %q over worker quota (%d)", name, st.cfg.MaxWorkers)
	}
	return nil
}

// Reserve charges n logical bytes of cache quota for object id to the
// tenant carried by ctx. Implements the caching layer's Quota hook on the
// put path. Over quota, the tenant's own oldest objects are evicted
// (EvictOnQuota) until the reservation fits, else the put fails typed.
// Reserving an already-reserved object is a no-op (same-ID re-puts).
func (c *Controller) Reserve(ctx context.Context, id idgen.ObjectID, n int64) error {
	name, _ := FromContext(ctx)
	c.mu.Lock()
	if !c.enabled || name == "" {
		c.mu.Unlock()
		return nil
	}
	st := c.lookupLocked(name)
	if _, ok := st.objects[id]; ok {
		c.mu.Unlock()
		return nil
	}
	var evict []idgen.ObjectID
	if st.cfg.MaxCacheBytes > 0 && st.cacheBytes+n > st.cfg.MaxCacheBytes {
		if !st.cfg.EvictOnQuota || c.evictor == nil {
			c.mu.Unlock()
			return skaderr.New(skaderr.ResourceExhausted,
				"tenancy: tenant %q over cache quota (%d + %d > %d bytes)",
				name, st.cacheBytes, n, st.cfg.MaxCacheBytes)
		}
		// Per-tenant eviction pressure: this tenant's oldest objects go
		// first; other tenants' bytes are untouchable.
		need := st.cacheBytes + n - st.cfg.MaxCacheBytes
		for _, old := range st.evictOrder {
			if need <= 0 {
				break
			}
			if sz, ok := st.objects[old]; ok && old != id {
				evict = append(evict, old)
				need -= sz
			}
		}
		if need > 0 {
			c.mu.Unlock()
			return skaderr.New(skaderr.ResourceExhausted,
				"tenancy: tenant %q cache quota: object (%d bytes) exceeds evictable space", name, n)
		}
	}
	st.objects[id] = n
	st.evictOrder = append(st.evictOrder, id)
	st.cacheBytes += n
	c.objectTenant[id] = st.cfg.Name
	c.gaugeLocked(st, MetricCacheBytes, st.cacheBytes)
	evictor := c.evictor
	c.mu.Unlock()
	// Evict outside the lock: the evictor re-enters Release via the
	// caching layer's delete path.
	for _, old := range evict {
		evictor(old)
	}
	return nil
}

// Release returns object id's reserved bytes to its tenant's quota. The
// caching layer calls it when the object's last copy is deleted.
func (c *Controller) Release(id idgen.ObjectID) {
	c.mu.Lock()
	name, ok := c.objectTenant[id]
	if !ok {
		c.mu.Unlock()
		return
	}
	delete(c.objectTenant, id)
	st := c.lookupLocked(name)
	if sz, ok := st.objects[id]; ok {
		st.cacheBytes -= sz
		delete(st.objects, id)
		c.gaugeLocked(st, MetricCacheBytes, st.cacheBytes)
	}
	for i, o := range st.evictOrder {
		if o == id {
			st.evictOrder = append(st.evictOrder[:i], st.evictOrder[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
}

// CacheBytes returns tenant name's reserved cache bytes.
func (c *Controller) CacheBytes(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.enabled {
		return 0
	}
	return c.lookupLocked(name).cacheBytes
}

// Accounts snapshots every tenant's accounting, sorted by name.
func (c *Controller) Accounts() []Account {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Account, 0, len(c.tenants))
	for _, st := range c.tenants {
		out = append(out, Account{
			Tenant:     st.cfg.Name,
			Submitted:  st.submitted,
			Admitted:   st.admitted,
			Rejected:   st.rejected,
			Completed:  st.completed,
			Failed:     st.failed,
			Preempted:  st.preempted,
			InFlight:   st.admitted - st.completed - st.failed,
			Queued:     st.queued,
			Running:    st.running,
			CacheBytes: st.cacheBytes,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// Account returns one tenant's snapshot.
func (c *Controller) Account(name string) Account {
	for _, a := range c.Accounts() {
		if a.Tenant == name {
			return a
		}
	}
	return Account{Tenant: name}
}

// gaugeLocked sets a per-tenant gauge (no-op without a registry).
func (c *Controller) gaugeLocked(st *tenant, fam string, v int64) {
	if c.reg != nil {
		c.reg.GaugeVec(fam).With(st.cfg.Name).Set(v)
	}
}

// counterLocked returns a per-tenant counter (never nil; a discard counter
// without a registry).
func (c *Controller) counterLocked(st *tenant, fam string) *metrics.Counter {
	if c.reg != nil {
		return c.reg.CounterVec(fam).With(st.cfg.Name)
	}
	return &discard
}

var discard metrics.Counter
