package scheduler

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"skadi/internal/idgen"
	"skadi/internal/skaderr"
	"skadi/internal/task"
	"skadi/internal/trace"
)

// stealProbes is how many random peers a saturated home node probes before
// falling back to least-loaded placement. Two random choices already give
// exponential load-balance improvement (power-of-k-choices); three keeps
// the steal path short while tolerating a stale snapshot entry or two.
const stealProbes = 3

// local is one node's scheduler state in the decentralized mesh: its own
// slot accounting behind its own lock, so the submit→exec hot path touches
// no global mutex.
type local struct {
	info NodeInfo

	mu       sync.Mutex
	inflight int
	alive    bool

	// steals counts tasks this node accepted from another node's overflow
	// — the work-stealing traffic `skadi -trace` and E20 report.
	steals atomic.Uint64
}

// tryReserve accounts one task if the node is alive and (when strict) has
// a free slot. Slots <= 0 means unbounded.
func (l *local) tryReserve(strict bool) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.alive {
		return false
	}
	if strict && l.info.Slots > 0 && l.inflight >= l.info.Slots {
		return false
	}
	l.inflight++
	return true
}

func (l *local) release() {
	l.mu.Lock()
	if l.inflight > 0 {
		l.inflight--
	}
	l.mu.Unlock()
}

func (l *local) load() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inflight
}

func (l *local) isAlive() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.alive
}

// meshSnap is the copy-on-write membership snapshot Pick routes through:
// rebuilt on every membership/liveness change, read lock-free on every
// placement. byBackend holds only live nodes; byID holds all registered
// nodes so Finished/Started resolve even across a liveness flap.
type meshSnap struct {
	byBackend map[string][]*local
	byID      map[idgen.NodeID]*local
}

var emptySnap = &meshSnap{
	byBackend: map[string][]*local{},
	byID:      map[idgen.NodeID]*local{},
}

// capHolder wraps a capacity-watch channel behind one atomic pointer so
// Finished can notify watchers without any lock (a nil swap when nobody is
// watching).
type capHolder struct{ ch chan struct{} }

// Mesh is the placement engine: per-node slot accounting, each node behind
// its own lock, plus work stealing. Submission picks a home node from a
// lock-free snapshot by policy; NewMesh reserves the home strictly, so a
// saturated home hands the task to the first of a few probed peers with a
// free slot and counts a steal. New (the centralized configuration)
// reserves the home whether or not it has a free slot, so it never steals.
// Only membership changes (add/remove/liveness) take the mesh-wide lock;
// Pick, Started, and Finished touch at most a couple of per-node mutexes.
type Mesh struct {
	gateMu sync.RWMutex
	gate   func(*task.Spec) error

	mu      sync.Mutex // membership; never held on the Pick fast path
	policy  atomic.Int32
	locator ObjectLocator
	locals  map[idgen.NodeID]*local
	order   []idgen.NodeID
	// strict makes a full home refuse the task (the steal path takes over);
	// fixed at construction.
	strict bool

	// gangMu serializes PickGang: two gangs reserving node by node at once
	// could each fail on the other's partial reservations and then both
	// wait for a capacity wakeup that their own rollbacks never send.
	gangMu sync.Mutex

	snap   atomic.Value // *meshSnap
	capPtr atomic.Pointer[capHolder]
	rr     atomic.Uint64
	seq    atomic.Uint64

	// localitySteal orders steal probes by where the task's reference
	// args already live (on by default when a locator is wired);
	// stealLocalBytes/stealRemoteBytes account, per stolen task, the arg
	// bytes local vs remote to the thief — E20's comparison metric.
	localitySteal    atomic.Bool
	stealLocalBytes  atomic.Int64
	stealRemoteBytes atomic.Int64
}

// New returns an empty mesh that oversubscribes a task's home node rather
// than steal from it: placement is the policy's choice alone, as with one
// scheduler that sees every node. locator may be nil for policies that
// ignore data placement.
func New(policy Policy, locator ObjectLocator) *Mesh {
	return newMesh(policy, locator, false)
}

// NewMesh returns an empty work-stealing mesh with the given policy.
// locator may be nil for policies that ignore data placement.
func NewMesh(policy Policy, locator ObjectLocator) *Mesh {
	return newMesh(policy, locator, true)
}

func newMesh(policy Policy, locator ObjectLocator, strict bool) *Mesh {
	m := &Mesh{
		locator: locator,
		locals:  make(map[idgen.NodeID]*local),
		strict:  strict,
	}
	m.policy.Store(int32(policy))
	m.seq.Store(0x9e3779b97f4a7c15) // fixed seed: probe order is reproducible
	m.snap.Store(emptySnap)
	m.localitySteal.Store(true)
	return m
}

// SetLocalitySteal toggles locality-aware steal-probe ordering (on by
// default). Off, probes are uniformly random — the E20 baseline arm.
func (m *Mesh) SetLocalitySteal(on bool) { m.localitySteal.Store(on) }

// StealBytes returns the cumulative reference-arg bytes that were local
// (resp. remote) to the thief across all stolen tasks.
func (m *Mesh) StealBytes() (local, remote int64) {
	return m.stealLocalBytes.Load(), m.stealRemoteBytes.Load()
}

// splitmix64 hashes a counter draw into a well-mixed 64-bit value.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (m *Mesh) loadSnap() *meshSnap { return m.snap.Load().(*meshSnap) }

// rebuildLocked recomputes the routing snapshot. Caller holds mu.
func (m *Mesh) rebuildLocked() {
	ns := &meshSnap{
		byBackend: make(map[string][]*local),
		byID:      make(map[idgen.NodeID]*local, len(m.locals)),
	}
	for _, id := range m.order {
		l := m.locals[id]
		ns.byID[id] = l
		if l.isAlive() {
			ns.byBackend[l.info.Backend] = append(ns.byBackend[l.info.Backend], l)
		}
	}
	m.snap.Store(ns)
}

// notifyCapacity wakes every capacity watcher; a single atomic swap when
// nobody is watching.
func (m *Mesh) notifyCapacity() {
	if h := m.capPtr.Swap(nil); h != nil {
		close(h.ch)
	}
}

// CapacityWatch returns a channel closed the next time capacity may have
// grown. Obtain it BEFORE attempting a placement.
func (m *Mesh) CapacityWatch() <-chan struct{} {
	for {
		if h := m.capPtr.Load(); h != nil {
			return h.ch
		}
		nh := &capHolder{ch: make(chan struct{})}
		if m.capPtr.CompareAndSwap(nil, nh) {
			return nh.ch
		}
	}
}

// SetGate installs a placement veto consulted before node selection.
func (m *Mesh) SetGate(gate func(*task.Spec) error) {
	m.gateMu.Lock()
	m.gate = gate
	m.gateMu.Unlock()
}

func (m *Mesh) checkGate(spec *task.Spec) error {
	m.gateMu.RLock()
	gate := m.gate
	m.gateMu.RUnlock()
	if gate == nil {
		return nil
	}
	return gate(spec)
}

// SetPolicy switches the placement policy at runtime.
func (m *Mesh) SetPolicy(p Policy) { m.policy.Store(int32(p)) }

// Policy returns the active policy.
func (m *Mesh) Policy() Policy { return Policy(m.policy.Load()) }

// AddNode registers a schedulable node.
func (m *Mesh) AddNode(info NodeInfo) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.locals[info.ID]; ok {
		return
	}
	m.locals[info.ID] = &local{info: info, alive: true}
	m.order = append(m.order, info.ID)
	m.rebuildLocked()
	m.notifyCapacity()
}

// RemoveNode unregisters a node.
func (m *Mesh) RemoveNode(id idgen.NodeID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.locals[id]; !ok {
		return
	}
	delete(m.locals, id)
	for i, n := range m.order {
		if n == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.rebuildLocked()
}

// SetAlive marks a node up or down without unregistering it. Dead nodes
// leave the routing snapshot; their in-flight accounting is preserved.
func (m *Mesh) SetAlive(id idgen.NodeID, alive bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.locals[id]
	if !ok {
		return
	}
	l.mu.Lock()
	changed := l.alive != alive
	l.alive = alive
	l.mu.Unlock()
	if !changed {
		return
	}
	m.rebuildLocked()
	if alive {
		m.notifyCapacity()
	}
}

// NodeCount returns the number of live registered nodes.
func (m *Mesh) NodeCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, l := range m.locals {
		if l.isAlive() {
			n++
		}
	}
	return n
}

// argBytes scores nodes by how many of the task's reference-arg bytes they
// already hold, and totals those bytes over all refs. Unknown sizes count
// as one byte so presence still ranks. byNode is nil when no locator is
// wired or no ref arg has a known copy.
func (m *Mesh) argBytes(spec *task.Spec) (byNode map[idgen.NodeID]int64, total int64) {
	if m.locator == nil {
		return nil, 0
	}
	for _, a := range spec.Args {
		if !a.IsRef {
			continue
		}
		size := m.locator.Size(a.Ref)
		if size == 0 {
			size = 1
		}
		total += size
		for _, node := range m.locator.Locations(a.Ref) {
			if byNode == nil {
				byNode = make(map[idgen.NodeID]int64)
			}
			byNode[node] += size
		}
	}
	return byNode, total
}

// prefer reports whether a beats b for a task whose resident arg bytes per
// node are byNode: more local bytes first, the lighter-loaded node on ties.
func prefer(byNode map[idgen.NodeID]int64, a, b *local) bool {
	if ab, bb := byNode[a.info.ID], byNode[b.info.ID]; ab != bb {
		return ab > bb
	}
	return a.load() < b.load()
}

// pickHome selects the task's home node from the snapshot candidates.
func (m *Mesh) pickHome(spec *task.Spec, cands []*local) *local {
	switch m.Policy() {
	case Random:
		return cands[splitmix64(m.seq.Add(1))%uint64(len(cands))]
	case CPUCentric:
		// Least-loaded, first on ties: compute-centric, data-oblivious.
		return best(nil, cands)
	case DataLocality:
		byNode, _ := m.argBytes(spec)
		return best(byNode, cands)
	default: // RoundRobin
		return cands[m.rr.Add(1)%uint64(len(cands))]
	}
}

// best returns the candidate prefer ranks first.
func best(byNode map[idgen.NodeID]int64, cands []*local) *local {
	b := cands[0]
	for _, c := range cands[1:] {
		if prefer(byNode, c, b) {
			b = c
		}
	}
	return b
}

// Pick chooses a node for the task and accounts one in-flight task on it.
// The hot path reads the membership snapshot lock-free and reserves on the
// home node's own mutex; only a refused home enters the steal protocol.
func (m *Mesh) Pick(spec *task.Spec) (idgen.NodeID, error) {
	if err := m.checkGate(spec); err != nil {
		return idgen.Nil, err
	}
	cands := m.loadSnap().byBackend[spec.Backend]
	if len(cands) == 0 {
		return idgen.Nil, errNoNodes(spec.Backend)
	}
	home := m.pickHome(spec, cands)
	if home.tryReserve(m.strict) {
		return home.info.ID, nil
	}
	return m.steal(spec, cands, home)
}

func errNoNodes(backend string) error {
	return skaderr.Mark(skaderr.FailedPrecondition, fmt.Errorf("%w: backend %q", ErrNoNodes, backend))
}

// steal places a task whose home refused it: saturated, or dead behind a
// stale snapshot. A few peers are probed for a free slot and the first
// taker steals the task. With a locator wired the probe order is
// locality-aware: peers already holding the task's reference args go
// first, so a stolen task moves fewer arg bytes; the remaining probes are
// random, preserving the power-of-k load-balance property.
func (m *Mesh) steal(spec *task.Spec, cands []*local, home *local) (idgen.NodeID, error) {
	byNode, total := m.argBytes(spec)
	// took accounts the placement on whoever reserved it: a steal unless
	// that is the home itself, with the local/remote split of the task's
	// arg bytes relative to the thief.
	took := func(c *local) (idgen.NodeID, error) {
		if c != home {
			c.steals.Add(1)
			m.stealLocalBytes.Add(byNode[c.info.ID])
			m.stealRemoteBytes.Add(total - byNode[c.info.ID])
		}
		return c.info.ID, nil
	}
	probed := m.stealOrder(byNode, cands, home)
	for _, c := range probed {
		if c != home && c.tryReserve(true) {
			return took(c)
		}
	}
	// Everyone probed is full: oversubscribe the least-loaded of the nodes
	// we looked at. Pick never fails on capacity, only on liveness.
	var least *local
	for _, c := range append(probed[:], home) {
		if c.isAlive() && (least == nil || c.load() < least.load()) {
			least = c
		}
	}
	if least != nil && least.tryReserve(false) {
		return took(least)
	}
	// Every node we looked at died behind the snapshot: rebuild it and take
	// any live node.
	m.mu.Lock()
	m.rebuildLocked()
	m.mu.Unlock()
	for _, c := range m.loadSnap().byBackend[spec.Backend] {
		if c.tryReserve(false) {
			return took(c)
		}
	}
	return idgen.Nil, errNoNodes(spec.Backend)
}

// stealOrder fills the probe list for a refused home. Locality-aware mode
// front-loads candidates holding the task's reference args, ranked like a
// DataLocality home; the rest of the probes are random.
func (m *Mesh) stealOrder(byNode map[idgen.NodeID]int64, cands []*local, home *local) [stealProbes]*local {
	var out [stealProbes]*local
	i := 0
	if m.localitySteal.Load() && len(byNode) > 0 {
		var holders []*local
		for _, c := range cands {
			if c != home && byNode[c.info.ID] > 0 {
				holders = append(holders, c)
			}
		}
		sort.Slice(holders, func(a, b int) bool { return prefer(byNode, holders[a], holders[b]) })
		i = copy(out[:], holders)
	}
	for ; i < stealProbes; i++ {
		out[i] = cands[splitmix64(m.seq.Add(1))%uint64(len(cands))]
	}
	return out
}

// PickCtx is Pick with trace annotation: placement is recorded as a
// sched-pick span on the task's trace, carrying the policy, backend, and
// chosen node.
func (m *Mesh) PickCtx(ctx context.Context, spec *task.Spec) (idgen.NodeID, error) {
	_, sp := trace.Start(ctx, trace.KindSchedPick, idgen.Nil)
	node, err := m.Pick(spec)
	if sp != nil {
		sp.SetAttr("policy", m.Policy().String())
		if spec.Backend != "" {
			sp.SetAttr("backend", spec.Backend)
		}
		if err == nil {
			sp.SetAttr("node", node.Short())
		} else {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}
	return node, err
}

// PickGang atomically places a gang: slots are reserved node by node,
// spread over distinct nodes first, and every reservation is rolled back
// if the gang cannot be fully placed.
func (m *Mesh) PickGang(specs []*task.Spec) ([]idgen.NodeID, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	for _, spec := range specs {
		if err := m.checkGate(spec); err != nil {
			return nil, err
		}
	}
	for _, spec := range specs[1:] {
		if spec.Backend != specs[0].Backend {
			return nil, fmt.Errorf("scheduler: gang mixes backends %q and %q", specs[0].Backend, spec.Backend)
		}
	}
	m.gangMu.Lock()
	defer m.gangMu.Unlock()
	cands := m.loadSnap().byBackend[specs[0].Backend]
	if len(cands) == 0 {
		return nil, errNoNodes(specs[0].Backend)
	}
	placements := make([]idgen.NodeID, 0, len(specs))
	reserved := make([]*local, 0, len(specs))
	rollback := func() {
		for _, l := range reserved {
			l.release()
		}
	}
	start := int(m.rr.Add(1) % uint64(len(cands)))
	for len(placements) < len(specs) {
		progressed := false
		for i := 0; i < len(cands) && len(placements) < len(specs); i++ {
			c := cands[(start+i)%len(cands)]
			if c.tryReserve(true) {
				reserved = append(reserved, c)
				placements = append(placements, c.info.ID)
				progressed = true
			}
		}
		if !progressed {
			rollback()
			alive := 0
			for _, c := range cands {
				if c.isAlive() {
					alive++
				}
			}
			if alive == 0 {
				return nil, errNoNodes(specs[0].Backend)
			}
			return nil, skaderr.Mark(skaderr.ResourceExhausted,
				fmt.Errorf("%w: need %d slots", ErrNoCapacity, len(specs)))
		}
	}
	return placements, nil
}

// Started accounts one in-flight task on a node placed outside Pick.
func (m *Mesh) Started(id idgen.NodeID) {
	if l, ok := m.loadSnap().byID[id]; ok {
		l.mu.Lock()
		l.inflight++
		l.mu.Unlock()
	}
}

// Finished releases one in-flight task and wakes capacity watchers.
func (m *Mesh) Finished(id idgen.NodeID) {
	if l, ok := m.loadSnap().byID[id]; ok {
		l.release()
		m.notifyCapacity()
	}
}

// Inflight returns a node's current in-flight count.
func (m *Mesh) Inflight(id idgen.NodeID) int {
	if l, ok := m.loadSnap().byID[id]; ok {
		return l.load()
	}
	return 0
}

// Steals returns the per-node steal counters (tasks a node accepted from
// another home's overflow).
func (m *Mesh) Steals() map[idgen.NodeID]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[idgen.NodeID]uint64, len(m.locals))
	for id, l := range m.locals {
		out[id] = l.steals.Load()
	}
	return out
}

// StealCount returns the total number of stolen placements.
func (m *Mesh) StealCount() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint64
	for _, l := range m.locals {
		n += l.steals.Load()
	}
	return n
}
