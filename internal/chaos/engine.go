package chaos

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"skadi/internal/fabric"
	"skadi/internal/idgen"
	"skadi/internal/transport"
)

// Hooks are the runtime-level actions the engine drives for scheduled
// events. CrashNode/RestoreNode handle the fabric endpoint themselves;
// these hooks do the rest (transport down-marking, raylet teardown, state
// loss, scheduler bookkeeping).
type Hooks struct {
	Kill    func(idgen.NodeID)
	Restart func(idgen.NodeID)
}

// Accounting is a snapshot of the engine's message counters. Counts are
// per interposed message attempt; bytes include the transport's framing
// overhead as reported by the transports.
type Accounting struct {
	Attempted, Delivered, Dropped, Undeliverable, Duplicated         uint64
	AttemptedBytes, DeliveredBytes, DroppedBytes, UndeliverableBytes uint64
}

// Balanced reports whether every attempted message is accounted for as
// delivered, dropped, or undeliverable. Duplicates count as fresh attempts
// when the transports re-enter Intercept, so they balance naturally.
func (a Accounting) Balanced() bool {
	return a.Attempted == a.Delivered+a.Dropped+a.Undeliverable &&
		a.AttemptedBytes == a.DeliveredBytes+a.DroppedBytes+a.UndeliverableBytes
}

// linkKey identifies one directed link for the per-link decision counter.
type linkKey struct{ from, to idgen.NodeID }

// Engine executes a Plan against a live cluster. It implements
// transport.Interposer; install it on every transport with SetInterposer.
//
// Determinism: the verdict for the n-th message on a directed link is a
// pure function of (plan seed, from index, to index, rule index, n). Two
// runs that send the same message sequence per link get the same faults,
// regardless of how goroutines interleave across links.
type Engine struct {
	fabric *fabric.Fabric
	hooks  Hooks

	mu      sync.Mutex
	plan    *Plan
	nodes   []idgen.NodeID
	index   map[idgen.NodeID]int
	group   map[idgen.NodeID]int // partition side; absent/0 = majority
	parted  bool
	crashed map[idgen.NodeID]fabric.Location
	start   time.Time
	seq     uint64
	journal []string

	counters map[linkKey]*atomic.Uint64

	// epoch numbers the accounting episode: Install starts a new one, each
	// Verdict carries the epoch its message was attempted in, and an outcome
	// reported for an earlier epoch is ignored — that message's attempt was
	// wiped by the reset, so counting its delivery would unbalance the new
	// episode. Both are guarded by mu, so a reset cannot fall between an
	// attempt and its epoch stamp.
	epoch uint64
	acct  Accounting
}

// NewEngine builds an engine over a fabric with runtime hooks.
func NewEngine(f *fabric.Fabric, hooks Hooks) *Engine {
	return &Engine{
		fabric:   f,
		hooks:    hooks,
		index:    map[idgen.NodeID]int{},
		group:    map[idgen.NodeID]int{},
		crashed:  map[idgen.NodeID]fabric.Location{},
		counters: map[linkKey]*atomic.Uint64{},
	}
}

// Install arms the engine with a plan over an ordered node list. Node
// indices in the plan's events refer to positions in nodes. Counters,
// journal, and partition state reset; accounting starts a new epoch so each
// episode balances independently of messages still in flight from the last.
func (e *Engine) Install(p *Plan, nodes []idgen.NodeID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.plan = p
	e.nodes = append([]idgen.NodeID(nil), nodes...)
	e.index = make(map[idgen.NodeID]int, len(nodes))
	for i, n := range nodes {
		e.index[n] = i
	}
	e.group = map[idgen.NodeID]int{}
	e.parted = false
	e.counters = map[linkKey]*atomic.Uint64{}
	e.journal = e.journal[:0]
	e.seq = 0
	e.start = time.Now()
	e.epoch++
	e.acct = Accounting{}
	if p != nil {
		e.logLocked("install seed=%d rules=%d events=%d nodes=%d",
			p.Seed, len(p.Rules), len(p.Events), len(nodes))
	}
}

// Uninstall disarms the engine: no plan, no partitions, slow factors
// cleared. The journal survives for inspection.
func (e *Engine) Uninstall() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.plan = nil
	e.group = map[idgen.NodeID]int{}
	e.parted = false
	e.clearSlowLocked()
	e.logLocked("uninstall")
}

// Nodes returns the installed node list (episode ordering).
func (e *Engine) Nodes() []idgen.NodeID {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]idgen.NodeID(nil), e.nodes...)
}

// NodeAt maps a plan node index to its NodeID.
func (e *Engine) NodeAt(i int) (idgen.NodeID, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i < 0 || i >= len(e.nodes) {
		return idgen.Nil, false
	}
	return e.nodes[i], true
}

// slowClasses tracks which classes we set so Heal can clear them.
var allClasses = []fabric.LinkClass{
	fabric.Loopback, fabric.Island, fabric.DPUHop, fabric.Rack, fabric.Core, fabric.Durable,
}

func (e *Engine) clearSlowLocked() {
	for _, c := range allClasses {
		e.fabric.SetSlowFactor(c, 1)
	}
}

// SlowClass multiplies a link class's cost and journals it.
func (e *Engine) SlowClass(class fabric.LinkClass, factor float64) {
	e.fabric.SetSlowFactor(class, factor)
	e.mu.Lock()
	e.logLocked("slow-class class=%v factor=%g", class, factor)
	e.mu.Unlock()
}

// Partition splits the node universe into groups; messages crossing group
// boundaries drop. Nodes not named fall into group 0.
func (e *Engine) Partition(groups ...[]idgen.NodeID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.group = map[idgen.NodeID]int{}
	for gi, g := range groups {
		for _, n := range g {
			e.group[n] = gi + 1
		}
	}
	e.parted = true
	e.logLocked("partition groups=%d", len(groups))
}

// HealPartition clears all partitions (message rules stay armed).
func (e *Engine) HealPartition() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.group = map[idgen.NodeID]int{}
	e.parted = false
	e.clearSlowLocked()
	e.logLocked("heal")
}

// Partitioned reports whether a and b are currently on different sides.
func (e *Engine) Partitioned(a, b idgen.NodeID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.parted && e.group[a] != e.group[b]
}

// CrashNode kills a node through the hooks, saving its fabric location and
// unregistering its endpoint so in-flight chunked transfers fail typed.
func (e *Engine) CrashNode(n idgen.NodeID) {
	e.mu.Lock()
	if loc, ok := e.fabric.Location(n); ok {
		e.crashed[n] = loc
	}
	e.logLocked("crash node=%s idx=%d", n.Short(), e.index[n])
	e.mu.Unlock()
	e.fabric.Unregister(n)
	if e.hooks.Kill != nil {
		e.hooks.Kill(n)
	}
}

// RestoreNode restarts a previously crashed node: re-registers its fabric
// endpoint at the saved location and runs the restart hook.
func (e *Engine) RestoreNode(n idgen.NodeID) {
	e.mu.Lock()
	loc, ok := e.crashed[n]
	delete(e.crashed, n)
	e.logLocked("restart node=%s idx=%d", n.Short(), e.index[n])
	e.mu.Unlock()
	if ok {
		e.fabric.Register(n, loc)
	}
	if e.hooks.Restart != nil {
		e.hooks.Restart(n)
	}
}

// Intercept implements transport.Interposer. It must be cheap and
// lock-light: partition checks take the mutex briefly; probabilistic
// verdicts are lock-free hashes over atomic per-link counters.
func (e *Engine) Intercept(from, to idgen.NodeID, kind string, size int) transport.Verdict {
	e.mu.Lock()
	v := transport.Verdict{Epoch: e.epoch}
	e.acct.Attempted++
	e.acct.AttemptedBytes += uint64(size)
	p := e.plan
	// Partitions apply with or without an armed plan: tests raise ad-hoc
	// partitions via Partition(), and transport traffic (including gossip
	// probes — the failure detector rides the same wire) must see them.
	if e.parted && e.group[from] != e.group[to] {
		e.logLocked("partition-drop %s->%s kind=%s size=%d", from.Short(), to.Short(), kind, size)
		e.acct.Dropped++
		e.acct.DroppedBytes += uint64(size)
		e.mu.Unlock()
		v.Drop = true
		return v
	}
	if p == nil {
		e.mu.Unlock()
		return v
	}
	fi, fok := e.index[from]
	ti, tok := e.index[to]
	ctr := e.counterLocked(from, to)
	e.mu.Unlock()

	if !fok || !tok || len(p.Rules) == 0 {
		return v
	}
	class := e.fabric.ClassBetween(from, to)
	n := ctr.Add(1) - 1

	for ri := range p.Rules {
		r := &p.Rules[ri]
		if !r.matches(kind, class) {
			continue
		}
		// One hash chain per (seed, link, rule, message); distinct salts
		// decorrelate the three decisions.
		h := mix(uint64(p.Seed), uint64(fi)<<32|uint64(ti), uint64(ri), n)
		if r.DropPct > 0 && int(mix(h, 0xd09)%100) < r.DropPct {
			e.mu.Lock()
			e.logLocked("rule-drop rule=%s %s->%s kind=%s n=%d size=%d", r.Name, from.Short(), to.Short(), kind, n, size)
			if e.epoch == v.Epoch {
				e.acct.Dropped++
				e.acct.DroppedBytes += uint64(size)
			}
			e.mu.Unlock()
			return transport.Verdict{Epoch: v.Epoch, Drop: true}
		}
		if r.DelayPct > 0 && int(mix(h, 0xde1)%100) < r.DelayPct && r.Delay > v.Delay {
			v.Delay = r.Delay
		}
		if r.DupPct > 0 && int(mix(h, 0xd0b)%100) < r.DupPct {
			v.Duplicate = true
		}
	}
	if v.Delay > 0 || v.Duplicate {
		e.mu.Lock()
		if v.Delay > 0 {
			e.logLocked("rule-delay %s->%s kind=%s n=%d delay=%s", from.Short(), to.Short(), kind, n, v.Delay)
		}
		if v.Duplicate {
			if e.epoch == v.Epoch {
				e.acct.Duplicated++
			}
			e.logLocked("rule-dup %s->%s kind=%s n=%d", from.Short(), to.Short(), kind, n)
		}
		e.mu.Unlock()
	}
	return v
}

// Delivered implements transport.Interposer accounting.
func (e *Engine) Delivered(v transport.Verdict, from, to idgen.NodeID, kind string, size int) {
	e.mu.Lock()
	if e.epoch == v.Epoch {
		e.acct.Delivered++
		e.acct.DeliveredBytes += uint64(size)
	}
	e.mu.Unlock()
}

// Undeliverable implements transport.Interposer accounting: the message
// was attempted but the substrate refused it (endpoint down, context
// cancelled, charge failed).
func (e *Engine) Undeliverable(v transport.Verdict, from, to idgen.NodeID, kind string, size int) {
	e.mu.Lock()
	if e.epoch == v.Epoch {
		e.acct.Undeliverable++
		e.acct.UndeliverableBytes += uint64(size)
	}
	e.mu.Unlock()
}

// Accounting returns a snapshot of the current epoch's counters. Only
// meaningful at quiesce (after transports drain); mid-flight the attempted
// counter leads the outcome counters.
func (e *Engine) Accounting() Accounting {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.acct
}

func (e *Engine) counterLocked(from, to idgen.NodeID) *atomic.Uint64 {
	k := linkKey{from, to}
	c := e.counters[k]
	if c == nil {
		c = &atomic.Uint64{}
		e.counters[k] = c
	}
	return c
}

// logLocked appends a journal line; caller holds e.mu.
func (e *Engine) logLocked(format string, args ...any) {
	e.seq++
	el := time.Duration(0)
	if !e.start.IsZero() {
		el = time.Since(e.start)
	}
	e.journal = append(e.journal,
		fmt.Sprintf("%06d %12s %s", e.seq, el.Round(time.Microsecond), fmt.Sprintf(format, args...)))
}

// Journal returns a copy of the event journal.
func (e *Engine) Journal() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.journal...)
}

// WriteJournal dumps the journal, one line per event.
func (e *Engine) WriteJournal(w io.Writer) error {
	for _, line := range e.Journal() {
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}
