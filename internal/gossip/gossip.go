// Package gossip implements SWIM-style failure detection for the
// decentralized control plane: every node keeps a local view of every
// other node's status (alive / suspect / dead) tagged with an incarnation
// number, probes a few random peers per protocol tick, and disseminates
// status changes piggybacked on those probes. A node that misses direct
// probes is marked suspect; if it does not refute the suspicion (by
// bumping its incarnation) within SuspectTicks it is declared dead.
//
// The implementation is deliberately deterministic and tick-driven: the
// cluster advances only when Tick is called, randomness comes from a
// seeded xorshift generator, and "the network" is a caller-supplied
// reachability oracle. That makes the protocol unit-testable (same seed →
// same event sequence) and lets the chaos engine's partitions double as
// gossip-visible faults. The runtime pumps Tick from a background loop and
// feeds the emitted events into the ownership shard ring and the work-
// stealing candidate set.
package gossip

import (
	"fmt"
	"sort"
	"sync"

	"skadi/internal/idgen"
)

// Status is a node's health as seen by the protocol.
type Status int

// Node statuses, ordered by precedence for equal incarnations: a Dead
// claim overrides Suspect, which overrides Alive.
const (
	Alive Status = iota
	Suspect
	Dead
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Event is a membership-status transition emitted by the cluster view.
type Event struct {
	Node        idgen.NodeID
	Status      Status
	Incarnation uint64
}

// Config tunes the detector.
type Config struct {
	// Seed drives the probe-target picker; same seed, same schedule.
	Seed uint64
	// ProbeFanout is how many peers each member probes per tick (k in
	// SWIM's terms; indirect probes are folded into the fanout).
	ProbeFanout int
	// SuspectTicks is how many ticks a suspect has to refute before it is
	// declared dead.
	SuspectTicks int
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 0x9e3779b97f4a7c15
	}
	if c.ProbeFanout <= 0 {
		c.ProbeFanout = 3
	}
	if c.SuspectTicks <= 0 {
		c.SuspectTicks = 3
	}
	return c
}

// memberState is the cluster-wide converged view of one member. This
// simulation keeps one authoritative view (dissemination latency is
// modeled by SuspectTicks, not by per-node view divergence); what SWIM
// buys — no central failure arbiter, refutation via incarnations, bounded
// detection time — is preserved.
type memberState struct {
	status      Status
	incarnation uint64
	suspectAge  int // ticks spent in Suspect
}

// Cluster is the failure detector. All methods are concurrency-safe.
type Cluster struct {
	mu      sync.Mutex
	cfg     Config
	rng     uint64
	members map[idgen.NodeID]*memberState
	order   []idgen.NodeID // deterministic iteration order (join order)
	reach   func(from, to idgen.NodeID) bool
	events  []Event
}

// New returns an empty cluster. reach is the network oracle: it reports
// whether a probe from one node can currently reach another (nil means
// everything is always reachable).
func New(cfg Config, reach func(from, to idgen.NodeID) bool) *Cluster {
	cfg = cfg.withDefaults()
	if reach == nil {
		reach = func(_, _ idgen.NodeID) bool { return true }
	}
	return &Cluster{
		cfg:     cfg,
		rng:     cfg.Seed,
		members: make(map[idgen.NodeID]*memberState),
		reach:   reach,
	}
}

// nextRand is xorshift64*, same generator the scheduler uses.
func (c *Cluster) nextRand() uint64 {
	x := c.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rng = x
	return x * 0x2545f4914f6cdd1d
}

// Join adds a member in the Alive state (or refutes its death: rejoining
// bumps the incarnation past the one it died with).
func (c *Cluster) Join(n idgen.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[n]
	if !ok {
		c.members[n] = &memberState{status: Alive}
		c.order = append(c.order, n)
		c.emitLocked(n, Alive, 0)
		return
	}
	if m.status != Alive {
		m.incarnation++
		m.status = Alive
		m.suspectAge = 0
		c.emitLocked(n, Alive, m.incarnation)
	}
}

// Leave removes a member entirely (planned decommission, not a failure).
func (c *Cluster) Leave(n idgen.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.members[n]; !ok {
		return
	}
	delete(c.members, n)
	for i, id := range c.order {
		if id == n {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

// DeclareDead force-transitions a member to Dead at its current
// incarnation — SWIM's "confirmed death" shortcut for faults the caller
// witnessed directly (the runtime's KillNode). No-op if already dead.
func (c *Cluster) DeclareDead(n idgen.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[n]
	if !ok || m.status == Dead {
		return
	}
	m.status = Dead
	m.suspectAge = 0
	c.emitLocked(n, Dead, m.incarnation)
}

// Refute is the suspect's side of the protocol: a live node that learns it
// is suspected bumps its incarnation, which overrides the suspicion
// cluster-wide. The runtime calls it for nodes that are reachable again
// (heal) before the suspect timer expires; Tick applies it automatically
// when a probe succeeds.
func (c *Cluster) Refute(n idgen.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.refuteLocked(n)
}

func (c *Cluster) refuteLocked(n idgen.NodeID) {
	m, ok := c.members[n]
	if !ok || m.status == Alive {
		return
	}
	m.incarnation++
	m.status = Alive
	m.suspectAge = 0
	c.emitLocked(n, Alive, m.incarnation)
}

// Tick advances the protocol one round: every alive member probes
// ProbeFanout random peers; unreachable peers become Suspect, reachable
// suspects refute back to Alive, and suspects older than SuspectTicks are
// declared Dead. Returns the events emitted this round.
func (c *Cluster) Tick() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	mark := len(c.events)
	if len(c.order) < 2 {
		return nil
	}

	// Probe phase: collect reachability verdicts from alive members.
	probed := make(map[idgen.NodeID]bool)   // target → any probe landed
	attempts := make(map[idgen.NodeID]bool) // target → any probe attempted
	for _, from := range c.order {
		fm := c.members[from]
		if fm == nil || fm.status == Dead {
			continue
		}
		for k := 0; k < c.cfg.ProbeFanout; k++ {
			to := c.order[c.nextRand()%uint64(len(c.order))]
			if to == from || c.members[to] == nil || c.members[to].status == Dead {
				continue
			}
			attempts[to] = true
			if c.reach(from, to) {
				probed[to] = true
			}
		}
	}

	// Transition phase.
	for _, n := range c.order {
		m := c.members[n]
		switch m.status {
		case Alive:
			if attempts[n] && !probed[n] {
				m.status = Suspect
				m.suspectAge = 0
				c.emitLocked(n, Suspect, m.incarnation)
			}
		case Suspect:
			if probed[n] {
				c.refuteLocked(n)
				continue
			}
			m.suspectAge++
			if m.suspectAge >= c.cfg.SuspectTicks {
				m.status = Dead
				m.suspectAge = 0
				c.emitLocked(n, Dead, m.incarnation)
			}
		}
	}
	out := make([]Event, len(c.events)-mark)
	copy(out, c.events[mark:])
	c.events = c.events[:mark]
	return out
}

// emitLocked appends an event to the pending buffer.
func (c *Cluster) emitLocked(n idgen.NodeID, s Status, inc uint64) {
	c.events = append(c.events, Event{Node: n, Status: s, Incarnation: inc})
}

// Drain returns events emitted outside Tick (Join/DeclareDead/Refute) and
// clears the buffer. Tick returns its own events directly.
func (c *Cluster) Drain() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.events
	c.events = nil
	return out
}

// Status returns a member's current status and incarnation (false if not a
// member).
func (c *Cluster) Status(n idgen.NodeID) (Status, uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[n]
	if !ok {
		return Dead, 0, false
	}
	return m.status, m.incarnation, true
}

// Counts returns how many members are alive, suspect, and dead — the
// `skadi -trace` gossip view.
func (c *Cluster) Counts() (alive, suspect, dead int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.members {
		switch m.status {
		case Alive:
			alive++
		case Suspect:
			suspect++
		case Dead:
			dead++
		}
	}
	return
}

// Members returns all member IDs, sorted.
func (c *Cluster) Members() []idgen.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]idgen.NodeID, len(c.order))
	copy(out, c.order)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
