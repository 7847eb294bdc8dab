package chaos

import (
	"fmt"
	"runtime"
	"time"

	"skadi/internal/idgen"
	"skadi/internal/ownership"
	"skadi/internal/skaderr"
)

// Hygiene is one raylet's post-migration bookkeeping snapshot. The counts
// must be zero once an episode quiesces: leaks in these counters are the
// bugs migration stress is designed to catch.
type Hygiene struct {
	Node idgen.NodeID
	// Live marks a raylet whose node is up; only a live raylet may be an
	// actor's home.
	Live bool
	// FrozenActors counts actors still holding a migration freeze.
	FrozenActors int
	// HeldLocks counts actor locks still held.
	HeldLocks int
}

// TenantAccount is one tenant's accounting snapshot for invariant I6.
type TenantAccount struct {
	Tenant string
	// Submitted = Admitted + Rejected: every submit is decided.
	Submitted int64
	Admitted  int64
	Rejected  int64
	// Admitted = Completed + Failed + InFlight: every admitted task
	// concludes exactly once (Failed includes cancelled, deadline-exceeded,
	// and chaos-killed tasks that exhausted recovery).
	Completed int64
	Failed    int64
	InFlight  int64
	// Queued and Running must be zero at quiesce: no phantom slot or queue
	// occupancy survives HealChaos.
	Queued  int64
	Running int64
}

// View is the checker's window into the runtime — plain funcs, so the
// chaos package needs no runtime import and tests can fake any slice of
// the world.
type View struct {
	// PendingFutures lists object IDs still pending after quiesce.
	PendingFutures func() []idgen.ObjectID
	// FutureError returns the recorded typed failure cause for a
	// reference, nil if none was recorded.
	FutureError func(idgen.ObjectID) error
	// Records snapshots the ownership table.
	Records func() []ownership.Record
	// HasCopy reports whether node currently holds a full copy of id in
	// its live object store.
	HasCopy func(node idgen.NodeID, id idgen.ObjectID) bool
	// Redundant reports whether id would survive losing node's copy:
	// another verified replica, a DSM copy, or an EC parity group. Such
	// objects may legitimately list locations that re-fetch on demand.
	Redundant func(node idgen.NodeID, id idgen.ObjectID) bool
	// Hygiene snapshots every registered raylet's migration bookkeeping.
	Hygiene func() []Hygiene
	// ActorHomes maps every actor to the node its record names as home.
	ActorHomes func() map[idgen.ActorID]idgen.NodeID
	// Tenants snapshots per-tenant admission/completion accounting at
	// quiesce (nil when tenancy is inert).
	Tenants func() []TenantAccount
	// Durability snapshots the replicated shard-metadata state at quiesce
	// (nil, or a snapshot with Enabled false, when the control plane is
	// centralized or unreplicated).
	Durability func() *Durability
}

// Durability is the decentralized control plane's metadata-durability
// evidence at quiesce, judged by I7: replica promotions on node death must
// restore every directory entry, primaries and their successor replicas
// must agree once replication logs drain, and — when the data plane is
// itself replicated — no recovery may fall back to lineage replay.
type Durability struct {
	// Enabled marks a runtime running replicated shard metadata; snapshots
	// with Enabled false skip the check.
	Enabled bool
	// Promotions counts replica promotions (shards rebuilt from a ring
	// successor's copy after their primary died).
	Promotions uint64
	// Restored / LostEntries split the directory entries those promotions
	// recovered from replicas vs. the entries no replica covered. Any loss
	// is a violation: the replication log is drained before promotion, so
	// the replica must hold everything the primary committed.
	Restored, LostEntries uint64
	// Mismatches lists primary/replica divergences found at quiesce.
	Mismatches []string
	// LineageRecoveries counts lineage re-submissions: tasks re-run
	// because an object had no surviving copy. LineageForbidden marks
	// configurations (replicated data plane + replicated metadata) where a
	// re-submission means the directory lost track of a surviving copy — a
	// durability failure even though the answer comes out right.
	LineageRecoveries uint64
	LineageForbidden  bool
}

// Violation is one failed invariant.
type Violation struct {
	// Invariant is the short checker name (I1..I5).
	Invariant string
	Detail    string
}

// String renders the violation for failure messages.
func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Checker runs the cross-subsystem invariants after a chaos episode. Build
// one per episode *before* injecting faults: the constructor captures the
// goroutine baseline.
type Checker struct {
	view     View
	engine   *Engine
	baseline int
}

// goroutineSlack absorbs the runtime's own background variance (timer
// goroutines, finalizers, test harness). Leaks the checker hunts are
// per-message or per-task — they exceed this immediately under load.
const goroutineSlack = 10

// NewChecker captures the goroutine baseline and binds the view.
func NewChecker(view View, engine *Engine) *Checker {
	return &Checker{view: view, engine: engine, baseline: runtime.NumGoroutine()}
}

// Check runs every invariant and returns all violations (nil when clean).
// Call it only at quiesce: after the episode's faults are healed, all
// in-flight Gets returned, and the runtime drained.
func (c *Checker) Check() []Violation {
	var out []Violation
	out = append(out, c.checkFutures()...)
	out = append(out, c.checkOwnership()...)
	out = append(out, c.checkHygiene()...)
	out = append(out, c.checkGoroutines()...)
	out = append(out, c.checkAccounting()...)
	out = append(out, c.checkTenants()...)
	out = append(out, c.checkDurability()...)
	return out
}

// checkFutures — I1: every future still pending at quiesce must carry a
// typed cause; a pending future nobody will ever resolve and nobody can
// explain is the classic lost-wakeup bug.
func (c *Checker) checkFutures() []Violation {
	if c.view.PendingFutures == nil {
		return nil
	}
	var out []Violation
	for _, id := range c.view.PendingFutures() {
		err := error(nil)
		if c.view.FutureError != nil {
			err = c.view.FutureError(id)
		}
		if err == nil || skaderr.CodeOf(err) == skaderr.OK {
			out = append(out, Violation{
				Invariant: "I1-futures",
				Detail:    fmt.Sprintf("future %s pending with no typed cause (err=%v)", id.Short(), err),
			})
		}
	}
	return out
}

// checkOwnership — I2: the ownership table and actual residency must
// agree. A Ready record's every listed location must hold a copy (or the
// object must be recoverable redundantly); a Ready record with zero
// locations is self-contradictory.
func (c *Checker) checkOwnership() []Violation {
	if c.view.Records == nil {
		return nil
	}
	var out []Violation
	for _, rec := range c.view.Records() {
		if rec.State != ownership.Ready {
			continue
		}
		if len(rec.Locations) == 0 && rec.DeviceID.IsNil() {
			out = append(out, Violation{
				Invariant: "I2-ownership",
				Detail:    fmt.Sprintf("object %s ready with no locations", rec.ID.Short()),
			})
			continue
		}
		for _, loc := range rec.Locations {
			if c.view.HasCopy != nil && !c.view.HasCopy(loc, rec.ID) {
				if c.view.Redundant != nil && c.view.Redundant(loc, rec.ID) {
					continue
				}
				out = append(out, Violation{
					Invariant: "I2-ownership",
					Detail: fmt.Sprintf("object %s lists location %s but node holds no copy",
						rec.ID.Short(), loc.Short()),
				})
			}
		}
	}
	return out
}

// checkHygiene — I3: migration leaves nothing behind and every actor can
// be found. No frozen actors and no held locks anywhere, and every actor's
// record names a registered, live raylet.
func (c *Checker) checkHygiene() []Violation {
	if c.view.Hygiene == nil {
		return nil
	}
	var out []Violation
	live := make(map[idgen.NodeID]bool)
	for _, h := range c.view.Hygiene() {
		live[h.Node] = h.Live
		if h.FrozenActors > 0 {
			out = append(out, Violation{
				Invariant: "I3-migration",
				Detail:    fmt.Sprintf("node %s: %d actor(s) still frozen", h.Node.Short(), h.FrozenActors),
			})
		}
		if h.HeldLocks > 0 {
			out = append(out, Violation{
				Invariant: "I3-migration",
				Detail:    fmt.Sprintf("node %s: %d actor lock(s) still held", h.Node.Short(), h.HeldLocks),
			})
		}
	}
	if c.view.ActorHomes == nil {
		return out
	}
	for actor, home := range c.view.ActorHomes() {
		if !live[home] {
			out = append(out, Violation{
				Invariant: "I3-migration",
				Detail: fmt.Sprintf("actor %s: record names %s, not a registered live raylet",
					actor.Short(), home.Short()),
			})
		}
	}
	return out
}

// checkGoroutines — I4: goroutine count returns to the episode's baseline.
// Shutdown paths finish asynchronously, so poll with a deadline before
// declaring a leak.
func (c *Checker) checkGoroutines() []Violation {
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > c.baseline+goroutineSlack {
		if time.Now().After(deadline) {
			return []Violation{{
				Invariant: "I4-goroutines",
				Detail:    fmt.Sprintf("goroutines %d > baseline %d + slack %d", n, c.baseline, goroutineSlack),
			}}
		}
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return nil
}

// checkTenants — I6: per-tenant accounting balances at quiesce. Every
// submit was decided (admitted or rejected), every admitted task concluded
// exactly once, and no queue or slot occupancy is left over after
// HealChaos — a leaked grant or double-concluded task would starve or
// overfeed a tenant on every subsequent episode.
func (c *Checker) checkTenants() []Violation {
	if c.view.Tenants == nil {
		return nil
	}
	var out []Violation
	for _, a := range c.view.Tenants() {
		if a.Submitted != a.Admitted+a.Rejected {
			out = append(out, Violation{
				Invariant: "I6-tenancy",
				Detail: fmt.Sprintf("tenant %s: submitted %d != admitted %d + rejected %d",
					a.Tenant, a.Submitted, a.Admitted, a.Rejected),
			})
		}
		if a.Admitted != a.Completed+a.Failed+a.InFlight {
			out = append(out, Violation{
				Invariant: "I6-tenancy",
				Detail: fmt.Sprintf("tenant %s: admitted %d != completed %d + failed %d + in-flight %d",
					a.Tenant, a.Admitted, a.Completed, a.Failed, a.InFlight),
			})
		}
		if a.InFlight != 0 {
			out = append(out, Violation{
				Invariant: "I6-tenancy",
				Detail:    fmt.Sprintf("tenant %s: %d task(s) still in flight at quiesce", a.Tenant, a.InFlight),
			})
		}
		if a.Queued != 0 || a.Running != 0 {
			out = append(out, Violation{
				Invariant: "I6-tenancy",
				Detail: fmt.Sprintf("tenant %s: queued %d / running %d at quiesce, want 0/0",
					a.Tenant, a.Queued, a.Running),
			})
		}
	}
	return out
}

// checkAccounting — I5: every message the engine saw attempted is
// accounted delivered, dropped, or undeliverable — both counts and bytes.
// Failure-detector probes ride the transport, so even at quiesce the
// background gossip pump keeps a trickle of messages mid-flight (attempted
// but not yet resolved); poll briefly for a balanced snapshot. A true
// accounting leak never balances and is still reported.
func (c *Checker) checkAccounting() []Violation {
	if c.engine == nil {
		return nil
	}
	a := c.engine.Accounting()
	// One probe is bounded by its 50ms timeout; 250ms covers stragglers.
	for deadline := time.Now().Add(250 * time.Millisecond); !a.Balanced() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		a = c.engine.Accounting()
	}
	if !a.Balanced() {
		return []Violation{{
			Invariant: "I5-accounting",
			Detail: fmt.Sprintf(
				"attempted %d (%dB) != delivered %d (%dB) + dropped %d (%dB) + undeliverable %d (%dB)",
				a.Attempted, a.AttemptedBytes, a.Delivered, a.DeliveredBytes,
				a.Dropped, a.DroppedBytes, a.Undeliverable, a.UndeliverableBytes),
		}}
	}
	return nil
}

// checkDurability — I7: replicated shard metadata survives its primary.
// Promotions must lose nothing, primaries and replicas must agree at
// quiesce, and (when the configuration forbids it) no recovery may have
// fallen back to lineage replay.
func (c *Checker) checkDurability() []Violation {
	if c.view.Durability == nil {
		return nil
	}
	d := c.view.Durability()
	if d == nil || !d.Enabled {
		return nil
	}
	var out []Violation
	if d.LostEntries > 0 {
		out = append(out, Violation{
			Invariant: "I7-durability",
			Detail: fmt.Sprintf(
				"%d directory entries lost across %d promotions (%d restored from replicas)",
				d.LostEntries, d.Promotions, d.Restored),
		})
	}
	for _, m := range d.Mismatches {
		out = append(out, Violation{
			Invariant: "I7-durability",
			Detail:    "replica divergence at quiesce: " + m,
		})
	}
	if d.LineageForbidden && d.LineageRecoveries > 0 {
		out = append(out, Violation{
			Invariant: "I7-durability",
			Detail: fmt.Sprintf(
				"%d lineage replays despite replicated data + metadata (promotion should have restored the directory)",
				d.LineageRecoveries),
		})
	}
	return out
}
