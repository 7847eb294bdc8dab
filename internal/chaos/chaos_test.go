package chaos

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"skadi/internal/fabric"
	"skadi/internal/idgen"
	"skadi/internal/ownership"
	"skadi/internal/skaderr"
	"skadi/internal/transport"
)

// testCluster registers n nodes on a fresh accounting-only fabric.
func testCluster(n int) (*fabric.Fabric, []idgen.NodeID) {
	f := fabric.New(fabric.Config{})
	nodes := make([]idgen.NodeID, n)
	for i := range nodes {
		nodes[i] = idgen.Next()
		f.Register(nodes[i], fabric.Location{Rack: i % 2, Island: -1})
	}
	return f, nodes
}

// script replays a fixed message sequence through an engine and renders
// every verdict deterministically.
func script(e *Engine, nodes []idgen.NodeID) string {
	var sb strings.Builder
	kinds := []string{"sched.exec", "own.subscribe", "get", "push", "migrate.freeze"}
	for i := 0; i < 400; i++ {
		from := nodes[i%len(nodes)]
		to := nodes[(i+1+i/len(nodes))%len(nodes)]
		kind := kinds[i%len(kinds)]
		size := 64 + (i%7)*1000
		v := e.Intercept(from, to, kind, size)
		fmt.Fprintf(&sb, "%03d drop=%v delay=%s dup=%v\n", i, v.Drop, v.Delay, v.Duplicate)
		// Close the accounting loop the way a transport would.
		if !v.Drop {
			e.Delivered(v, from, to, kind, size)
		}
	}
	return sb.String()
}

// TestChaosReplay is the acceptance gate for determinism: the same seed
// must regenerate the byte-identical plan AND the byte-identical
// per-message verdict stream across independent engines. Run with
// -chaos.seed=N to replay any seed.
func TestChaosReplay(t *testing.T) {
	seed := FlagSeed()
	cfg := GenConfig{Faultable: []int{1, 2, 3}, Window: 10 * time.Millisecond, Mix: MixAll}

	p1 := Generate(seed, cfg)
	p2 := Generate(seed, cfg)
	if p1.String() != p2.String() {
		t.Fatalf("plan not reproducible for seed %d:\n--- first\n%s--- second\n%s", seed, p1, p2)
	}

	f1, nodes := testCluster(4)
	e1 := NewEngine(f1, Hooks{})
	e1.Install(p1, nodes)
	s1 := script(e1, nodes)

	// A second engine over the same topology — fresh counters, same seed.
	f2 := fabric.New(fabric.Config{})
	for i, n := range nodes {
		f2.Register(n, fabric.Location{Rack: i % 2, Island: -1})
	}
	e2 := NewEngine(f2, Hooks{})
	e2.Install(p2, nodes)
	s2 := script(e2, nodes)

	if s1 != s2 {
		t.Fatalf("verdict stream not byte-identical for seed %d; replay with -chaos.seed=%d", seed, seed)
	}
	if !e1.Accounting().Balanced() {
		t.Fatalf("accounting unbalanced after scripted episode: %+v", e1.Accounting())
	}
}

// TestGenerateVariesWithSeed guards against the generator collapsing to a
// constant plan.
func TestGenerateVariesWithSeed(t *testing.T) {
	cfg := GenConfig{Faultable: []int{1, 2, 3, 4}, Window: 10 * time.Millisecond, Mix: MixAll}
	distinct := map[string]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		distinct[Generate(seed, cfg).String()] = true
	}
	if len(distinct) < 4 {
		t.Fatalf("only %d distinct plans across 8 seeds", len(distinct))
	}
}

// TestVerdictsIndependentOfInterleaving drives two links in opposite
// orders and requires identical per-link verdict streams: fault decisions
// must hash from per-link sequence numbers, never global state.
func TestVerdictsIndependentOfInterleaving(t *testing.T) {
	plan := &Plan{Seed: 42, Rules: []Rule{
		{Name: "drop", DropPct: 20},
		{Name: "delay", DelayPct: 30, Delay: time.Millisecond},
	}}
	run := func(abFirst bool) (a, b string) {
		f, nodes := testCluster(3)
		e := NewEngine(f, Hooks{})
		e.Install(plan, nodes)
		var sa, sb strings.Builder
		for i := 0; i < 100; i++ {
			ab := func() {
				v := e.Intercept(nodes[0], nodes[1], "get", 128)
				fmt.Fprintf(&sa, "%v/%s ", v.Drop, v.Delay)
			}
			ba := func() {
				v := e.Intercept(nodes[1], nodes[2], "get", 128)
				fmt.Fprintf(&sb, "%v/%s ", v.Drop, v.Delay)
			}
			if abFirst {
				ab()
				ba()
			} else {
				ba()
				ab()
			}
		}
		return sa.String(), sb.String()
	}
	a1, b1 := run(true)
	a2, b2 := run(false)
	if a1 != a2 || b1 != b2 {
		t.Fatal("per-link verdict streams depend on interleaving order")
	}
}

// TestPartitionDropsCrossSide checks partition semantics: cross-side
// messages drop, same-side messages pass, and heal restores everything.
func TestPartitionDropsCrossSide(t *testing.T) {
	f, nodes := testCluster(4)
	e := NewEngine(f, Hooks{})
	e.Install(&Plan{Seed: 7}, nodes)

	e.Partition([]idgen.NodeID{nodes[2], nodes[3]})
	if !e.Partitioned(nodes[0], nodes[2]) {
		t.Fatal("nodes 0 and 2 should be partitioned")
	}
	if e.Partitioned(nodes[2], nodes[3]) {
		t.Fatal("nodes 2 and 3 share a side")
	}
	if v := e.Intercept(nodes[0], nodes[2], "get", 64); !v.Drop {
		t.Fatal("cross-side message must drop")
	}
	v := e.Intercept(nodes[2], nodes[3], "get", 64)
	if v.Drop {
		t.Fatal("same-side message must pass")
	}
	e.Delivered(v, nodes[2], nodes[3], "get", 64)

	e.HealPartition()
	if e.Partitioned(nodes[0], nodes[2]) {
		t.Fatal("heal must clear the partition")
	}
	v = e.Intercept(nodes[0], nodes[2], "get", 64)
	if v.Drop {
		t.Fatal("post-heal message must pass")
	}
	e.Delivered(v, nodes[0], nodes[2], "get", 64)

	a := e.Accounting()
	if !a.Balanced() {
		t.Fatalf("unbalanced: %+v", a)
	}
	if a.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", a.Dropped)
	}
}

// TestCrashRestoreFabricEndpoint checks that CrashNode unregisters the
// fabric endpoint (in-flight transfers fail typed) and RestoreNode
// re-registers it at the saved location.
func TestCrashRestoreFabricEndpoint(t *testing.T) {
	f, nodes := testCluster(3)
	var killed, restarted []idgen.NodeID
	e := NewEngine(f, Hooks{
		Kill:    func(n idgen.NodeID) { killed = append(killed, n) },
		Restart: func(n idgen.NodeID) { restarted = append(restarted, n) },
	})
	e.Install(&Plan{Seed: 1}, nodes)

	e.CrashNode(nodes[1])
	if _, err := f.Move(t.Context(), nodes[0], nodes[1], nil, 64); skaderr.CodeOf(err) != skaderr.Unavailable {
		t.Fatalf("send to crashed node: err = %v, want Unavailable", err)
	}
	if len(killed) != 1 || killed[0] != nodes[1] {
		t.Fatalf("kill hook saw %v", killed)
	}

	e.RestoreNode(nodes[1])
	if _, err := f.Move(t.Context(), nodes[0], nodes[1], nil, 64); err != nil {
		t.Fatalf("send after restore: %v", err)
	}
	if loc, ok := f.Location(nodes[1]); !ok || loc.Rack != 1 {
		t.Fatalf("restored location = %+v ok=%v, want original rack 1", loc, ok)
	}
	if len(restarted) != 1 || restarted[0] != nodes[1] {
		t.Fatalf("restart hook saw %v", restarted)
	}
}

// TestRuleMatching covers kind-prefix and class filters.
func TestRuleMatching(t *testing.T) {
	r := Rule{Kinds: []string{"own.", "get"}, Classes: []fabric.LinkClass{fabric.Core}}
	cases := []struct {
		kind  string
		class fabric.LinkClass
		want  bool
	}{
		{"own.subscribe", fabric.Core, true},
		{"get", fabric.Core, true},
		{"getx", fabric.Core, true}, // prefix semantics
		{"sched.exec", fabric.Core, false},
		{"own.subscribe", fabric.Rack, false},
	}
	for _, c := range cases {
		if got := r.matches(c.kind, c.class); got != c.want {
			t.Errorf("matches(%q, %v) = %v, want %v", c.kind, c.class, got, c.want)
		}
	}
	all := Rule{}
	if !all.matches("anything", fabric.Loopback) {
		t.Error("empty rule must match everything")
	}
}

// fakeID builds a distinct object id for checker fakes.
func fakeID() idgen.ObjectID { return idgen.Next() }

// TestCheckerFutures exercises I1 with a fake view: a pending future with
// no typed cause is a violation; one with a typed cause is not.
func TestCheckerFutures(t *testing.T) {
	orphan, explained := fakeID(), fakeID()
	v := View{
		PendingFutures: func() []idgen.ObjectID { return []idgen.ObjectID{orphan, explained} },
		FutureError: func(id idgen.ObjectID) error {
			if id == explained {
				return skaderr.New(skaderr.Unavailable, "node died")
			}
			return nil
		},
	}
	got := NewChecker(v, nil).Check()
	if len(got) != 1 || got[0].Invariant != "I1-futures" {
		t.Fatalf("violations = %v, want exactly one I1", got)
	}
	if !strings.Contains(got[0].Detail, orphan.Short()) {
		t.Fatalf("violation should name the orphan: %s", got[0].Detail)
	}
}

// TestCheckerOwnership exercises I2 with a fake view: a ready record whose
// listed location holds no copy is a violation unless redundant.
func TestCheckerOwnership(t *testing.T) {
	node := idgen.Next()
	missing, cached, held := fakeID(), fakeID(), fakeID()
	v := View{
		Records: func() []ownership.Record {
			return []ownership.Record{
				{ID: missing, State: ownership.Ready, Locations: []idgen.NodeID{node}},
				{ID: cached, State: ownership.Ready, Locations: []idgen.NodeID{node}},
				{ID: held, State: ownership.Ready, Locations: []idgen.NodeID{node}},
			}
		},
		HasCopy:   func(n idgen.NodeID, id idgen.ObjectID) bool { return id == held },
		Redundant: func(n idgen.NodeID, id idgen.ObjectID) bool { return id == cached },
	}
	got := NewChecker(v, nil).Check()
	if len(got) != 1 || got[0].Invariant != "I2-ownership" {
		t.Fatalf("violations = %v, want exactly one I2", got)
	}
}

// TestCheckerHygiene exercises I3 with a fake view.
func TestCheckerHygiene(t *testing.T) {
	node := idgen.Next()
	v := View{
		Hygiene: func() []Hygiene {
			return []Hygiene{{Node: node, Live: true, FrozenActors: 1, HeldLocks: 2}}
		},
	}
	got := NewChecker(v, nil).Check()
	if len(got) != 2 {
		t.Fatalf("violations = %v, want frozen + locks", got)
	}
	// A record naming a live raylet is fine; one naming a removed node or
	// a dead raylet is not.
	dead, removed := idgen.Next(), idgen.Next()
	v.Hygiene = func() []Hygiene {
		return []Hygiene{{Node: node, Live: true}, {Node: dead}}
	}
	v.ActorHomes = func() map[idgen.ActorID]idgen.NodeID {
		return map[idgen.ActorID]idgen.NodeID{idgen.Next(): node, idgen.Next(): removed, idgen.Next(): dead}
	}
	got = NewChecker(v, nil).Check()
	if len(got) != 2 || got[0].Invariant != "I3-migration" || got[1].Invariant != "I3-migration" {
		t.Fatalf("violations = %v, want two I3 records naming no live raylet", got)
	}
}

// TestCheckerTenants exercises I6 with fake views: accounting that does
// not balance — a submit never decided, an admitted task never concluded,
// or leftover queue/slot occupancy — is a violation; balanced books with a
// mix of completions, failures, and rejections are not.
func TestCheckerTenants(t *testing.T) {
	cases := []struct {
		name    string
		account TenantAccount
		want    int
	}{
		{"balanced", TenantAccount{
			Tenant: "a", Submitted: 10, Admitted: 8, Rejected: 2,
			Completed: 5, Failed: 3,
		}, 0},
		{"submit-undecided", TenantAccount{
			Tenant: "a", Submitted: 10, Admitted: 8, Rejected: 1,
			Completed: 8,
		}, 1},
		{"task-never-concluded", TenantAccount{
			Tenant: "a", Submitted: 8, Admitted: 8,
			Completed: 7, InFlight: 1,
		}, 1}, // in-flight balances the identity but violates quiesce
		{"phantom-occupancy", TenantAccount{
			Tenant: "a", Submitted: 4, Admitted: 4, Completed: 4,
			Queued: 1, Running: 1,
		}, 1},
	}
	for _, tc := range cases {
		v := View{Tenants: func() []TenantAccount { return []TenantAccount{tc.account} }}
		got := NewChecker(v, nil).Check()
		if len(got) != tc.want {
			t.Errorf("%s: violations = %v, want %d", tc.name, got, tc.want)
			continue
		}
		for _, viol := range got {
			if viol.Invariant != "I6-tenancy" {
				t.Errorf("%s: invariant = %s, want I6-tenancy", tc.name, viol.Invariant)
			}
		}
	}
}

// TestCheckerAccounting exercises I5 directly on an engine: an Intercept
// with no matching outcome callback is exactly the imbalance I5 catches.
func TestCheckerAccounting(t *testing.T) {
	f, nodes := testCluster(2)
	e := NewEngine(f, Hooks{})
	e.Install(&Plan{Seed: 1}, nodes)
	c := NewChecker(View{}, e)

	v := e.Intercept(nodes[0], nodes[1], "get", 4096)
	// No Delivered/Undeliverable: the message vanished.
	got := c.Check()
	if len(got) != 1 || got[0].Invariant != "I5-accounting" {
		t.Fatalf("violations = %v, want exactly one I5", got)
	}
	e.Undeliverable(v, nodes[0], nodes[1], "get", 4096)
	if got := c.Check(); len(got) != 0 {
		t.Fatalf("balanced engine still flagged: %v", got)
	}
}

// TestJournalRecordsFaults checks that injected faults land in the journal
// and that WriteJournal renders them.
func TestJournalRecordsFaults(t *testing.T) {
	f, nodes := testCluster(2)
	e := NewEngine(f, Hooks{})
	e.Install(&Plan{Seed: 3, Rules: []Rule{{Name: "always", DropPct: 100}}}, nodes)
	e.Intercept(nodes[0], nodes[1], "get", 64)
	var sb strings.Builder
	if err := e.WriteJournal(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "rule-drop") {
		t.Fatalf("journal missing rule-drop:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "install seed=3") {
		t.Fatalf("journal missing install line:\n%s", sb.String())
	}
}

// TestUninstalledEngineIsTransparent — with no plan armed, every verdict
// is a no-op pass-through.
func TestUninstalledEngineIsTransparent(t *testing.T) {
	f, nodes := testCluster(2)
	e := NewEngine(f, Hooks{})
	for i := 0; i < 50; i++ {
		v := e.Intercept(nodes[0], nodes[1], "get", 64)
		if v.Drop || v.Delay != 0 || v.Duplicate {
			t.Fatal("uninstalled engine injected a fault")
		}
		e.Delivered(v, nodes[0], nodes[1], "get", 64)
	}
	if !e.Accounting().Balanced() {
		t.Fatal("transparent engine unbalanced")
	}
}

// Interface conformance pinned at compile time.
var _ transport.Interposer = (*Engine)(nil)

// TestCheckerDurability exercises I7 with fake views: lost entries,
// replica divergence, and forbidden lineage replays are each violations;
// clean promotions — and lineage replays in configurations that permit
// them — are not.
func TestCheckerDurability(t *testing.T) {
	cases := []struct {
		name string
		d    *Durability
		want int
	}{
		{"disabled", &Durability{Enabled: false, LostEntries: 9}, 0},
		{"nil", nil, 0},
		{"clean promotion", &Durability{Enabled: true, Promotions: 2, Restored: 40}, 0},
		{"lost entries", &Durability{Enabled: true, Promotions: 1, Restored: 10, LostEntries: 3}, 1},
		{"divergence", &Durability{Enabled: true, Mismatches: []string{"shard x: entry y missing"}}, 1},
		{"forbidden replay", &Durability{Enabled: true, LineageRecoveries: 4, LineageForbidden: true}, 1},
		{"permitted replay", &Durability{Enabled: true, LineageRecoveries: 4, LineageForbidden: false}, 0},
		{"everything wrong", &Durability{
			Enabled: true, LostEntries: 1,
			Mismatches:        []string{"a", "b"},
			LineageRecoveries: 1, LineageForbidden: true,
		}, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := View{Durability: func() *Durability { return tc.d }}
			got := NewChecker(v, nil).Check()
			if len(got) != tc.want {
				t.Fatalf("violations = %v, want %d", got, tc.want)
			}
			for _, viol := range got {
				if viol.Invariant != "I7-durability" {
					t.Fatalf("invariant = %q, want I7-durability", viol.Invariant)
				}
			}
		})
	}
}

// TestAccountingIgnoresEarlierEpoch: a message attempted before Install and
// resolved after it belongs to no episode — its attempt was wiped by the
// reset, so its outcome must not count. Before verdicts carried an epoch
// this left delivered > attempted (I5) whenever traffic straddled Install.
func TestAccountingIgnoresEarlierEpoch(t *testing.T) {
	f, nodes := testCluster(2)
	e := NewEngine(f, Hooks{})
	e.Install(&Plan{Seed: 1}, nodes)
	early := e.Intercept(nodes[0], nodes[1], "get", 64)
	stuck := e.Intercept(nodes[1], nodes[0], "get", 128)

	e.Install(&Plan{Seed: 2}, nodes)
	e.Delivered(early, nodes[0], nodes[1], "get", 64)
	e.Undeliverable(stuck, nodes[1], nodes[0], "get", 128)
	if a := e.Accounting(); a != (Accounting{}) {
		t.Fatalf("outcomes of the previous epoch leaked into the new one: %+v", a)
	}

	v := e.Intercept(nodes[0], nodes[1], "get", 64)
	e.Delivered(v, nodes[0], nodes[1], "get", 64)
	if a := e.Accounting(); a.Attempted != 1 || a.Delivered != 1 || !a.Balanced() {
		t.Fatalf("current epoch miscounted: %+v", a)
	}
}

// TestAccountingBalancesAcrossConcurrentInstall hammers Intercept/outcome
// pairs from several goroutines while Install keeps resetting the episode;
// once traffic stops, whatever epoch is current must balance.
func TestAccountingBalancesAcrossConcurrentInstall(t *testing.T) {
	f, nodes := testCluster(4)
	e := NewEngine(f, Hooks{})
	plan := &Plan{Seed: 9, Rules: []Rule{{Name: "mix", DropPct: 20, DupPct: 20}}}
	e.Install(plan, nodes)
	stop := make(chan struct{})
	var senders sync.WaitGroup
	for g := 0; g < 4; g++ {
		senders.Add(1)
		go func(g int) {
			defer senders.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				from, to := nodes[g], nodes[(g+1+i%3)%4]
				v := e.Intercept(from, to, "get", 64+i%100)
				switch {
				case v.Drop:
				case i%5 == 0:
					e.Undeliverable(v, from, to, "get", 64+i%100)
				default:
					e.Delivered(v, from, to, "get", 64+i%100)
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		e.Install(plan, nodes)
		if a := e.Accounting(); a.Delivered+a.Dropped+a.Undeliverable > a.Attempted {
			close(stop)
			senders.Wait()
			t.Fatalf("install %d: outcomes exceed attempts: %+v", i, a)
		}
	}
	close(stop)
	senders.Wait()
	if a := e.Accounting(); !a.Balanced() {
		t.Fatalf("unbalanced at quiesce: %+v", a)
	}
}
