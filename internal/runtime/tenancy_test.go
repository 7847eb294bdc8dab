package runtime

import (
	"context"
	goruntime "runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skadi/internal/chaos"
	"skadi/internal/idgen"
	"skadi/internal/skaderr"
	"skadi/internal/task"
	"skadi/internal/tenancy"
)

// tenantRuntime boots a small cluster with the multi-tenant control plane
// armed: fair-share scheduling plus (optionally) preemption.
func tenantRuntime(t *testing.T, servers, slots int, preempt bool) *Runtime {
	t.Helper()
	rt, err := New(ClusterSpec{
		Servers: servers, ServerSlots: slots, ServerMemBytes: 64 << 20,
	}, Options{Tenancy: tenancy.Options{FairShare: true, Preemption: preempt}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Shutdown)
	return rt
}

// waitTenantQueued polls until the tenant's pending-queue depth reaches
// want — submits conclude asynchronously, so tests synchronize on the
// accounting snapshot rather than sleeping.
func waitTenantQueued(t *testing.T, rt *Runtime, tenant string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for rt.Tenancy.Account(tenant).Queued != want {
		if time.Now().After(deadline) {
			t.Fatalf("tenant %q queued = %d, want %d (timed out)",
				tenant, rt.Tenancy.Account(tenant).Queued, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTenantAdmissionRejectsTyped drives the bounded pending queue end to
// end: with every worker slot held and the queue full, one more submit
// fails its future fast with a typed skaderr.ResourceExhausted — no
// dispatch machinery spins up for it, and the queued work still completes.
func TestTenantAdmissionRejectsTyped(t *testing.T) {
	rt := tenantRuntime(t, 1, 2, false)
	if err := rt.RegisterTenant(tenancy.Config{Name: "ant"}); err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	registerBlockerCount(rt, "block", 2, started, release)
	ctx := tenancy.ContextWith(context.Background(), "ant")

	var held []idgen.ObjectID
	for i := 0; i < 2; i++ {
		held = append(held, rt.SubmitCtx(ctx, task.NewSpec(rt.Job(), "block", nil, 1))...)
	}
	<-started

	// Third submit takes a pending-queue seat and parks at the fair-share
	// slot gate; only then is the queue bound tightened to 1, so the slot
	// handoff of the first two submits never races the bound.
	queued := rt.SubmitCtx(ctx, task.NewSpec(rt.Job(), "block", nil, 1))
	waitTenantQueued(t, rt, "ant", 1)
	if err := rt.RegisterTenant(tenancy.Config{Name: "ant", MaxPending: 1}); err != nil {
		t.Fatal(err)
	}

	// Fourth overflows the bounded queue: typed fail-fast rejection.
	rejected := rt.SubmitCtx(ctx, task.NewSpec(rt.Job(), "block", nil, 1))
	gctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := rt.Get(gctx, rejected[0]); skaderr.CodeOf(err) != skaderr.ResourceExhausted {
		t.Fatalf("over-queue Get = %v, want skaderr.ResourceExhausted", err)
	}

	// The rejection cost the queued work nothing: everything admitted runs.
	close(release)
	for i, ref := range append(held, queued...) {
		if data, err := rt.Get(gctx, ref); err != nil || string(data) != "done" {
			t.Fatalf("admitted task %d = %q, %v", i, data, err)
		}
	}
	rt.Drain()
	a := rt.Tenancy.Account("ant")
	if a.Submitted != 4 || a.Admitted != 3 || a.Rejected != 1 || a.Completed != 3 {
		t.Errorf("account = %+v, want 4 submitted / 3 admitted / 1 rejected / 3 completed", a)
	}
}

// TestTenantBackpressureBlocksSubmit: with WithBlock the same over-queue
// submit parks instead of rejecting, and completes once capacity frees.
func TestTenantBackpressureBlocksSubmit(t *testing.T) {
	rt := tenantRuntime(t, 1, 2, false)
	if err := rt.RegisterTenant(tenancy.Config{Name: "bp"}); err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	registerBlockerCount(rt, "block", 2, started, release)
	ctx := tenancy.ContextWith(context.Background(), "bp")

	var held []idgen.ObjectID
	for i := 0; i < 2; i++ {
		held = append(held, rt.SubmitCtx(ctx, task.NewSpec(rt.Job(), "block", nil, 1))...)
	}
	<-started
	queued := rt.SubmitCtx(ctx, task.NewSpec(rt.Job(), "block", nil, 1))
	waitTenantQueued(t, rt, "bp", 1)
	if err := rt.RegisterTenant(tenancy.Config{Name: "bp", MaxPending: 1}); err != nil {
		t.Fatal(err)
	}

	// This submit finds the queue full and blocks inside SubmitCtx.
	submitted := make(chan []idgen.ObjectID, 1)
	go func() {
		submitted <- rt.SubmitCtx(tenancy.WithBlock(ctx, true),
			task.NewSpec(rt.Job(), "block", nil, 1))
	}()
	select {
	case <-submitted:
		t.Fatal("blocking submit returned with the queue still full")
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	var last []idgen.ObjectID
	select {
	case last = <-submitted:
	case <-time.After(10 * time.Second):
		t.Fatal("blocking submit never unblocked after capacity freed")
	}
	gctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, ref := range append(append(held, queued...), last...) {
		if data, err := rt.Get(gctx, ref); err != nil || string(data) != "done" {
			t.Fatalf("task %d = %q, %v", i, data, err)
		}
	}
}

// TestTenantPreemptionVictimRunsAntagonistReplays is the tentpole's
// end-to-end isolation story: a low-band tenant holds every slot; a
// high-band submit revokes one running task (typed skaderr.Preempted
// cancellation), runs immediately, and the revoked task replays through
// the fair queue and completes — preemption is a reschedule, not a loss.
func TestTenantPreemptionVictimRunsAntagonistReplays(t *testing.T) {
	rt := tenantRuntime(t, 1, 2, true)
	if err := rt.RegisterTenant(tenancy.Config{Name: "hog"}); err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterTenant(tenancy.Config{Name: "vip", Priority: 1}); err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	registerBlockerCount(rt, "block", 2, started, release)
	rt.Registry.Register("quick", func(_ *task.Context, args [][]byte) ([][]byte, error) {
		return [][]byte{args[0]}, nil
	})

	hogCtx := tenancy.ContextWith(context.Background(), "hog")
	var hogRefs []idgen.ObjectID
	for i := 0; i < 2; i++ {
		hogRefs = append(hogRefs, rt.SubmitCtx(hogCtx, task.NewSpec(rt.Job(), "block", nil, 1))...)
	}
	<-started // both slots provably occupied by the hog

	vipCtx := tenancy.ContextWith(context.Background(), "vip")
	vipRef := rt.SubmitCtx(vipCtx, task.NewSpec(rt.Job(), "quick",
		[]task.Arg{task.ValueArg([]byte("hi"))}, 1))

	// The victim's Get must complete while the hog's release is still
	// closed off — only preemption can free a slot for it.
	gctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if data, err := rt.Get(gctx, vipRef[0]); err != nil || string(data) != "hi" {
		t.Fatalf("vip Get = %q, %v (preemption never freed a slot)", data, err)
	}
	if got := rt.Tenancy.Account("hog").Preempted; got == 0 {
		t.Error("hog.Preempted = 0, want at least one revocation")
	}

	// The preempted hog task replays and completes once released.
	close(release)
	for i, ref := range hogRefs {
		if data, err := rt.Get(gctx, ref); err != nil || string(data) != "done" {
			t.Fatalf("hog task %d = %q, %v (preempted task lost, not replayed)", i, data, err)
		}
	}
	rt.Drain()
	if a := rt.Tenancy.Account("hog"); a.Completed != 2 || a.Failed != 0 {
		t.Errorf("hog account = %+v, want 2 completed / 0 failed", a)
	}
}

// TestTenantWorkerQuotaBoundsConcurrency: MaxWorkers caps a tenant's
// concurrent slot occupancy even with idle capacity everywhere else.
func TestTenantWorkerQuotaBoundsConcurrency(t *testing.T) {
	rt := tenantRuntime(t, 2, 2, false)
	if err := rt.RegisterTenant(tenancy.Config{Name: "capped", MaxWorkers: 1}); err != nil {
		t.Fatal(err)
	}
	var cur, peak atomic.Int64
	rt.Registry.Register("hold", func(_ *task.Context, _ [][]byte) ([][]byte, error) {
		n := cur.Add(1)
		for {
			old := peak.Load()
			if n <= old || peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		cur.Add(-1)
		return [][]byte{[]byte("ok")}, nil
	})
	ctx := tenancy.ContextWith(context.Background(), "capped")
	var refs []idgen.ObjectID
	for i := 0; i < 4; i++ {
		refs = append(refs, rt.SubmitCtx(ctx, task.NewSpec(rt.Job(), "hold", nil, 1))...)
	}
	gctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, ref := range refs {
		if _, err := rt.Get(gctx, ref); err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	if got := peak.Load(); got != 1 {
		t.Errorf("peak concurrency = %d, want 1 (MaxWorkers quota leaked)", got)
	}
}

// registerBlob installs a kernel that returns a payload of the requested
// size, for driving the cache-byte quota through the real commit path.
func registerBlob(rt *Runtime) {
	rt.Registry.Register("blob", func(_ *task.Context, args [][]byte) ([][]byte, error) {
		n, err := strconv.Atoi(string(args[0]))
		if err != nil {
			return nil, err
		}
		return [][]byte{make([]byte, n)}, nil
	})
}

// TestTenantCacheQuotaRejectsPut: a result that would blow the tenant's
// cache-byte quota fails its commit — and therefore its future — with a
// typed skaderr.ResourceExhausted.
func TestTenantCacheQuotaRejectsPut(t *testing.T) {
	rt := tenantRuntime(t, 1, 2, false)
	if err := rt.RegisterTenant(tenancy.Config{Name: "pack", MaxCacheBytes: 16 << 10}); err != nil {
		t.Fatal(err)
	}
	registerBlob(rt)
	ctx := tenancy.ContextWith(context.Background(), "pack")
	ref := rt.SubmitCtx(ctx, task.NewSpec(rt.Job(), "blob",
		[]task.Arg{task.ValueArg([]byte("65536"))}, 1))
	gctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := rt.Get(gctx, ref[0]); skaderr.CodeOf(err) != skaderr.ResourceExhausted {
		t.Fatalf("over-quota Get = %v, want skaderr.ResourceExhausted", err)
	}
	rt.Drain()
	if a := rt.Tenancy.Account("pack"); a.Failed != 1 {
		t.Errorf("account = %+v, want the over-quota task counted failed", a)
	}
}

// TestTenantCacheQuotaEvictsOwnOldest: with EvictOnQuota the controller
// sheds the tenant's own oldest objects instead of rejecting, so a
// streaming workload stays under its byte quota and keeps completing.
func TestTenantCacheQuotaEvictsOwnOldest(t *testing.T) {
	rt := tenantRuntime(t, 1, 2, false)
	if err := rt.RegisterTenant(tenancy.Config{
		Name: "stream", MaxCacheBytes: 16 << 10, EvictOnQuota: true,
	}); err != nil {
		t.Fatal(err)
	}
	registerBlob(rt)
	ctx := tenancy.ContextWith(context.Background(), "stream")
	gctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Three 6KiB results against a 16KiB quota: the third put must evict
	// the first, not fail.
	for i := 0; i < 3; i++ {
		ref := rt.SubmitCtx(ctx, task.NewSpec(rt.Job(), "blob",
			[]task.Arg{task.ValueArg([]byte("6144"))}, 1))
		if data, err := rt.Get(gctx, ref[0]); err != nil || len(data) != 6144 {
			t.Fatalf("blob %d = %d bytes, %v", i, len(data), err)
		}
	}
	if got := rt.Tenancy.CacheBytes("stream"); got > 16<<10 {
		t.Errorf("tenant cache bytes = %d, want <= quota %d", got, 16<<10)
	}
}

// TestTenantFloodStressNoLeaks is the -race stress satellite: an
// antagonist floods SubmitCtx into a bounded queue while a higher-band
// victim's tasks preempt and replay underneath it. At quiesce every
// outcome is typed, per-tenant accounting balances exactly, and no
// admission waiter or dispatch goroutine leaks.
func TestTenantFloodStressNoLeaks(t *testing.T) {
	rt := tenantRuntime(t, 2, 2, true)
	if err := rt.RegisterTenant(tenancy.Config{Name: "victim", Priority: 1}); err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterTenant(tenancy.Config{Name: "ant", MaxPending: 8}); err != nil {
		t.Fatal(err)
	}
	// spin honors cancellation like a real kernel, so preemption revokes
	// it mid-flight instead of waiting it out.
	rt.Registry.Register("spin", func(tctx *task.Context, _ [][]byte) ([][]byte, error) {
		select {
		case <-time.After(time.Millisecond):
			return [][]byte{[]byte("ok")}, nil
		case <-tctx.Ctx.Done():
			return nil, tctx.Ctx.Err()
		}
	})
	rt.Drain()
	base := goruntime.NumGoroutine()

	antCtx := tenancy.ContextWith(context.Background(), "ant")
	vicCtx := tenancy.ContextWith(context.Background(), "victim")
	const floods, perFlood, vicTasks = 4, 30, 30
	var mu sync.Mutex
	var antRefs, vicRefs []idgen.ObjectID
	var wg sync.WaitGroup
	for f := 0; f < floods; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perFlood; i++ {
				refs := rt.SubmitCtx(antCtx, task.NewSpec(rt.Job(), "spin", nil, 1))
				mu.Lock()
				antRefs = append(antRefs, refs...)
				mu.Unlock()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < vicTasks; i++ {
			refs := rt.SubmitCtx(vicCtx, task.NewSpec(rt.Job(), "spin", nil, 1))
			mu.Lock()
			vicRefs = append(vicRefs, refs...)
			mu.Unlock()
			time.Sleep(200 * time.Microsecond)
		}
	}()
	wg.Wait()

	gctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, ref := range vicRefs {
		if _, err := rt.Get(gctx, ref); err != nil {
			t.Fatalf("victim task %d lost under flood: %v", i, err)
		}
	}
	rejected := 0
	for i, ref := range antRefs {
		if _, err := rt.Get(gctx, ref); err != nil {
			if skaderr.CodeOf(err) != skaderr.ResourceExhausted {
				t.Fatalf("antagonist task %d failed untyped: %v", i, err)
			}
			rejected++
		}
	}
	rt.Drain()

	for _, a := range rt.Tenancy.Accounts() {
		if a.Submitted != a.Admitted+a.Rejected {
			t.Errorf("tenant %s: submitted %d != admitted %d + rejected %d",
				a.Tenant, a.Submitted, a.Admitted, a.Rejected)
		}
		if a.Admitted != a.Completed+a.Failed {
			t.Errorf("tenant %s: admitted %d != completed %d + failed %d at quiesce",
				a.Tenant, a.Admitted, a.Completed, a.Failed)
		}
		if a.InFlight != 0 || a.Queued != 0 || a.Running != 0 {
			t.Errorf("tenant %s: in-flight %d / queued %d / running %d, want all zero",
				a.Tenant, a.InFlight, a.Queued, a.Running)
		}
	}
	if a := rt.Tenancy.Account("ant"); int(a.Rejected) != rejected {
		t.Errorf("ant rejected = %d, but %d futures carried ResourceExhausted", a.Rejected, rejected)
	}
	waitGoroutinesAtMost(t, base+10)
}

// TestChaosPropertyTenants is the two-tenant chaos property suite: every
// episode splits the fan-out/fan-in DAG across two tenants (one holding a
// priority band over the other) with fair share and preemption armed,
// runs a seeded fault plan through it, and checks all six invariants —
// including I6, per-tenant accounting balance — at quiesce.
func TestChaosPropertyTenants(t *testing.T) {
	base := chaos.FlagSeed()
	for ep := 0; ep < chaosEpisodes(); ep++ {
		seed := base + int64(ep)
		runTenantChaosEpisode(t, seed)
		if t.Failed() {
			return
		}
	}
}

// runTenantChaosEpisode is runChaosEpisode with the tenancy plane armed
// and the DAG's leaves alternating between two tenants.
func runTenantChaosEpisode(t *testing.T, seed int64) {
	rt, err := New(ClusterSpec{
		Servers: 4, ServerSlots: 2, ServerMemBytes: 64 << 20,
	}, Options{
		Recovery: Recover, TimeScale: 1.0,
		Tenancy: tenancy.Options{FairShare: true, Preemption: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	if err := rt.RegisterTenant(tenancy.Config{Name: "blue", Priority: 1}); err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterTenant(tenancy.Config{Name: "green"}); err != nil {
		t.Fatal(err)
	}
	registerSquareAgg(rt, 300*time.Microsecond)
	checker := rt.ChaosChecker()

	_, faultable := rt.ChaosNodes()
	plan := chaos.Generate(seed, chaos.GenConfig{
		Faultable: faultable,
		Window:    3 * time.Millisecond,
		Mix:       chaos.Mix(uint64(seed) % 4),
	})

	// Same DAG shape as the single-tenant suite, leaves striped across the
	// two tenants; each aggregator is owned by the tenant of its stripe.
	const leaves, aggs = 8, 2
	tenantOf := func(i int) string {
		if i%2 == 0 {
			return "blue"
		}
		return "green"
	}
	want := make([]int, aggs)
	leafRefs := make([]idgen.ObjectID, leaves)
	for i := 0; i < leaves; i++ {
		lctx := tenancy.ContextWith(context.Background(), tenantOf(i))
		spec := task.NewSpec(rt.Job(), "leaf", []task.Arg{task.ValueArg([]byte(strconv.Itoa(i)))}, 1)
		leafRefs[i] = rt.SubmitCtx(lctx, spec)[0]
		want[i%aggs] += i * i
	}
	aggRefs := make([]idgen.ObjectID, aggs)
	for a := 0; a < aggs; a++ {
		var args []task.Arg
		for i := a; i < leaves; i += aggs {
			args = append(args, task.RefArg(leafRefs[i]))
		}
		actx := tenancy.ContextWith(context.Background(), tenantOf(a))
		aggRefs[a] = rt.SubmitCtx(actx, task.NewSpec(rt.Job(), "agg", args, 1))[0]
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rt.RunPlan(ctx, plan)

	for a, ref := range aggRefs {
		data, err := rt.Get(ctx, ref)
		if err != nil {
			if skaderr.CodeOf(err) == skaderr.OK {
				failEpisode(t, rt, seed, "episode seed=%d: agg %d failed untyped: %v", seed, a, err)
			}
			continue
		}
		if got, _ := strconv.Atoi(string(data)); got != want[a] {
			failEpisode(t, rt, seed, "episode seed=%d: agg %d = %q, want %d", seed, a, data, want[a])
		}
	}
	rt.Drain()

	if vs := checker.Check(); len(vs) != 0 {
		failEpisode(t, rt, seed, "episode seed=%d: %d invariant violation(s): %v", seed, len(vs), vs)
	}
}
