package experiments

import (
	"context"
	"fmt"
	"time"

	"skadi/internal/loadgen"
	"skadi/internal/runtime"
	"skadi/internal/scheduler"
	"skadi/internal/task"
	"skadi/internal/tenancy"
)

func init() { register("e19", E19Tenancy) }

// E19 workload shape: a latency-sensitive victim tenant serving short
// kernels at a modest rate shares the cluster with an antagonist tenant
// offering more long-kernel work than the whole cluster can absorb. Both
// loads are open-loop (the antagonist does not politely slow down when
// the system congests) with heavy-tailed payload sizes.
const (
	e19Servers    = 4
	e19Slots      = 2 // 8 worker slots total
	e19VictimKern = 10 * time.Millisecond
	e19AntKern    = 40 * time.Millisecond
	e19VictimRate = 50.0
	e19VictimJobs = 100
	e19AntRate    = 200.0
	e19AntJobs    = 400
	e19AntPending = 8
	e19PayloadMax = 64 << 10
	e19VictimSeed = 0xe19_01
	e19AntSeed    = 0xe19_02
)

// E19Tenancy measures multi-tenant latency isolation (§2.2: a shared
// runtime must give each data system predictable service even when a
// neighbor misbehaves — the alternative is one cluster per system, which
// is exactly the static provisioning disaggregation argues against).
//
// Three arms over the same seeded open-loop load:
//
//   - solo: the victim alone on the cluster — its intrinsic p50/p99.
//   - fifo: victim + antagonist with the tenancy plane in FIFO mode (no
//     fair share, no admission bounds). The antagonist's unbounded backlog
//     queues ahead of the victim at every worker; victim tail latency
//     tracks the antagonist's queue, not the victim's own work.
//   - fair: weighted fair share with priority bands and preemption, plus a
//     bounded pending queue (fail-fast) on the antagonist. Victim submits
//     preempt running antagonist kernels; the antagonist's excess offered
//     load is rejected typed instead of queueing without bound.
//
// The claim: the fair arm holds the victim's p99 within a small factor of
// its solo p99 while the antagonist still gets the residual capacity; the
// FIFO arm's victim p99 degrades by an order of magnitude or more.
func E19Tenancy() (*Table, error) {
	t := &Table{
		ID:    "e19",
		Title: "Multi-tenant isolation: victim latency under an antagonist (§2.2 serving control plane)",
		Header: []string{
			"arm", "victim p50", "victim p99", "victim done",
			"ant done", "ant rejected", "preemptions",
		},
	}
	for _, arm := range []string{"solo", "fifo", "fair"} {
		r, err := e19Run(arm)
		if err != nil {
			return nil, fmt.Errorf("e19 %s: %w", arm, err)
		}
		t.Rows = append(t.Rows, []string{
			arm,
			fmt.Sprintf("%.1f ms", r.victimP50),
			fmt.Sprintf("%.1f ms", r.victimP99),
			fmt.Sprint(r.victimDone),
			fmt.Sprint(r.antDone),
			fmt.Sprint(r.antRejected),
			fmt.Sprint(r.preemptions),
		})
	}
	t.Notes = "Expected shape: fifo inflates the victim's p99 far above solo (the antagonist's " +
		"unbounded 40ms-kernel backlog queues ahead of every 10ms victim request); fair-share + " +
		"preemption + bounded admission holds victim p99 within a small factor of solo while the " +
		"antagonist keeps the residual slots, its excess load rejected typed (ResourceExhausted)."
	return t, nil
}

type e19Result struct {
	victimP50, victimP99 float64 // milliseconds
	victimDone           int
	antDone, antRejected int
	preemptions          int64
}

func e19Run(arm string) (*e19Result, error) {
	opts := runtime.Options{TimeScale: 1.0, Policy: scheduler.CPUCentric}
	if arm == "fair" {
		opts.Tenancy = tenancy.Options{FairShare: true, Preemption: true}
	}
	rt, err := runtime.New(runtime.ClusterSpec{
		Servers: e19Servers, ServerSlots: e19Slots, ServerMemBytes: 256 << 20,
	}, opts)
	if err != nil {
		return nil, err
	}
	defer rt.Shutdown()

	// Activating any tenant activates admission + accounting; in the fifo
	// arm Acquire stays first-come-first-served and nothing is bounded.
	if err := rt.RegisterTenant(tenancy.Config{Name: "victim", Priority: 1}); err != nil {
		return nil, err
	}
	if arm != "solo" {
		ant := tenancy.Config{Name: "ant"}
		if arm == "fair" {
			ant.MaxPending = e19AntPending
		}
		if err := rt.RegisterTenant(ant); err != nil {
			return nil, err
		}
	}

	rt.Registry.Register("e19/serve", func(_ *task.Context, args [][]byte) ([][]byte, error) {
		out := make([]byte, len(args[0]))
		copy(out, args[0])
		return [][]byte{out}, nil
	})
	payload := make([]byte, e19PayloadMax)

	submit := func(tenant string, kernel time.Duration) func(context.Context, int, int64) error {
		tctx := tenancy.ContextWith(context.Background(), tenant)
		return func(_ context.Context, seq int, size int64) error {
			if size > e19PayloadMax {
				size = e19PayloadMax
			}
			spec := task.NewSpec(rt.Job(), "e19/serve",
				[]task.Arg{task.ValueArg(payload[:size])}, 1)
			spec.Duration = kernel
			_, err := rt.Get(tctx, rt.SubmitCtx(tctx, spec)[0])
			return err
		}
	}

	victim := loadgen.New(loadgen.Config{
		Clients: 16, Rate: e19VictimRate, Arrivals: e19VictimJobs,
		Seed: e19VictimSeed, SizeMax: e19PayloadMax,
		Submit: submit("victim", e19VictimKern),
	})
	res := &e19Result{}
	done := make(chan loadgen.Stats, 1)
	go func() { done <- victim.Run(context.Background()) }()
	if arm != "solo" {
		ant := loadgen.New(loadgen.Config{
			Clients: 64, Rate: e19AntRate, Arrivals: e19AntJobs,
			Seed: e19AntSeed, SizeMax: e19PayloadMax,
			Submit: submit("ant", e19AntKern),
		})
		stats := ant.Run(context.Background())
		if stats.Failed > 0 {
			return nil, fmt.Errorf("antagonist: %d untyped failures", stats.Failed)
		}
		res.antDone, res.antRejected = stats.Completed, stats.Rejected
	}
	vs := <-done
	if vs.Failed > 0 || vs.Rejected > 0 {
		return nil, fmt.Errorf("victim: %d failed / %d rejected, want 0/0", vs.Failed, vs.Rejected)
	}
	res.victimDone = vs.Completed
	res.victimP50 = vs.Latency.Quantile(0.50) / 1e3 // µs → ms
	res.victimP99 = vs.Latency.Quantile(0.99) / 1e3
	rt.Drain()
	res.preemptions = rt.Tenancy.Account("ant").Preempted
	return res, nil
}
