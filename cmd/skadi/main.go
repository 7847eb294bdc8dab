// Command skadi boots a simulated disaggregated cluster, runs one workload
// from each declarative frontend through the distributed runtime, and
// prints what happened — a smoke-test-sized tour of the system.
//
// Usage:
//
//	skadi                      # default cluster
//	skadi -servers 8 -gpus 4   # bigger cluster
//	skadi -gen2                # device-centric (Gen-2) wiring
//	skadi -decentralized       # every worker hosts a directory shard; work stealing; gossip pump
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"skadi/internal/arrowlite"
	"skadi/internal/core"
	"skadi/internal/frontend/graphfe"
	"skadi/internal/frontend/mlfe"
	"skadi/internal/frontend/mrfe"
	"skadi/internal/idgen"
	"skadi/internal/ir"
	"skadi/internal/runtime"
	"skadi/internal/task"
	"skadi/internal/tenancy"
)

func main() {
	var (
		servers = flag.Int("servers", 4, "worker servers")
		gpus    = flag.Int("gpus", 2, "disaggregated GPUs")
		fpgas   = flag.Int("fpgas", 2, "disaggregated FPGAs")
		gen2    = flag.Bool("gen2", false, "device-centric (Gen-2) wiring instead of Gen-1")
		decent  = flag.Bool("decentralized", false, "spread the control plane over the workers: every raylet hosts an ownership-directory shard, saturated nodes hand tasks to peers, a gossip loop detects silent failures")
		showTr  = flag.Bool("trace", false, "dump the last task's span timeline and critical path")
	)
	flag.Parse()

	// The tenancy plane stays inert until the first tenant registers (the
	// tour's own workloads run unattributed), then the tenancy section
	// below turns it on live.
	opts := core.Options{
		Tenancy:       tenancy.Options{FairShare: true, Preemption: true},
		Decentralized: *decent,
	}
	if *gen2 {
		opts.DeviceMode = runtime.Gen2
	}
	s, err := core.New(core.ClusterSpec{
		Servers: *servers, ServerSlots: 4, ServerMemBytes: 256 << 20,
		GPUs: *gpus, FPGAs: *fpgas, DeviceSlots: 2, DeviceMemBytes: 64 << 20,
		MemBladeBytes: 1 << 30, Racks: 2,
	}, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	fmt.Println("== cluster ==")
	fmt.Print(s.ClusterSummary())
	fmt.Printf("backends: %v\n\n", s.AvailableBackends())

	// SQL.
	fmt.Println("== sql frontend ==")
	orders := arrowlite.NewBuilder(arrowlite.NewSchema(
		arrowlite.Field{Name: "region", Type: arrowlite.Bytes},
		arrowlite.Field{Name: "amount", Type: arrowlite.Float64},
	))
	regions := []string{"east", "west", "north"}
	for i := 0; i < 300; i++ {
		_ = orders.Append(regions[i%3], float64(i%50))
	}
	const query = "SELECT region, SUM(amount), COUNT(*) FROM orders GROUP BY region ORDER BY sum_amount DESC"
	fmt.Println("query:", query)
	result, err := s.SQL(ctx, query, map[string]*arrowlite.Batch{"orders": orders.Build()})
	if err != nil {
		log.Fatal(err)
	}
	for r := 0; r < result.NumRows(); r++ {
		fmt.Printf("  %-6s sum=%6.0f count=%d\n",
			result.ColByName("region").BytesAt(r),
			result.ColByName("sum_amount").Floats[r],
			result.ColByName("count").Ints[r])
	}

	// MapReduce.
	fmt.Println("\n== mapreduce frontend ==")
	wc := &mrfe.Job{
		Name: "wordcount",
		Map: func(rec []byte) []mrfe.KV {
			var out []mrfe.KV
			for _, w := range strings.Fields(string(rec)) {
				out = append(out, mrfe.KV{Key: strings.ToLower(w), Value: []byte("1")})
			}
			return out
		},
		Reduce: func(_ string, vals [][]byte) []byte {
			return []byte(fmt.Sprint(len(vals)))
		},
	}
	counts, err := s.MapReduce(ctx, wc, [][]byte{
		[]byte("the narrow waist between data systems and hardware"),
		[]byte("the stateful serverless runtime and the caching layer"),
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, kv := range counts {
		if string(kv.Value) != "1" {
			fmt.Printf("  %-10s %s\n", kv.Key, kv.Value)
		}
	}

	// Graph.
	fmt.Println("\n== graph frontend (pagerank) ==")
	ranks, err := s.PageRank(ctx, []graphfe.Edge{
		{Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 4},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 1},
	}, 20, 0.85)
	if err != nil {
		log.Fatal(err)
	}
	for id := int64(1); id <= 4; id++ {
		fmt.Printf("  vertex %d: %.4f\n", id, ranks[id])
	}

	// ML.
	fmt.Println("\n== ml frontend ==")
	x := ir.NewTensor(128, 2)
	y := ir.NewTensor(128, 1)
	for i := 0; i < 128; i++ {
		a, b := float64(i%16)/8-1, float64(i%9)/4-1
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		y.Data[i] = 2*a - 0.5*b
	}
	w, hist, err := s.TrainLinear(ctx, &mlfe.SGDTrainer{LearningRate: 0.2, Epochs: 50, Gang: true}, x, y)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  learned w = [%.3f %.3f] (true [2.000 -0.500])\n", w.Data[0], w.Data[1])
	fmt.Printf("  loss %.4f -> %.6f over %d epochs\n", hist[0], hist[len(hist)-1], len(hist))

	// Cancellation: revoke a small doomed chain so the reclaim counters
	// have something to account.
	fmt.Println("\n== cancellation ==")
	rtm := s.Runtime()
	rtm.Registry.Register("demo/echo", func(_ *task.Context, args [][]byte) ([][]byte, error) {
		return [][]byte{args[0]}, nil
	})
	seed, err := rtm.Put(make([]byte, 64<<10), "raw")
	if err != nil {
		log.Fatal(err)
	}
	root := task.NewSpec(rtm.Job(), "demo/echo", []task.Arg{task.RefArg(seed)}, 1)
	rootRefs := rtm.Submit(root)
	leaf := task.NewSpec(rtm.Job(), "demo/echo", []task.Arg{task.RefArg(rootRefs[0])}, 1)
	leafRefs := rtm.Submit(leaf)
	if _, err := rtm.Get(ctx, leafRefs[0]); err != nil {
		log.Fatal(err)
	}
	rep := rtm.Cancel(rootRefs[0])
	fmt.Printf("revoked a 2-stage chain: %d tasks cancelled, %d workers reclaimed, %.1f KiB freed\n",
		rep.TasksCancelled, rep.WorkersReclaimed, float64(rep.BytesReclaimed)/(1<<10))

	// Multi-tenancy: a batch tenant floods more work than the cluster
	// absorbs while an interactive tenant holds a priority band over it —
	// admission bounds the batch queue (typed rejections) and preemption
	// keeps the interactive tenant's tasks off the back of the batch queue.
	fmt.Println("\n== tenancy ==")
	if err := rtm.RegisterTenant(tenancy.Config{Name: "interactive", Priority: 1}); err != nil {
		log.Fatal(err)
	}
	if err := rtm.RegisterTenant(tenancy.Config{Name: "batch", MaxPending: 16}); err != nil {
		log.Fatal(err)
	}
	rtm.Registry.Register("demo/spin", func(tctx *task.Context, _ [][]byte) ([][]byte, error) {
		select {
		case <-time.After(50 * time.Millisecond):
			return [][]byte{[]byte("ok")}, nil
		case <-tctx.Ctx.Done():
			return nil, tctx.Ctx.Err()
		}
	})
	// The batch flood: paced just enough for grants to keep up, and held
	// long enough (50ms kernels) that every slot and the whole bounded
	// queue are still occupied when the overflow and the interactive
	// submits arrive.
	batchCtx := tenancy.ContextWith(ctx, "batch")
	for i := 0; i < 40; i++ {
		rtm.SubmitCtx(batchCtx, task.NewSpec(rtm.Job(), "demo/spin", nil, 1))
		time.Sleep(200 * time.Microsecond)
	}
	for i := 0; i < 8; i++ { // queue is full: rejected typed
		rtm.SubmitCtx(batchCtx, task.NewSpec(rtm.Job(), "demo/spin", nil, 1))
	}
	interCtx := tenancy.ContextWith(ctx, "interactive")
	var interRefs []idgen.ObjectID
	for i := 0; i < 8; i++ { // slots are full: preempts batch
		interRefs = append(interRefs, rtm.SubmitCtx(interCtx, task.NewSpec(rtm.Job(), "demo/spin", nil, 1))...)
	}
	for _, ref := range interRefs {
		if _, err := rtm.Get(ctx, ref); err != nil {
			log.Fatal(err)
		}
	}
	rtm.Drain()
	for _, a := range rtm.Tenancy.Accounts() {
		fmt.Printf("  %-12s submitted=%-3d admitted=%-3d rejected=%-3d completed=%-3d preempted=%d\n",
			a.Tenant, a.Submitted, a.Admitted, a.Rejected, a.Completed, a.Preempted)
	}

	// Runtime stats.
	fmt.Println("\n== runtime ==")
	stats := s.Runtime().FabricStats()
	fmt.Printf("fabric: %d messages, %.2f MiB moved, %.2f ms simulated network time\n",
		stats.Messages, float64(stats.Bytes)/(1<<20), float64(stats.SimTime.Microseconds())/1000)
	var tasks, hops int64
	for _, rl := range s.Runtime().Raylets() {
		st := rl.Stats()
		tasks += st.TasksExecuted
		hops += st.DPUHops
	}
	fmt.Printf("raylets: %d tasks executed, %d DPU hops\n", tasks, hops)

	if *showTr {
		tr := s.Runtime().Tracer()
		traces := tr.Traces()
		fmt.Printf("\n== trace (%d task traces recorded) ==\n", len(traces))
		if len(traces) > 0 {
			fmt.Print(tr.Dump(traces[len(traces)-1]))
		}

		// Per-node load gauges — the same families the rebalancer reads.
		s.Runtime().SampleNodeGauges()
		fmt.Println("\n== per-node gauges ==")
		for _, line := range strings.Split(s.Runtime().Metrics.Snapshot(), "\n") {
			if strings.Contains(line, "node_") {
				fmt.Println(line)
			}
		}

		// Cancellation-subsystem counters (the same names E16 reads).
		fmt.Println("\n== cancellation counters ==")
		for _, name := range []string{
			runtime.MetricTasksCancelled, runtime.MetricWorkersReclaimed,
			runtime.MetricBytesReclaimed, runtime.MetricTasksDeadlineExceeded,
		} {
			fmt.Printf("%-24s %d\n", name, s.Runtime().Metrics.Counter(name).Value())
		}

		// Per-tenant serving metrics (the same families E19 reads),
		// labelled by tenant name.
		fmt.Println("\n== per-tenant metrics ==")
		for _, line := range strings.Split(s.Runtime().Metrics.Snapshot(), "\n") {
			if strings.Contains(line, "tenant_") {
				fmt.Println(line)
			}
		}

		// Control plane: gossip view, per-shard directory sizes, and
		// per-node steal counters (gauges refreshed by SampleControlPlane —
		// the same families E20's regime reads). The centralized
		// configuration is the same plane with one shard host: one shard,
		// no handoffs, no steals, nothing to replicate.
		cp := s.Runtime().SampleControlPlane()
		shape := "centralized"
		if cp.Decentralized {
			shape = "decentralized"
		}
		fmt.Printf("\n== control plane (%s) ==\n", shape)
		fmt.Printf("gossip view: %d alive, %d suspect, %d dead\n", cp.Alive, cp.Suspect, cp.Dead)
		fmt.Printf("directory: %d shards, %d handoffs\n", len(cp.ShardEntries), cp.Handoffs)
		fmt.Printf("replication: %d replicas, %d promotions, %d restored, %d lost\n",
			cp.Repl.Replicas, cp.Repl.Promotions, cp.Repl.Restored, cp.Repl.Lost)
		for _, line := range strings.Split(s.Runtime().Metrics.Snapshot(), "\n") {
			if strings.Contains(line, "gossip_") ||
				strings.Contains(line, "directory_") ||
				strings.Contains(line, "repl_") ||
				strings.Contains(line, "lineage_") ||
				strings.Contains(line, "sched_steal") {
				fmt.Println(line)
			}
		}
	}
}
