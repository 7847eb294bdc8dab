package physical

import (
	"context"
	"testing"

	"skadi/internal/flowgraph"
	"skadi/internal/ir"
	"skadi/internal/runtime"
	"skadi/internal/scheduler"
)

// TestGraphExecutionSurvivesNodeKill runs a sharded aggregation while a
// worker dies mid-graph; lineage recovery must transparently regenerate
// the lost shards and the final result must match the reference.
func TestGraphExecutionSurvivesNodeKill(t *testing.T) {
	rt, err := runtime.New(runtime.ClusterSpec{
		Servers: 5, ServerSlots: 2, ServerMemBytes: 128 << 20,
	}, runtime.Options{
		Recovery: runtime.Recover,
		Policy:   scheduler.RoundRobin,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	input := salesTable(t, 1000)
	g := flowgraph.New("fault-agg")
	scan := g.AddIR("scan", filterFunc("scan", "20"))
	scan.Parallelism = 4
	agg := g.AddIR("agg", aggFunc("agg"))
	agg.Parallelism = 2
	g.ConnectKeyed(scan, agg, "region")

	plan, err := NewPlan(g, Options{DefaultParallelism: 2, Available: map[string]bool{"cpu": true}})
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(rt, plan)

	// Kill a worker shortly after the graph launches.
	done := make(chan struct{})
	go func() {
		defer close(done)
		victim := rt.Raylets()[1].Node()
		rt.KillNode(victim)
	}()

	results, err := ex.Run(context.Background(), map[string][]*ir.Datum{
		"scan": {ir.TableDatum(input)},
	})
	<-done
	if err != nil {
		t.Fatalf("graph under failure: %v", err)
	}
	out := results["agg"].Table
	wantSums, wantCounts := referenceAgg(input, 20)
	if out.NumRows() != len(wantSums) {
		t.Fatalf("groups = %d, want %d", out.NumRows(), len(wantSums))
	}
	for r := 0; r < out.NumRows(); r++ {
		region := string(out.ColByName("region").BytesAt(r))
		if got := out.ColByName("sum_amount").Floats[r]; got != wantSums[region] {
			t.Errorf("sum[%s] = %v, want %v", region, got, wantSums[region])
		}
		if got := out.ColByName("count").Ints[r]; got != wantCounts[region] {
			t.Errorf("count[%s] = %d, want %d", region, got, wantCounts[region])
		}
	}
}

// TestGraphExecutionUnderMemoryPressure gives workers stores far smaller
// than the working set, with a disaggregated-memory blade as the spill
// tier: the job must still complete correctly, exercising
// eviction → DSM demotion → re-fetch during graph execution.
func TestGraphExecutionUnderMemoryPressure(t *testing.T) {
	rt, err := runtime.New(runtime.ClusterSpec{
		Servers: 3, ServerSlots: 2, ServerMemBytes: 96 << 10, // ~2 shards resident
		MemBladeBytes: 256 << 20,
	}, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	input := salesTable(t, 2000) // ~32 KiB per scan shard after split
	g := flowgraph.New("pressure")
	scan := g.AddIR("scan", filterFunc("scan", "-1"))
	scan.Parallelism = 6
	agg := g.AddIR("agg", aggFunc("agg"))
	agg.Parallelism = 2
	g.ConnectKeyed(scan, agg, "region")

	plan, err := NewPlan(g, Options{DefaultParallelism: 2, Available: map[string]bool{"cpu": true}})
	if err != nil {
		t.Fatal(err)
	}
	results, err := NewExecutor(rt, plan).FreeIntermediates(true).Run(context.Background(), map[string][]*ir.Datum{
		"scan": {ir.TableDatum(input)},
	})
	if err != nil {
		t.Fatalf("graph under memory pressure: %v", err)
	}
	out := results["agg"].Table
	wantSums, _ := referenceAgg(input, -1)
	for r := 0; r < out.NumRows(); r++ {
		region := string(out.ColByName("region").BytesAt(r))
		if got := out.ColByName("sum_amount").Floats[r]; got != wantSums[region] {
			t.Errorf("sum[%s] = %v, want %v", region, got, wantSums[region])
		}
	}
	// GC released the job's cluster memory.
	if got := rt.Layer.StorageBytes(); got != 0 {
		t.Errorf("StorageBytes = %d after FreeIntermediates run, want 0", got)
	}
	if rt.Head.Table.Len() != 0 {
		t.Errorf("ownership entries leaked: %d", rt.Head.Table.Len())
	}
}
