package experiments

import (
	"context"
	"fmt"

	"skadi/internal/caching"
	"skadi/internal/idgen"
	"skadi/internal/runtime"
	"skadi/internal/scheduler"
	"skadi/internal/task"
)

func init() { register("e6", E6FaultTolerance) }

// E6FaultTolerance reproduces §2.1's failure-handling trade-off: lineage
// re-execution (cheap storage, slow recovery) vs a reliable caching layer
// with replication (3x storage) or erasure coding (1.5x storage) — "a
// reliable caching layer could be beneficial as it helps reduce tail
// latency". A 4-stage chain of 4 MiB objects runs, a node holding
// intermediate state dies, and the lost results are recovered.
// Reported per mode: storage overhead, recovery network bytes, recovery
// compute re-executed, and whether data survived.
func E6FaultTolerance() (*Table, error) {
	t := &Table{
		ID:     "e6",
		Title:  "Failure handling (§2.1): lineage vs replicated cache vs EC cache",
		Header: []string{"mode", "storage overhead", "recovery bytes", "tasks re-run", "recovered"},
	}
	// The three rows differ only in what the caching layer leaves behind;
	// recovery itself is one procedure (surviving copy first, lineage for
	// what has none). Data-locality placement keeps each stage with its
	// input, so the chain's intermediates live on one node — the
	// single-copy setting in which the trade-off actually bites.
	configs := []struct {
		name    string
		caching caching.Config
	}{
		{"lineage", caching.Config{}},
		{"replicate-2x", caching.Config{Mode: caching.ModeReplicate, Replicas: 2}},
		{"ec-4+2", caching.Config{Mode: caching.ModeEC, ECData: 4, ECParity: 2}},
	}
	for _, cfg := range configs {
		row, err := runFaultScenario(cfg.name, runtime.Options{
			Recovery: runtime.Recover, Policy: scheduler.DataLocality, Caching: cfg.caching,
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = "Expected shape: lineage stores 1x but re-runs the producing tasks on failure; the " +
		"reliable-cache modes re-run nothing. Replication at 2x tolerates one failure; EC(4+2) " +
		"keeps a primary plus 1.5x shards (2.5x total) yet tolerates two failures — cheaper than " +
		"the 3x replication that matches it. This is the §2.1 cost-vs-restart trade-off."
	return t, nil
}

func runFaultScenario(name string, opts runtime.Options) ([]string, error) {
	const objSize = 4 << 20
	rt, err := runtime.New(runtime.ClusterSpec{
		Servers: 6, ServerSlots: 4, ServerMemBytes: 512 << 20,
	}, opts)
	if err != nil {
		return nil, err
	}
	defer rt.Shutdown()

	tasksBefore := func() int64 {
		var n int64
		for _, rl := range rt.Raylets() {
			n += rl.Stats().TasksExecuted
		}
		return n
	}

	rt.Registry.Register("e6/stage", func(_ *task.Context, args [][]byte) ([][]byte, error) {
		out := make([]byte, objSize)
		if len(args) > 0 && len(args[0]) > 0 {
			out[0] = args[0][0] + 1
		}
		return [][]byte{out}, nil
	})

	// 4-stage chain, submitted stage by stage so the locality policy sees
	// each output's location before placing its consumer (keeping the
	// chain's intermediates on one node — the single-copy case).
	ctx := context.Background()
	var refs []idgen.ObjectID
	var prev idgen.ObjectID
	for i := 0; i < 4; i++ {
		var args []task.Arg
		if i > 0 {
			args = []task.Arg{task.RefArg(prev)}
		}
		spec := task.NewSpec(rt.Job(), "e6/stage", args, 1)
		prev = rt.Submit(spec)[0]
		refs = append(refs, prev)
		if _, err := rt.Wait(ctx, []idgen.ObjectID{prev}, 1); err != nil {
			return nil, err
		}
	}
	rt.Drain()

	storage := rt.Layer.StorageBytes()
	base := int64(4 * objSize)
	overhead := float64(storage) / float64(base)

	// Kill the node holding the stage-2 output (not the driver).
	rec, err := rt.Head.Table.Get(refs[2])
	if err != nil {
		return nil, err
	}
	victim := idgen.Nil
	for _, loc := range rec.Locations {
		if loc != rt.Driver() {
			victim = loc
			break
		}
	}
	if victim.IsNil() {
		return []string{name, fmt.Sprintf("%.2fx", overhead), "0", "0", "true (no worker copy)"}, nil
	}

	preTasks := tasksBefore()
	rt.Cluster.Fabric.ResetStats()
	rt.KillNode(victim)
	// Read every stage output after the failure.
	recovered := true
	for _, ref := range refs {
		if _, err := rt.Get(ctx, ref); err != nil {
			recovered = false
		}
	}
	rt.Drain()
	recoveryBytes := rt.FabricStats().Bytes
	rerun := tasksBefore() - preTasks

	return []string{
		name,
		fmt.Sprintf("%.2fx", overhead),
		mib(recoveryBytes),
		fmt.Sprint(rerun),
		fmt.Sprint(recovered),
	}, nil
}
