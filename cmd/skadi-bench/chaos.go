package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"skadi/internal/chaos"
	"skadi/internal/idgen"
	"skadi/internal/runtime"
	"skadi/internal/scheduler"
	"skadi/internal/skaderr"
	"skadi/internal/task"
)

// journalFlag is the -chaos.journal path: on episode failure the fault
// journal is also written there (CI uploads it as an artifact).
var journalFlag string

// runChaosSoak drives seeded chaos episodes — the same episode shape as the
// TestChaosProperty suite, sized for a soak. Episode seeds start at
// -chaos.seed and increment, so any failure is replayable: the failing seed
// and its fault journal are printed (and written to -chaos.journal when
// set), and `go test ./internal/runtime -run TestChaosProperty
// -chaos.seed=N` reproduces the exact schedule.
func runChaosSoak(episodes int) int {
	base := chaos.FlagSeed()
	start := time.Now()
	for ep := 0; ep < episodes; ep++ {
		seed := base + int64(ep)
		if err := chaosEpisode(seed); err != nil {
			fmt.Fprintf(os.Stderr, "chaos soak FAILED at episode %d (seed=%d): %v\n", ep, seed, err)
			fmt.Fprintf(os.Stderr, "replay: go test ./internal/runtime -run TestChaosProperty -chaos.seed=%d\n", seed)
			return 1
		}
		if (ep+1)%100 == 0 {
			fmt.Printf("chaos soak: %d/%d episodes clean (%v)\n", ep+1, episodes, time.Since(start).Round(time.Millisecond))
		}
	}
	fmt.Printf("chaos soak: %d episodes, 0 invariant violations (%v, seeds %d..%d)\n",
		episodes, time.Since(start).Round(time.Millisecond), base, base+int64(episodes)-1)
	return 0
}

// chaosEpisode runs one seeded episode: a fan-out/fan-in DAG under a
// generated fault plan, then checks results and the five invariants.
func chaosEpisode(seed int64) (reterr error) {
	rt, err := runtime.New(runtime.ClusterSpec{
		Servers: 4, ServerSlots: 2, ServerMemBytes: 64 << 20,
	}, runtime.Options{TimeScale: 1.0, Policy: scheduler.RoundRobin, Recovery: runtime.Recover})
	if err != nil {
		return err
	}
	defer rt.Shutdown()
	defer func() {
		if reterr != nil {
			fmt.Fprintf(os.Stderr, "--- fault journal (seed=%d) ---\n", seed)
			_ = rt.Chaos().WriteJournal(os.Stderr)
			if path := journalFlag; path != "" {
				if f, ferr := os.Create(path); ferr == nil {
					fmt.Fprintf(f, "seed=%d\n", seed)
					_ = rt.Chaos().WriteJournal(f)
					f.Close()
					fmt.Fprintf(os.Stderr, "journal written to %s\n", path)
				}
			}
		}
	}()

	rt.Registry.Register("soak/leaf", func(tc *task.Context, args [][]byte) ([][]byte, error) {
		tc.Compute(300 * time.Microsecond)
		if err := tc.Err(); err != nil {
			return nil, err
		}
		v := int64(binary.LittleEndian.Uint64(args[0]))
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, uint64(v*v))
		return [][]byte{out}, nil
	})
	rt.Registry.Register("soak/agg", func(tc *task.Context, args [][]byte) ([][]byte, error) {
		tc.Compute(300 * time.Microsecond)
		if err := tc.Err(); err != nil {
			return nil, err
		}
		var sum int64
		for _, a := range args {
			sum += int64(binary.LittleEndian.Uint64(a))
		}
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, uint64(sum))
		return [][]byte{out}, nil
	})

	checker := rt.ChaosChecker()
	_, faultable := rt.ChaosNodes()
	plan := chaos.Generate(seed, chaos.GenConfig{
		Faultable: faultable,
		Window:    3 * time.Millisecond,
		Mix:       chaos.Mix(uint64(seed) % 4),
	})

	const leaves, aggs = 8, 2
	refs := make([]idgen.ObjectID, 0, leaves+aggs)
	want := make(map[idgen.ObjectID]int64, leaves+aggs)
	leafRefs := make([]idgen.ObjectID, leaves)
	for i := 0; i < leaves; i++ {
		in := make([]byte, 8)
		binary.LittleEndian.PutUint64(in, uint64(i+1))
		leafRefs[i] = rt.Submit(task.NewSpec(rt.Job(), "soak/leaf", []task.Arg{task.ValueArg(in)}, 1))[0]
		want[leafRefs[i]] = int64(i+1) * int64(i+1)
		refs = append(refs, leafRefs[i])
	}
	for i := 0; i < aggs; i++ {
		var args []task.Arg
		var sum int64
		for j := i; j < leaves; j += aggs {
			args = append(args, task.RefArg(leafRefs[j]))
			sum += int64(j+1) * int64(j+1)
		}
		ref := rt.Submit(task.NewSpec(rt.Job(), "soak/agg", args, 1))[0]
		want[ref] = sum
		refs = append(refs, ref)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rt.RunPlan(ctx, plan)

	for _, id := range refs {
		data, err := rt.Get(ctx, id)
		switch {
		case err == nil:
			if len(data) != 8 || int64(binary.LittleEndian.Uint64(data)) != want[id] {
				return fmt.Errorf("future %s resolved with wrong value", id.Short())
			}
		case skaderr.CodeOf(err) == skaderr.OK:
			return fmt.Errorf("future %s failed untyped: %v", id.Short(), err)
		}
	}
	rt.Drain()
	if vs := checker.Check(); len(vs) > 0 {
		return fmt.Errorf("%d invariant violation(s): %v", len(vs), vs)
	}
	return nil
}
