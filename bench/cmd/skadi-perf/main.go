// Command skadi-perf is the repository's benchmark (see bench/README.md).
//
//	skadi-perf [-workload a,b] [-seed N] [-timed 20s] [-traced 5s] [-json out.json]
//	skadi-perf -compare a.json b.json
//	skadi-perf --workload W --seed N --seconds S --trace 0|1
//
// The first form runs workloads (all five by default), prints every metric by
// name with its unit, and optionally writes them to a file. The second
// compares two such files against the regression bounds and exits 1 if any
// end-to-end metric got worse. The third is the benchmark driver's protocol:
// one workload, one JSON result line, end-to-end metrics with --trace 0 and
// per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"skadi/bench"
)

func main() {
	var (
		workload = flag.String("workload", strings.Join(bench.Workloads, ","), "comma-separated workloads to run")
		seed     = flag.Uint64("seed", 1, "the only source of randomness: payloads, table rows, placement targets, size order")
		timed    = flag.Duration("timed", 20*time.Second, "length of the timed run (stamps off) behind the end-to-end metrics")
		traced   = flag.Duration("traced", 5*time.Second, "length of the traced run (stamps on) behind the per-layer metrics")
		jsonOut  = flag.String("json", "", "also write the report to this file")
		compare  = flag.Bool("compare", false, "compare two -json files given as arguments; exit 1 if any end-to-end metric is worse")
		seconds  = flag.Int("seconds", 0, "driver protocol: measure one workload for this many seconds and print one JSON result line")
		trace    = flag.Int("trace", 0, "driver protocol: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	)
	flag.Parse()
	bench.PinGC()

	// Trace files go to bench/out whether the command is started from the
	// repository root (the documented way) or from bench/.
	traceDir := "bench/out"
	if _, err := os.Stat("bench"); err != nil {
		traceDir = "out"
	}

	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *seconds > 0:
		err = runDriver(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, traceDir)
	default:
		err = runAll(strings.Split(*workload, ","), bench.Config{
			Seed: *seed, Timed: *timed, Traced: *traced, Setups: 5, TraceDir: traceDir,
		}, *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "skadi-perf:", err)
		os.Exit(1)
	}
}

// errFailed reports ops that errored or failed their output check; the
// metrics are still printed before the process exits non-zero.
type errFailed struct{ failed, attempted int64 }

func (e errFailed) Error() string {
	return fmt.Sprintf("%d of %d ops failed or returned wrong output", e.failed, e.attempted)
}

func runAll(names []string, cfg bench.Config, jsonOut string) error {
	report := bench.Report{Meta: bench.NewMeta(cfg), Workloads: map[string]*bench.Result{}}
	fmt.Printf("skadi-perf: seed %d, timed %s, traced %s, %s, GOMAXPROCS %d, commit %s\n",
		cfg.Seed, cfg.Timed, cfg.Traced, report.Meta.GoVersion, report.Meta.GOMAXPROCS, report.Meta.Commit)
	for _, name := range names {
		res, err := bench.Measure(name, cfg)
		if err != nil {
			return err
		}
		report.Workloads[name] = res
	}
	probes := bench.RunProbes(cfg.Seed)
	var failed errFailed
	for _, name := range names {
		res := report.Workloads[name]
		res.AddProbes(probes)
		res.Print(os.Stdout)
		failed.failed += res.Failed
		failed.attempted += res.Attempted
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(report, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, data, 0o644); err != nil {
			return err
		}
	}
	if failed.failed > 0 {
		return failed
	}
	return nil
}

func runCompare(files []string) error {
	if len(files) != 2 {
		return fmt.Errorf("-compare takes two report files, got %d", len(files))
	}
	a, err := bench.LoadReport(files[0])
	if err != nil {
		return err
	}
	b, err := bench.LoadReport(files[1])
	if err != nil {
		return err
	}
	if bench.Compare(os.Stdout, a, b) {
		return fmt.Errorf("%s is worse than %s beyond a bound", files[1], files[0])
	}
	return nil
}

// runDriver measures one workload the way the benchmark driver asks and
// prints the result line. With trace on, the seconds are split between a
// timed run (the base of driver.trace_overhead_frac and of the layer budget)
// and the traced run, and the probes follow.
func runDriver(name string, seed uint64, d time.Duration, trace bool, traceDir string) error {
	cfg := bench.Config{Seed: seed, Timed: d, Setups: 5}
	if trace {
		cfg = bench.Config{Seed: seed, Timed: d / 2, Traced: d - d/2, Setups: 1, TraceDir: traceDir}
	}
	res, err := bench.Measure(name, cfg)
	if err != nil {
		return err
	}
	metrics := map[string]bench.Value{}
	if trace {
		res.AddProbes(bench.RunProbes(seed))
		for k, v := range res.PerLayer {
			metrics[k] = v
		}
	} else {
		for _, d := range bench.DriverEndToEnd() {
			v := res.EndToEnd[d.Name]
			metrics[d.Name] = bench.Value{Value: v.Value, Unit: v.Unit}
		}
	}
	correct := res.Failed == 0 && res.PerLayer["runtime.records_left"].Value == 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	if res.FirstErr != "" {
		fmt.Fprintln(os.Stderr, "skadi-perf: first error:", res.FirstErr)
	}
	fmt.Println(string(line))
	if !correct {
		return errFailed{res.Failed, res.Attempted}
	}
	return nil
}
