package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatchesCatalogue pins BENCHMARK.json to the catalogue the
// program reports from and -compare takes its bounds from, in both directions.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
	if len(f.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(f.Workloads), len(Workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != Workloads[i] || w.Why == "" {
			t.Errorf("workload %d = %q (why %q), want %q with a reason", i, w.Name, w.Why, Workloads[i])
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no definition", w.Name)
		}
	}
	want := DriverEndToEnd()
	if len(f.EndToEnd) != len(want) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalogue", len(f.EndToEnd), len(want))
	}
	for i, m := range f.EndToEnd {
		d := want[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue has %+v", i, m, d)
		}
	}
	if len(f.PerLayer) != len(PerLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalogue", len(f.PerLayer), len(PerLayer))
	}
	seen := map[string]bool{}
	for i, m := range f.PerLayer {
		d := PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, catalogue has %+v", i, m, d)
		}
		if d.Moves == "" || d.Source == "" {
			t.Errorf("%s has no source or prediction", d.Name)
		}
	}
	for _, d := range append(append([]MetricDef{}, EndToEnd...), PerLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is not made of letters, digits, _ . -", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmoke runs every workload briefly and checks what must hold on any
// machine: no failed op, an empty ownership table, no eviction, tenancy inert
// off dag_shuffle, and every catalogued metric present and finite.
func TestSmoke(t *testing.T) {
	probes := runProbes(7, 0.01)
	for _, name := range Workloads {
		name := name
		t.Run(name, func(t *testing.T) {
			traceDir := t.TempDir()
			res, err := Measure(name, Config{
				Seed: 7, Timed: 300 * time.Millisecond, Traced: 200 * time.Millisecond,
				Setups: 1, TraceDir: traceDir,
			})
			if err != nil {
				t.Fatal(err)
			}
			res.AddProbes(probes)
			if res.Failed != 0 || res.Attempted == 0 || res.EndToEnd["failed_frac"].Value != 0 {
				t.Errorf("%d of %d ops failed: %s", res.Failed, res.Attempted, res.FirstErr)
			}
			for _, zero := range []string{"runtime.records_left", "objectstore.evictions", "objectstore.spills", "tenancy.rejected"} {
				if v := res.PerLayer[zero].Value; v != 0 {
					t.Errorf("%s = %v, want 0", zero, v)
				}
			}
			if admitted := res.PerLayer["tenancy.admitted_per_op"].Value; (admitted != 0) != (name == DagShuffle) {
				t.Errorf("tenancy.admitted_per_op = %v", admitted)
			}
			for _, d := range DriverEndToEnd() {
				v, ok := res.EndToEnd[d.Name]
				if !ok || v.Value <= 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
					t.Errorf("end-to-end %s = %+v (present %v), want a positive finite %s", d.Name, v, ok, d.Unit)
				}
			}
			if len(res.PerLayer) != len(PerLayer) {
				t.Errorf("%d per-layer metrics reported, catalogue has %d", len(res.PerLayer), len(PerLayer))
			}
			for _, d := range PerLayer {
				v, ok := res.PerLayer[d.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
					t.Errorf("per-layer %s = %+v (present %v), want a finite %s", d.Name, v, ok, d.Unit)
				}
				// A timing probe that reads 0 did not run; the TCP ones may be
				// skipped where the sandbox has no loopback.
				if d.Source == "P" && d.Unit != "count" && v.Value <= 0 && !strings.HasPrefix(d.Name, "transport.tcp_") {
					t.Errorf("probe %s = %v, want > 0", d.Name, v.Value)
				}
			}
			if _, err := os.Stat(filepath.Join(traceDir, "trace-"+name+".json")); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCompareVerdicts checks the three verdicts on synthetic reports.
func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	noisy := []float64{60, 70, 80, 90, 100, 100, 130, 160, 200, 240}
	report := func(p50 float64, segs []float64) *Report {
		return &Report{Workloads: map[string]*Result{TaskSeq: {EndToEnd: map[string]Value{
			"op_p50_us": {Value: p50, Unit: "us", Segments: segs},
			"ops_per_s": {Value: 1000, Unit: "1/s", Segments: steady},
		}}}}
	}
	for _, c := range []struct {
		name    string
		a, b    *Report
		worse   bool
		verdict string
	}{
		{"same", report(100, steady), report(104, steady), false, "ok"},
		{"slower", report(100, steady), report(125, steady), true, "worse"},
		{"noisy", report(100, steady), report(104, noisy), false, "unresolved"},
	} {
		var out bytes.Buffer
		if worse := Compare(&out, c.a, c.b); worse != c.worse {
			t.Errorf("%s: worse = %v, want %v\n%s", c.name, worse, c.worse, out.String())
		}
		if !regexp.MustCompile(`op_p50_us.*` + c.verdict).Match(out.Bytes()) {
			t.Errorf("%s: no %q verdict on op_p50_us in\n%s", c.name, c.verdict, out.String())
		}
	}
}
