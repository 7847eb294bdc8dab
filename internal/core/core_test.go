package core

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"skadi/internal/arrowlite"
	"skadi/internal/cluster"
	"skadi/internal/frontend/graphfe"
	"skadi/internal/frontend/mlfe"
	"skadi/internal/frontend/mrfe"
	"skadi/internal/frontend/streamfe"
	"skadi/internal/ir"
	"skadi/internal/runtime"
	"skadi/internal/task"
)

func newSkadi(t *testing.T) *Skadi {
	t.Helper()
	s, err := New(ClusterSpec{
		Servers: 3, ServerSlots: 4, ServerMemBytes: 64 << 20,
		GPUs: 2, FPGAs: 1, DeviceSlots: 2, DeviceMemBytes: 32 << 20,
		MemBladeBytes: 128 << 20,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func ordersTable(t *testing.T) *arrowlite.Batch {
	t.Helper()
	b := arrowlite.NewBuilder(arrowlite.NewSchema(
		arrowlite.Field{Name: "region", Type: arrowlite.Bytes},
		arrowlite.Field{Name: "amount", Type: arrowlite.Float64},
	))
	for i := 0; i < 100; i++ {
		region := []string{"east", "west"}[i%2]
		if err := b.Append(region, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestAvailableBackends(t *testing.T) {
	s := newSkadi(t)
	avail := s.AvailableBackends()
	for _, b := range []string{"cpu", "gpu", "fpga"} {
		if !avail[b] {
			t.Errorf("backend %q missing: %v", b, avail)
		}
	}
}

func TestSQLEndToEnd(t *testing.T) {
	s := newSkadi(t)
	got, err := s.SQL(context.Background(),
		"SELECT region, SUM(amount) FROM orders GROUP BY region",
		map[string]*arrowlite.Batch{"orders": ordersTable(t)})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 2 {
		t.Fatalf("groups = %d", got.NumRows())
	}
	sums := map[string]float64{}
	for r := 0; r < got.NumRows(); r++ {
		sums[string(got.ColByName("region").BytesAt(r))] = got.ColByName("sum_amount").Floats[r]
	}
	// east: even numbers 0..98 = 2450; west: odd numbers 1..99 = 2500.
	if sums["east"] != 2450 || sums["west"] != 2500 {
		t.Errorf("sums = %v", sums)
	}
}

// TestSQLFreesItsObjects: a query leaves nothing behind in the cluster. The
// caller gets the gathered result batch; shard inputs, partition pieces and
// vertex outputs used to stay in the directory and the stores forever
// (1.2 GB of heap after 54 benchmark queries), and each query's task
// functions in the registry.
func TestSQLFreesItsObjects(t *testing.T) {
	s := newSkadi(t)
	rt := s.Runtime()
	records, stored := rt.Head.Table.Len(), rt.Layer.StorageBytes()
	fns := len(rt.Registry.Names())
	for i := 0; i < 100; i++ {
		got, err := s.SQL(context.Background(),
			"SELECT region, SUM(amount) FROM orders GROUP BY region",
			map[string]*arrowlite.Batch{"orders": ordersTable(t)})
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != 2 {
			t.Fatalf("query %d: groups = %d", i, got.NumRows())
		}
		if n := rt.Head.Table.Len(); n != records {
			t.Errorf("query %d: %d ownership records left, want %d", i, n, records)
		}
		if b := rt.Layer.StorageBytes(); b != stored {
			t.Errorf("query %d: %d bytes left in the stores, want %d", i, b, stored)
		}
		if n := len(rt.Registry.Names()); n != fns {
			t.Fatalf("query %d: %d registered task functions, want %d", i, n, fns)
		}
	}
}

func TestSQLSyntaxError(t *testing.T) {
	s := newSkadi(t)
	if _, err := s.SQL(context.Background(), "SELEC nope", nil); err == nil {
		t.Error("bad SQL should fail")
	}
}

func TestMapReduceViaFacade(t *testing.T) {
	s := newSkadi(t)
	job := &mrfe.Job{
		Name: "wc",
		Map: func(rec []byte) []mrfe.KV {
			var out []mrfe.KV
			for _, w := range strings.Fields(string(rec)) {
				out = append(out, mrfe.KV{Key: w, Value: []byte("1")})
			}
			return out
		},
		Reduce: func(_ string, vals [][]byte) []byte {
			return []byte(strconv.Itoa(len(vals)))
		},
	}
	out, err := s.MapReduce(context.Background(), job,
		[][]byte{[]byte("a b a"), []byte("b a")})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]string{}
	for _, kv := range out {
		counts[kv.Key] = string(kv.Value)
	}
	if counts["a"] != "3" || counts["b"] != "2" {
		t.Errorf("counts = %v", counts)
	}
}

func TestPageRankViaFacade(t *testing.T) {
	s := newSkadi(t)
	ranks, err := s.PageRank(context.Background(),
		[]graphfe.Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 1}}, 10, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ranks[1]-ranks[2]) > 1e-9 {
		t.Errorf("symmetric 2-cycle should have equal ranks: %v", ranks)
	}
}

func TestSSSPViaFacade(t *testing.T) {
	s := newSkadi(t)
	dist, err := s.SSSP(context.Background(),
		[]graphfe.Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dist[3] != 2 {
		t.Errorf("dist(3) = %v", dist[3])
	}
}

func TestMLViaFacade(t *testing.T) {
	s := newSkadi(t)
	m, err := mlfe.NewMLP("net", []int{2, 4, 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	x := ir.NewTensor(3, 2)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	want, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Predict(context.Background(), m, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatalf("prediction differs at %d", i)
		}
	}
}

func TestTrainLinearViaFacade(t *testing.T) {
	s := newSkadi(t)
	x := ir.NewTensor(50, 1)
	y := ir.NewTensor(50, 1)
	for i := 0; i < 50; i++ {
		x.Data[i] = float64(i) / 25
		y.Data[i] = 3 * x.Data[i]
	}
	w, hist, err := s.TrainLinear(context.Background(),
		&mlfe.SGDTrainer{LearningRate: 0.2, Epochs: 100}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w.Data[0]-3) > 0.05 {
		t.Errorf("w = %v, want ≈3", w.Data[0])
	}
	if hist[len(hist)-1] >= hist[0] {
		t.Error("loss did not decrease")
	}
}

func TestExplain(t *testing.T) {
	s := newSkadi(t)
	plan, err := s.Explain(
		"SELECT region, SUM(amount) FROM orders WHERE amount > 5 GROUP BY region LIMIT 3",
		map[string]*arrowlite.Batch{"orders": ordersTable(t)})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"-- logical graph --", "-- optimized", "-- physical plan --",
		"keyed(region)", "rel.filter", "@"} {
		if !strings.Contains(plan, want) {
			t.Errorf("Explain missing %q:\n%s", want, plan)
		}
	}
	if _, err := s.Explain("garbage", nil); err == nil {
		t.Error("Explain of bad SQL should fail")
	}
}

func TestAutoParallelism(t *testing.T) {
	small := map[string]*arrowlite.Batch{"t": ordersTable(t)} // 100 rows
	if got := autoDegree(small); got != 1 {
		t.Errorf("autoDegree(100 rows) = %d, want 1", got)
	}
	big := arrowlite.NewBuilder(arrowlite.NewSchema(
		arrowlite.Field{Name: "x", Type: arrowlite.Int64},
	))
	for i := 0; i < 30_000; i++ {
		_ = big.Append(int64(i))
	}
	if got := autoDegree(map[string]*arrowlite.Batch{"t": big.Build()}); got != 8 {
		t.Errorf("autoDegree(30k rows) = %d, want capped 8", got)
	}

	// Auto mode (Parallelism=0) still answers queries correctly.
	s := newSkadi(t)
	s.Parallelism = 0
	got, err := s.SQL(context.Background(),
		"SELECT COUNT(*) FROM orders",
		map[string]*arrowlite.Batch{"orders": ordersTable(t)})
	if err != nil {
		t.Fatal(err)
	}
	if got.ColByName("count").Ints[0] != 100 {
		t.Errorf("count = %d", got.ColByName("count").Ints[0])
	}
}

func TestStreamViaFacade(t *testing.T) {
	s := newSkadi(t)
	p := &streamfe.Pipeline{Name: "clicks", Window: 2}
	outputs, err := s.Stream(context.Background(), p, [][]streamfe.Record{
		{{Key: "a", Value: 1}, {Key: "b", Value: 1}},
		{{Key: "a", Value: 1}},
		{{Key: "b", Value: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]map[string]float64{}
	for _, o := range outputs {
		if got[o.Window] == nil {
			got[o.Window] = map[string]float64{}
		}
		got[o.Window][o.Key] = o.Value
	}
	if got[0]["a"] != 2 || got[0]["b"] != 1 {
		t.Errorf("window 0 = %v", got[0])
	}
	if got[1]["b"] != 5 {
		t.Errorf("window 1 = %v", got[1])
	}
}

func TestImperativeTaskAPI(t *testing.T) {
	s := newSkadi(t)
	s.Register("shout", func(_ *task.Context, args [][]byte) ([][]byte, error) {
		return [][]byte{[]byte(strings.ToUpper(string(args[0])))}, nil
	})
	spec := task.NewSpec(s.Runtime().Job(), "shout", []task.Arg{task.ValueArg([]byte("hi"))}, 1)
	refs := s.Submit(spec)
	data, err := s.Get(context.Background(), refs[0])
	if err != nil || string(data) != "HI" {
		t.Errorf("Get = %q, %v", data, err)
	}
}

func TestIntegratedPipelineSQLIntoML(t *testing.T) {
	// The paper's motivating trend: one job running data processing AND ML
	// on one runtime, exchanging data through the caching layer.
	s := newSkadi(t)
	ctx := context.Background()

	// Stage 1 (SQL): aggregate per-region features.
	table, err := s.SQL(ctx, "SELECT region, SUM(amount), COUNT(*) FROM orders GROUP BY region",
		map[string]*arrowlite.Batch{"orders": ordersTable(t)})
	if err != nil {
		t.Fatal(err)
	}
	// Stage 2 (ML): train on the SQL output without leaving the runtime.
	n := table.NumRows()
	x := ir.NewTensor(n, 1)
	y := ir.NewTensor(n, 1)
	for r := 0; r < n; r++ {
		x.Data[r] = float64(table.ColByName("count").Ints[r]) / 100
		y.Data[r] = table.ColByName("sum_amount").Floats[r] / 2500
	}
	w, _, err := s.TrainLinear(ctx, &mlfe.SGDTrainer{LearningRate: 0.5, Epochs: 50}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Data) != 1 {
		t.Errorf("weights = %v", w.Data)
	}
}

func TestClusterSummaryAndNodes(t *testing.T) {
	s := newSkadi(t)
	sum := s.ClusterSummary()
	if !strings.Contains(sum, "server-0") || !strings.Contains(sum, "gpu-0") {
		t.Errorf("summary:\n%s", sum)
	}
	if len(s.NodesByKind(cluster.GPUDevice)) != 2 {
		t.Error("gpu count wrong")
	}
}

func TestDefaultSpecBoots(t *testing.T) {
	s, err := New(runtime.DefaultClusterSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(s.AvailableBackends()) < 3 {
		t.Errorf("backends = %v", s.AvailableBackends())
	}
}
