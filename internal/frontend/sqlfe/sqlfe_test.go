package sqlfe

import (
	"context"
	"errors"
	"strings"
	"testing"

	"skadi/internal/arrowlite"
	"skadi/internal/flowgraph"
	"skadi/internal/ir"
	"skadi/internal/physical"
	"skadi/internal/runtime"
)

func TestLex(t *testing.T) {
	toks, err := lex("SELECT a, SUM(b) FROM t WHERE c >= 10 AND d = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tok := range toks {
		if tok.kind == tokEOF {
			break
		}
		kinds = append(kinds, tok.text)
	}
	want := "SELECT a , SUM ( b ) FROM t WHERE c >= 10 AND d = x"
	if got := strings.Join(kinds, " "); got != want {
		t.Errorf("tokens = %q, want %q", got, want)
	}
}

func TestLexErrors(t *testing.T) {
	for _, q := range []string{"SELECT 'unterminated", "SELECT a ! b", "SELECT #"} {
		if _, err := lex(q); err == nil {
			t.Errorf("lex(%q) should fail", q)
		}
	}
}

func TestParseSimple(t *testing.T) {
	q, err := Parse("SELECT * FROM sales WHERE amount > 10 LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Select[0].Star || q.From != "sales" || q.Limit != 5 {
		t.Errorf("query = %+v", q)
	}
	if len(q.Where) != 1 || q.Where[0].Col != "amount" || q.Where[0].Op != ">" || q.Where[0].Val != "10" {
		t.Errorf("where = %+v", q.Where)
	}
}

func TestParseAggregates(t *testing.T) {
	q, err := Parse("SELECT region, SUM(amount), COUNT(*) FROM sales GROUP BY region ORDER BY sum_amount DESC")
	if err != nil {
		t.Fatal(err)
	}
	if q.GroupBy != "region" || !q.Desc || q.OrderBy != "sum_amount" {
		t.Errorf("query = %+v", q)
	}
	if q.Select[1].Agg != "sum" || q.Select[1].Col != "amount" {
		t.Errorf("agg item = %+v", q.Select[1])
	}
	if q.Select[2].Agg != "count" || q.Select[2].Col != "" {
		t.Errorf("count item = %+v", q.Select[2])
	}
}

func TestParseJoin(t *testing.T) {
	q, err := Parse("SELECT name, qty FROM orders JOIN items ON orders.item = items.id WHERE qty > 2")
	if err != nil {
		t.Fatal(err)
	}
	if q.Join == nil || q.Join.Table != "items" || q.Join.LeftKey != "item" || q.Join.RightKey != "id" {
		t.Errorf("join = %+v", q.Join)
	}
}

func TestParseStringLiteral(t *testing.T) {
	q, err := Parse("SELECT * FROM t WHERE region = 'east'")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Where[0].IsStr || q.Where[0].Val != "east" {
		t.Errorf("where = %+v", q.Where[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT FROM t",
		"SELECT * WHERE x = 1",
		"SELECT * FROM t LIMIT abc",
		"SELECT * FROM t GROUP BY x",          // group without aggregates
		"SELECT a, SUM(b) FROM t GROUP BY c",  // bare col not the group key
		"SELECT SUM(*) FROM t",                // only COUNT(*) allowed
		"SELECT * , SUM(a) FROM t GROUP BY a", // star with aggregates
		"SELECT * FROM t garbage",
		"SELECT * FROM t WHERE a ~ 1",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestPlanGraphShape(t *testing.T) {
	q, err := Parse("SELECT region, SUM(amount) FROM sales WHERE amount > 5 GROUP BY region LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	g, err := PlanGraph(q, PlanOptions{ScanParallelism: 4, ShuffleParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	// scan(sales) -keyed-> agg -forward-> result
	if len(g.Vertices) != 3 {
		t.Fatalf("vertices = %d:\n%s", len(g.Vertices), g.String())
	}
	var keyed int
	for _, e := range g.Edges {
		if e.Kind == flowgraph.Keyed {
			keyed++
			if e.Key != "region" {
				t.Errorf("keyed on %q", e.Key)
			}
		}
	}
	if keyed != 1 {
		t.Errorf("keyed edges = %d", keyed)
	}
	srcs := g.Sources()
	if len(srcs) != 1 || srcs[0].Name != "sales" || srcs[0].Parallelism != 4 {
		t.Errorf("sources = %v", srcs)
	}
}

func TestPlanGraphJoinShape(t *testing.T) {
	q, err := Parse("SELECT * FROM orders JOIN items ON item = id")
	if err != nil {
		t.Fatal(err)
	}
	g, err := PlanGraph(q, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Sources()) != 2 {
		t.Errorf("sources = %d, want 2", len(g.Sources()))
	}
}

// engine runs a query end to end against in-memory tables on a fresh
// runtime, with scan and shuffle parallelism 2.
func engine(t *testing.T, query string, tables map[string]*arrowlite.Batch) *arrowlite.Batch {
	t.Helper()
	rt, err := runtime.New(runtime.ClusterSpec{
		Servers: 2, ServerSlots: 4, ServerMemBytes: 64 << 20,
	}, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	return runSQL(t, rt, query, tables, 2, 2, false)
}

// runSQL plans and runs one query on rt and returns its result table;
// free releases the run's intermediate objects afterwards.
func runSQL(t *testing.T, rt *runtime.Runtime, query string, tables map[string]*arrowlite.Batch, scanPar, shufflePar int, free bool) *arrowlite.Batch {
	t.Helper()
	q, err := Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	g, err := PlanGraph(q, PlanOptions{ScanParallelism: scanPar, ShuffleParallelism: shufflePar})
	if err != nil {
		t.Fatal(err)
	}
	g.Optimize()
	plan, err := physical.NewPlan(g, physical.Options{
		DefaultParallelism: 1,
		Available:          map[string]bool{"cpu": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]*ir.Datum{}
	for name, batch := range tables {
		inputs[name] = []*ir.Datum{ir.TableDatum(batch)}
	}
	results, err := physical.NewExecutor(rt, plan).FreeIntermediates(free).Run(context.Background(), inputs)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	res, ok := results["result"]
	if !ok {
		// After fusion the sink may carry a merged name ending in "result".
		for name, d := range results {
			if strings.HasSuffix(name, "result") {
				res, ok = d, true
			}
		}
	}
	if !ok {
		t.Fatalf("no result sink in %v", results)
	}
	return res.Table
}

func salesTable(t *testing.T) *arrowlite.Batch {
	t.Helper()
	b := arrowlite.NewBuilder(arrowlite.NewSchema(
		arrowlite.Field{Name: "region", Type: arrowlite.Bytes},
		arrowlite.Field{Name: "item", Type: arrowlite.Int64},
		arrowlite.Field{Name: "amount", Type: arrowlite.Float64},
	))
	rows := []struct {
		region string
		item   int64
		amount float64
	}{
		{"east", 1, 10}, {"east", 2, 30}, {"west", 1, 20},
		{"west", 3, 5}, {"east", 3, 15}, {"north", 1, 50},
	}
	for _, r := range rows {
		if err := b.Append(r.region, r.item, r.amount); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestEndToEndFilter(t *testing.T) {
	got := engine(t, "SELECT * FROM sales WHERE amount >= 20",
		map[string]*arrowlite.Batch{"sales": salesTable(t)})
	if got.NumRows() != 3 {
		t.Errorf("rows = %d, want 3", got.NumRows())
	}
}

func TestEndToEndGroupBy(t *testing.T) {
	got := engine(t, "SELECT region, SUM(amount), COUNT(*) FROM sales GROUP BY region",
		map[string]*arrowlite.Batch{"sales": salesTable(t)})
	if got.NumRows() != 3 {
		t.Fatalf("groups = %d:\nschema %+v", got.NumRows(), got.Schema)
	}
	sums := map[string]float64{}
	for r := 0; r < got.NumRows(); r++ {
		sums[string(got.ColByName("region").BytesAt(r))] = got.ColByName("sum_amount").Floats[r]
	}
	if sums["east"] != 55 || sums["west"] != 25 || sums["north"] != 50 {
		t.Errorf("sums = %v", sums)
	}
}

func TestEndToEndOrderLimit(t *testing.T) {
	got := engine(t, "SELECT amount FROM sales ORDER BY amount DESC LIMIT 2",
		map[string]*arrowlite.Batch{"sales": salesTable(t)})
	if got.NumRows() != 2 {
		t.Fatalf("rows = %d", got.NumRows())
	}
	if got.ColByName("amount").Floats[0] != 50 || got.ColByName("amount").Floats[1] != 30 {
		t.Errorf("amounts = %v", got.ColByName("amount").Floats)
	}
}

func TestEndToEndJoin(t *testing.T) {
	items := arrowlite.NewBuilder(arrowlite.NewSchema(
		arrowlite.Field{Name: "id", Type: arrowlite.Int64},
		arrowlite.Field{Name: "name", Type: arrowlite.Bytes},
	))
	_ = items.Append(int64(1), "widget")
	_ = items.Append(int64(2), "gadget")
	got := engine(t, "SELECT name, amount FROM sales JOIN items ON item = id WHERE amount > 5",
		map[string]*arrowlite.Batch{"sales": salesTable(t), "items": items.Build()})
	// Items 1,2 match sales rows with amount > 5: (east,1,10),(east,2,30),(west,1,20),(north,1,50).
	if got.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4", got.NumRows())
	}
	if got.Schema.Index("name") < 0 || got.Schema.Index("amount") < 0 || got.NumCols() != 2 {
		t.Errorf("schema = %+v", got.Schema)
	}
}

func TestEndToEndStringFilter(t *testing.T) {
	got := engine(t, "SELECT amount FROM sales WHERE region = 'west'",
		map[string]*arrowlite.Batch{"sales": salesTable(t)})
	if got.NumRows() != 2 {
		t.Errorf("rows = %d, want 2", got.NumRows())
	}
}

func TestEndToEndGlobalAgg(t *testing.T) {
	got := engine(t, "SELECT COUNT(*), SUM(amount) FROM sales",
		map[string]*arrowlite.Batch{"sales": salesTable(t)})
	if got.NumRows() != 1 {
		t.Fatalf("rows = %d", got.NumRows())
	}
	if got.ColByName("count").Ints[0] != 6 || got.ColByName("sum_amount").Floats[0] != 130 {
		t.Errorf("count=%d sum=%v", got.ColByName("count").Ints[0], got.ColByName("sum_amount").Floats[0])
	}
}

func TestParseHavingDistinct(t *testing.T) {
	q, err := Parse("SELECT region, SUM(amount) FROM sales GROUP BY region HAVING sum_amount > 30 AND count < 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Having) != 2 || q.Having[0].Col != "sum_amount" || q.Having[1].Op != "<" {
		t.Errorf("having = %+v", q.Having)
	}
	q, err = Parse("SELECT DISTINCT region FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Distinct {
		t.Error("DISTINCT not parsed")
	}
	// Semantic rejections.
	for _, bad := range []string{
		"SELECT region FROM sales HAVING region = 'x'", // HAVING without aggregates
		"SELECT DISTINCT SUM(amount) FROM sales",       // DISTINCT with aggregates
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestEndToEndHaving(t *testing.T) {
	got := engine(t, "SELECT region, SUM(amount) FROM sales GROUP BY region HAVING sum_amount >= 50",
		map[string]*arrowlite.Batch{"sales": salesTable(t)})
	// sums: east 55, west 25, north 50 → east and north survive.
	if got.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", got.NumRows())
	}
	for r := 0; r < got.NumRows(); r++ {
		if got.ColByName("sum_amount").Floats[r] < 50 {
			t.Errorf("HAVING leaked row with sum %v", got.ColByName("sum_amount").Floats[r])
		}
	}
}

func TestEndToEndDistinct(t *testing.T) {
	got := engine(t, "SELECT DISTINCT region FROM sales ORDER BY region",
		map[string]*arrowlite.Batch{"sales": salesTable(t)})
	if got.NumRows() != 3 || got.NumCols() != 1 {
		t.Fatalf("result %dx%d, want 3x1", got.NumRows(), got.NumCols())
	}
	want := []string{"east", "north", "west"}
	for r, w := range want {
		if string(got.Col(0).BytesAt(r)) != w {
			t.Errorf("row %d = %q, want %q", r, got.Col(0).BytesAt(r), w)
		}
	}
}

func TestErrSyntaxIs(t *testing.T) {
	_, err := Parse("SELECT")
	if !errors.Is(err, ErrSyntax) {
		t.Errorf("err = %v", err)
	}
}
