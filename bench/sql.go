package bench

import (
	"fmt"
	"sort"
	"time"

	"skadi/internal/arrowlite"
	"skadi/internal/flowgraph"
	"skadi/internal/frontend/sqlfe"
	"skadi/internal/ir"
	"skadi/internal/physical"
)

const (
	sqlSalesRows   = 50_000
	sqlItems       = 12
	sqlParallelism = 4
)

// The two queries sql_analytics alternates: a filtered aggregation with a
// sort, and a join against the dimension table with a limit.
var sqlQueries = [2]string{
	"SELECT region, SUM(amount), COUNT(*) FROM sales WHERE amount > 50 GROUP BY region ORDER BY sum_amount DESC",
	"SELECT category, SUM(amount) FROM sales JOIN items ON item = id GROUP BY category ORDER BY sum_amount DESC LIMIT 3",
}

var (
	sqlRegions    = []string{"east", "west", "north", "south"}
	sqlCategories = []string{"tools", "toys", "food"}
)

// saleRow is one generated fact row, kept beside the batch for the reference.
type saleRow struct {
	region string
	item   int64
	amount float64
}

// sqlData is sql_analytics' input and the reference result of each query.
type sqlData struct {
	inputs map[string][]*ir.Datum
	want   [2][][]any
}

// genSales generates the sales fact table (schema of examples/sql_analytics)
// from the seed. Amounts are whole numbers, so a SUM is exact in float64
// whatever order the shards add in.
func genSales(seed uint64) ([]saleRow, *arrowlite.Batch) {
	r := newRand(seed, "sql/sales")
	rows := make([]saleRow, sqlSalesRows)
	b := arrowlite.NewBuilder(arrowlite.NewSchema(
		arrowlite.Field{Name: "region", Type: arrowlite.Bytes},
		arrowlite.Field{Name: "item", Type: arrowlite.Int64},
		arrowlite.Field{Name: "amount", Type: arrowlite.Float64},
	))
	for i := range rows {
		rows[i] = saleRow{
			region: sqlRegions[r.Intn(len(sqlRegions))],
			item:   int64(r.Intn(sqlItems)),
			amount: float64(r.Intn(100)),
		}
		_ = b.Append(rows[i].region, rows[i].item, rows[i].amount) // types match the schema
	}
	return rows, b.Build()
}

// genItems generates the 12-row dimension table; the seed assigns categories.
func genItems(seed uint64) ([]string, *arrowlite.Batch) {
	r := newRand(seed, "sql/items")
	cats := make([]string, sqlItems)
	b := arrowlite.NewBuilder(arrowlite.NewSchema(
		arrowlite.Field{Name: "id", Type: arrowlite.Int64},
		arrowlite.Field{Name: "category", Type: arrowlite.Bytes},
	))
	for i := range cats {
		cats[i] = sqlCategories[r.Intn(len(sqlCategories))]
		_ = b.Append(int64(i), cats[i]) // types match the schema
	}
	return cats, b.Build()
}

// sqlReference evaluates both queries single-threaded in plain Go.
func sqlReference(sales []saleRow, itemCat []string) [2][][]any {
	type agg struct {
		sum   float64
		count int64
	}
	byRegion := map[string]*agg{}
	byCat := map[string]*agg{}
	for _, s := range sales {
		if s.amount > 50 {
			a := byRegion[s.region]
			if a == nil {
				a = &agg{}
				byRegion[s.region] = a
			}
			a.sum += s.amount
			a.count++
		}
		cat := itemCat[s.item]
		a := byCat[cat]
		if a == nil {
			a = &agg{}
			byCat[cat] = a
		}
		a.sum += s.amount
	}
	var q0, q1 [][]any
	for region, a := range byRegion {
		q0 = append(q0, []any{region, a.sum, a.count})
	}
	for cat, a := range byCat {
		q1 = append(q1, []any{cat, a.sum})
	}
	bySumDesc := func(rows [][]any) {
		sort.Slice(rows, func(i, j int) bool { return rows[i][1].(float64) > rows[j][1].(float64) })
	}
	bySumDesc(q0)
	bySumDesc(q1)
	if len(q1) > 3 {
		q1 = q1[:3]
	}
	return [2][][]any{q0, q1}
}

func prepareSQL(e *env) error {
	sales, salesBatch := genSales(e.seed)
	itemCat, itemsBatch := genItems(e.seed)
	t0 := time.Now()
	want := sqlReference(sales, itemCat)
	e.extra["driver.sql_reference_ms"] = float64(time.Since(t0).Microseconds()) / 1e3
	e.data = &sqlData{
		inputs: map[string][]*ir.Datum{
			"sales": {ir.TableDatum(salesBatch)},
			"items": {ir.TableDatum(itemsBatch)},
		},
		want: want,
	}
	return nil
}

// opSQL runs one query through the five public calls core.SQL makes, composed
// here because core.SQL never frees intermediates (see README.md).
func opSQL(e *env, c *client) error {
	d := e.data.(*sqlData)
	op := c.nextOp()
	which := int(c.seq % 2)

	t := c.now()
	q, err := sqlfe.Parse(sqlQueries[which])
	c.rec(spParse, op, 0, t)
	if err != nil {
		return err
	}
	t = c.now()
	g, err := sqlfe.PlanGraph(q, sqlfe.PlanOptions{
		ScanParallelism: sqlParallelism, ShuffleParallelism: sqlParallelism,
	})
	c.rec(spSQLPlan, op, 0, t)
	if err != nil {
		return err
	}
	t = c.now()
	g.Optimize()
	c.rec(spOptim, op, 0, t)
	t = c.now()
	plan, err := physical.NewPlan(g, physical.Options{
		DefaultParallelism: sqlParallelism, Available: map[string]bool{"cpu": true},
	})
	c.rec(spPhysPl, op, 0, t)
	if err != nil {
		return err
	}
	t = c.now()
	res, err := physical.NewExecutor(e.rt, plan).FreeIntermediates(true).Run(c.ctx, d.inputs)
	c.rec(spPhysRun, op, 0, t)
	if err != nil {
		return err
	}
	return checkSQLResult(g, res, d.want[which])
}

// checkSQLResult compares the query's result batch cell by cell with the
// reference rows.
func checkSQLResult(g *flowgraph.Graph, res map[string]*ir.Datum, want [][]any) error {
	var got *arrowlite.Batch
	for _, d := range res {
		if d.Kind == ir.KTable {
			got = d.Table
		}
	}
	if got == nil {
		return fmt.Errorf("%s produced no table: %w", g.Name, errMismatch)
	}
	if got.NumRows() != len(want) {
		return fmt.Errorf("%d rows, want %d: %w", got.NumRows(), len(want), errMismatch)
	}
	for r, row := range want {
		if got.NumCols() != len(row) {
			return fmt.Errorf("%d columns, want %d: %w", got.NumCols(), len(row), errMismatch)
		}
		for col, cell := range row {
			column := got.Col(col)
			ok := false
			switch v := cell.(type) {
			case string:
				ok = column.Type == arrowlite.Bytes && string(column.BytesAt(r)) == v
			case int64:
				ok = column.Type == arrowlite.Int64 && column.Ints[r] == v
			case float64:
				ok = column.Type == arrowlite.Float64 && column.Floats[r] == v
			}
			if !ok {
				return fmt.Errorf("row %d column %d is not %v: %w", r, col, cell, errMismatch)
			}
		}
	}
	return nil
}
