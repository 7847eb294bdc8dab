package sqlfe

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"skadi/internal/arrowlite"
	"skadi/internal/runtime"
)

// TestDifferentialRandomQueries generates random WHERE/JOIN/GROUP BY
// queries, runs them through the full distributed pipeline on one runtime
// with scan and shuffle parallelism each drawn from 1–5, and checks every
// result against a direct in-memory evaluation — a differential test of the
// parser, planner, optimizer, partitioner, and kernels together. Group keys
// are bytes (4 and 60 distinct values), int64, float64 and a joined column;
// aggregates are SUM, COUNT(*), AVG, MIN and MAX, grouped or global; some
// filters keep a handful of rows, so some shards see none.
func TestDifferentialRandomQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("runs hundreds of distributed queries")
	}
	rt, err := runtime.New(runtime.ClusterSpec{
		Servers: 2, ServerSlots: 4, ServerMemBytes: 64 << 20,
	}, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	rng := rand.New(rand.NewSource(2026))
	facts, fact := randomFacts(rng, 400)
	dims, dim := dimTable()
	tables := map[string]*arrowlite.Batch{"t": fact, "d": dim}
	for trial := 0; trial < 300; trial++ {
		q := randomQuery(rng, facts, dims)
		scanPar, shufflePar := 1+rng.Intn(5), 1+rng.Intn(5)
		t.Run(fmt.Sprintf("q%02d", trial), func(t *testing.T) {
			got := runSQL(t, rt, q.sql, tables, scanPar, shufflePar, true)
			if err := q.check(got); err != nil {
				t.Fatalf("%q (scan %d, shuffle %d): %v", q.sql, scanPar, shufflePar, err)
			}
		})
	}
}

// fact is one reference-side row of t, joined with d's columns when the
// query joins.
type fact struct {
	cat, tag string
	qty, did int64
	val, w   float64
	name     string
	weight   float64
}

func randomFacts(rng *rand.Rand, n int) ([]fact, *arrowlite.Batch) {
	b := arrowlite.NewBuilder(arrowlite.NewSchema(
		arrowlite.Field{Name: "cat", Type: arrowlite.Bytes},
		arrowlite.Field{Name: "tag", Type: arrowlite.Bytes},
		arrowlite.Field{Name: "qty", Type: arrowlite.Int64},
		arrowlite.Field{Name: "val", Type: arrowlite.Float64},
		arrowlite.Field{Name: "w", Type: arrowlite.Float64},
		arrowlite.Field{Name: "did", Type: arrowlite.Int64},
	))
	cats := []string{"a", "b", "c", "d"}
	ws := []float64{-2, 0.25, 1.5, 3.75, 10}
	rows := make([]fact, n)
	for i := range rows {
		r := fact{
			cat: cats[rng.Intn(len(cats))],
			tag: fmt.Sprintf("g%02d", rng.Intn(60)),
			qty: int64(rng.Intn(50)),
			val: float64(rng.Intn(1000)) / 10,
			w:   ws[rng.Intn(len(ws))],
			did: int64(rng.Intn(12)),
		}
		rows[i] = r
		_ = b.Append(r.cat, r.tag, r.qty, r.val, r.w, r.did)
	}
	return rows, b.Build()
}

// dimRow is one row of d.
type dimRow struct {
	id     int64
	name   string
	weight float64
}

// dimTable is a 12-row dimension table: ids 0–9, with 3 and 7 appearing
// twice (one fact row joins two dimension rows) and 10, 11 absent (their
// fact rows join nothing).
func dimTable() ([]dimRow, *arrowlite.Batch) {
	var rows []dimRow
	for id := int64(0); id < 10; id++ {
		rows = append(rows, dimRow{id, fmt.Sprintf("n%d", id%4), float64(id) * 1.5})
		if id == 3 || id == 7 {
			rows = append(rows, dimRow{id, "dup", float64(id) + 0.5})
		}
	}
	b := arrowlite.NewBuilder(arrowlite.NewSchema(
		arrowlite.Field{Name: "id", Type: arrowlite.Int64},
		arrowlite.Field{Name: "name", Type: arrowlite.Bytes},
		arrowlite.Field{Name: "weight", Type: arrowlite.Float64},
	))
	for _, r := range rows {
		_ = b.Append(r.id, r.name, r.weight)
	}
	return rows, b.Build()
}

// cell reads a named column of a reference row.
func (f fact) cell(col string) any {
	switch col {
	case "cat":
		return f.cat
	case "tag":
		return f.tag
	case "qty":
		return f.qty
	case "did":
		return f.did
	case "val":
		return f.val
	case "w":
		return f.w
	case "name":
		return f.name
	case "weight":
		return f.weight
	}
	panic("unknown column " + col)
}

func num(v any) float64 {
	if i, ok := v.(int64); ok {
		return float64(i)
	}
	return v.(float64)
}

// keyString renders a group key or selected cell exactly.
func keyString(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case int64:
		return strconv.FormatInt(x, 10)
	default:
		return strconv.FormatFloat(x.(float64), 'g', -1, 64)
	}
}

// cond is one WHERE conjunct with its reference predicate.
type cond struct {
	sql  string
	keep func(fact) bool
}

func numCond(col, op string, lit float64, text string) cond {
	return cond{fmt.Sprintf("%s %s %s", col, op, text), func(f fact) bool {
		v := num(f.cell(col))
		switch op {
		case ">":
			return v > lit
		case ">=":
			return v >= lit
		case "<":
			return v < lit
		default:
			return v <= lit
		}
	}}
}

func strCond(col, op, lit string) cond {
	return cond{fmt.Sprintf("%s %s '%s'", col, op, lit), func(f fact) bool {
		return (f.cell(col).(string) == lit) == (op == "=")
	}}
}

// selectiveCond keeps a handful of t's 400 rows (qty > 48, tag = 'g07',
// val >= 99), so most scan shards keep none, or no row at all (cat = 'zz').
func selectiveCond(rng *rand.Rand) cond {
	switch rng.Intn(4) {
	case 0:
		return numCond("qty", ">", 48, "48")
	case 1:
		return strCond("tag", "=", "g07")
	case 2:
		return numCond("val", ">=", 99, "99")
	default:
		return strCond("cat", "=", "zz")
	}
}

// randomCond draws one conjunct.
func randomCond(rng *rand.Rand, join bool) cond {
	ops := []string{">", "<=", ">=", "<"}
	n := 6
	if join {
		n = 8
	}
	switch rng.Intn(n) {
	case 0, 1:
		x := rng.Intn(50)
		return numCond("qty", ops[rng.Intn(4)], float64(x), strconv.Itoa(x))
	case 2:
		x := float64(rng.Intn(1000)) / 10
		return numCond("val", ops[rng.Intn(4)], x, strconv.FormatFloat(x, 'f', 1, 64))
	case 3:
		return strCond("cat", []string{"=", "!="}[rng.Intn(2)], []string{"a", "b", "c", "d"}[rng.Intn(4)])
	case 4:
		return selectiveCond(rng)
	case 5:
		return numCond("w", ops[rng.Intn(4)], 1.5, "1.5")
	case 6:
		return strCond("name", []string{"=", "!="}[rng.Intn(2)], []string{"n1", "dup", "n3"}[rng.Intn(3)])
	default:
		return numCond("weight", ops[rng.Intn(4)], 6, "6")
	}
}

// diffQuery is a generated query plus what checking its result needs.
type diffQuery struct {
	sql  string
	rows []fact
	// group is the GROUP BY column, "" for a global aggregate.
	group string
	// aggs are fn:col pairs (col "*" for COUNT(*)); empty for a selection.
	aggs [][2]string
	// cols are the selected columns of a plain selection.
	cols []string
}

func randomQuery(rng *rand.Rand, facts []fact, dims []dimRow) diffQuery {
	join := rng.Intn(3) == 0
	var rows []fact
	from := "t"
	if join {
		from = "t JOIN d ON did = id"
		for _, f := range facts {
			for _, d := range dims {
				if d.id == f.did {
					f.name, f.weight = d.name, d.weight
					rows = append(rows, f)
				}
			}
		}
	} else {
		rows = append(rows, facts...)
	}

	var conds []string
	for i, n := 0, rng.Intn(3); i < n; i++ {
		c := randomCond(rng, join)
		if i == 0 && rng.Intn(3) == 0 {
			c = selectiveCond(rng)
		}
		conds = append(conds, c.sql)
		var kept []fact
		for _, f := range rows {
			if c.keep(f) {
				kept = append(kept, f)
			}
		}
		rows = kept
	}
	where := ""
	if len(conds) > 0 {
		where = " WHERE " + strings.Join(conds, " AND ")
	}
	q := diffQuery{rows: rows}

	if rng.Intn(3) == 0 {
		q.cols = []string{"cat", "qty", "val"}
		if join {
			q.cols = []string{"tag", "did", "name", "weight"}
		}
		q.sql = "SELECT " + strings.Join(q.cols, ", ") + " FROM " + from + where
		return q
	}

	groups := []string{"", "", "cat", "tag", "qty", "w"}
	aggCols := []string{"val", "qty"}
	if join {
		groups = append(groups, "name")
		aggCols = append(aggCols, "weight")
	}
	q.group = groups[rng.Intn(len(groups))]
	seen := map[string]bool{}
	var items []string
	if q.group != "" {
		items = append(items, q.group)
	}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		fn := []string{"sum", "count", "avg", "min", "max"}[rng.Intn(5)]
		col := aggCols[rng.Intn(len(aggCols))]
		if fn == "count" {
			col = "*"
		}
		if seen[fn+col] {
			continue
		}
		seen[fn+col] = true
		q.aggs = append(q.aggs, [2]string{fn, col})
		items = append(items, strings.ToUpper(fn)+"("+col+")")
	}
	q.sql = "SELECT " + strings.Join(items, ", ") + " FROM " + from + where
	if q.group != "" {
		q.sql += " GROUP BY " + q.group
	}
	return q
}

// check compares an engine result with the reference evaluation.
func (q diffQuery) check(got *arrowlite.Batch) error {
	if len(q.aggs) == 0 {
		return q.checkSelection(got)
	}
	type acc struct {
		n                int64
		sums, mins, maxs []float64
	}
	want := map[string]*acc{}
	for _, f := range q.rows {
		key := ""
		if q.group != "" {
			key = keyString(f.cell(q.group))
		}
		a := want[key]
		if a == nil {
			k := len(q.aggs)
			a = &acc{sums: make([]float64, k), mins: make([]float64, k), maxs: make([]float64, k)}
			want[key] = a
		}
		for i, ag := range q.aggs {
			if ag[1] == "*" {
				continue
			}
			v := num(f.cell(ag[1]))
			a.sums[i] += v
			if a.n == 0 || v < a.mins[i] {
				a.mins[i] = v
			}
			if a.n == 0 || v > a.maxs[i] {
				a.maxs[i] = v
			}
		}
		a.n++
	}
	if q.group == "" && len(want) == 0 {
		// A global aggregate over no rows is one row: zeros, and 0/0 for AVG.
		k := len(q.aggs)
		want[""] = &acc{sums: make([]float64, k), mins: make([]float64, k), maxs: make([]float64, k)}
	}

	off := 0
	if q.group != "" {
		off = 1
	}
	if got.NumCols() != off+len(q.aggs) {
		return fmt.Errorf("%d columns, want %d", got.NumCols(), off+len(q.aggs))
	}
	if got.NumRows() != len(want) {
		return fmt.Errorf("%d rows, want %d", got.NumRows(), len(want))
	}
	for r := 0; r < got.NumRows(); r++ {
		key := ""
		if q.group != "" {
			key = keyString(resultCell(got, 0, r))
		}
		a, ok := want[key]
		if !ok {
			return fmt.Errorf("unexpected group %q", key)
		}
		for i, ag := range q.aggs {
			col := got.Col(off + i)
			var w float64
			switch ag[0] {
			case "count":
				if col.Type != arrowlite.Int64 {
					return fmt.Errorf("count column is %s", col.Type)
				}
				if col.Ints[r] != a.n {
					return fmt.Errorf("group %q: count %d, want %d", key, col.Ints[r], a.n)
				}
				continue
			case "sum":
				w = a.sums[i]
			case "avg":
				w = a.sums[i] / float64(a.n)
			case "min":
				w = a.mins[i]
			case "max":
				w = a.maxs[i]
			}
			if col.Type != arrowlite.Float64 {
				return fmt.Errorf("%s column is %s", ag[0], col.Type)
			}
			if g := col.Floats[r]; !closeTo(g, w) {
				return fmt.Errorf("group %q: %s(%s) = %v, want %v", key, ag[0], ag[1], g, w)
			}
		}
	}
	return nil
}

// closeTo compares floats up to summation order; NaN equals NaN.
func closeTo(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func resultCell(b *arrowlite.Batch, c, r int) any {
	col := b.Col(c)
	switch col.Type {
	case arrowlite.Int64:
		return col.Ints[r]
	case arrowlite.Float64:
		return col.Floats[r]
	default:
		return string(col.BytesAt(r))
	}
}

// checkSelection compares a plain selection as a multiset of rows.
func (q diffQuery) checkSelection(got *arrowlite.Batch) error {
	var want, lines []string
	for _, f := range q.rows {
		var parts []string
		for _, c := range q.cols {
			parts = append(parts, keyString(f.cell(c)))
		}
		want = append(want, strings.Join(parts, "|"))
	}
	for r := 0; r < got.NumRows(); r++ {
		var parts []string
		for c := 0; c < got.NumCols(); c++ {
			parts = append(parts, keyString(resultCell(got, c, r)))
		}
		lines = append(lines, strings.Join(parts, "|"))
	}
	sort.Strings(want)
	sort.Strings(lines)
	if len(lines) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(lines), len(want))
	}
	for i := range want {
		if lines[i] != want[i] {
			return fmt.Errorf("row %d = %q, want %q", i, lines[i], want[i])
		}
	}
	return nil
}
