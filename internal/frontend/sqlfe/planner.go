package sqlfe

import (
	"fmt"
	"strconv"
	"strings"

	"skadi/internal/flowgraph"
	"skadi/internal/ir"
)

// PlanOptions sizes the generated graph.
type PlanOptions struct {
	// ScanParallelism shards table scans (default 2).
	ScanParallelism int
	// ShuffleParallelism shards joins and grouped aggregations (default 2).
	ShuffleParallelism int
}

// cmpAttr maps SQL comparison operators to rel.filter attributes.
func cmpAttr(op string) (string, error) {
	switch op {
	case "=":
		return "eq", nil
	case "!=":
		return "ne", nil
	case "<":
		return "lt", nil
	case "<=":
		return "le", nil
	case ">":
		return "gt", nil
	case ">=":
		return "ge", nil
	default:
		return "", fmt.Errorf("%w: comparison %q", ErrSyntax, op)
	}
}

// identityFunc returns a pass-through table IR function.
func identityFunc(name string) *ir.Func {
	f := ir.NewFunc(name)
	in := f.AddParam(ir.KTable)
	out := f.Add("core", "identity", ir.KTable, nil, in)
	f.Return(out)
	return f
}

// addFilters chains the conditions onto v as rel.filter ops.
func addFilters(f *ir.Func, v *ir.Value, conds []Cond) (*ir.Value, error) {
	for _, c := range conds {
		cmp, err := cmpAttr(c.Op)
		if err != nil {
			return nil, err
		}
		v = f.Add("rel", "filter", ir.KTable, map[string]string{
			"col": c.Col, "cmp": cmp, "value": c.Val,
		}, v)
	}
	return v, nil
}

// PlanGraph lowers a parsed query onto a logical FlowGraph. Source
// vertices are named after their tables; the sink is named "result".
// The executor's inputs map must provide a table per source vertex.
//
// GROUP BY and global aggregates run in two phases: the vertex feeding the
// aggregate (the scan, the join, or the where after a join) ends with a
// partial rel.agg, so each of its shards ships one row per group, and the
// aggregate vertex merges the partials.
func PlanGraph(q *Query, opts PlanOptions) (*flowgraph.Graph, error) {
	if opts.ScanParallelism < 1 {
		opts.ScanParallelism = 2
	}
	if opts.ShuffleParallelism < 1 {
		opts.ShuffleParallelism = 2
	}
	g := flowgraph.New("sql:" + q.From)
	aggSpecs := aggList(q)
	aggAttrs := func(phase string) map[string]string {
		return map[string]string{"group": q.GroupBy, "aggs": strings.Join(aggSpecs, ","), "phase": phase}
	}
	// feed ends the function of the vertex that feeds the aggregate (or
	// the tail, for a query without one).
	feed := func(f *ir.Func, v *ir.Value) {
		if len(aggSpecs) > 0 {
			v = f.Add("rel", "agg", ir.KTable, aggAttrs("partial"), v)
		}
		f.Return(v)
	}

	var current *flowgraph.Vertex
	if q.Join == nil {
		// Filters fold into the scan.
		scanFn := ir.NewFunc("scan_" + q.From)
		v, err := addFilters(scanFn, scanFn.AddParam(ir.KTable), q.Where)
		if err != nil {
			return nil, err
		}
		feed(scanFn, v)
		current = g.AddIR(q.From, scanFn)
		current.Parallelism = opts.ScanParallelism
	} else {
		left := g.AddIR(q.From, identityFunc("scan_"+q.From))
		left.Parallelism = opts.ScanParallelism
		right := g.AddIR(q.Join.Table, identityFunc("scan_"+q.Join.Table))
		right.Parallelism = opts.ScanParallelism

		joinFn := ir.NewFunc("join")
		l := joinFn.AddParam(ir.KTable)
		r := joinFn.AddParam(ir.KTable)
		j := joinFn.Add("rel", "join", ir.KTable, map[string]string{
			"leftkey": q.Join.LeftKey, "rightkey": q.Join.RightKey,
		}, l, r)
		joinV := g.AddIR("join", joinFn)
		joinV.Parallelism = opts.ShuffleParallelism
		g.ConnectKeyed(left, joinV, q.Join.LeftKey)
		g.ConnectKeyed(right, joinV, q.Join.RightKey)
		current = joinV

		if len(q.Where) > 0 {
			joinFn.Return(j)
			whereFn := ir.NewFunc("where")
			v, err := addFilters(whereFn, whereFn.AddParam(ir.KTable), q.Where)
			if err != nil {
				return nil, err
			}
			feed(whereFn, v)
			whereV := g.AddIR("where", whereFn)
			whereV.Parallelism = opts.ShuffleParallelism
			g.Connect(current, whereV)
			current = whereV
		} else {
			feed(joinFn, j)
		}
	}

	// Aggregation: merge the partials.
	if len(aggSpecs) > 0 {
		aggFn := ir.NewFunc("agg")
		aggFn.Return(aggFn.Add("rel", "agg", ir.KTable, aggAttrs("merge"), aggFn.AddParam(ir.KTable)))
		aggV := g.AddIR("agg", aggFn)
		if q.GroupBy != "" {
			aggV.Parallelism = opts.ShuffleParallelism
			g.ConnectKeyed(current, aggV, q.GroupBy)
		} else {
			aggV.Parallelism = 1
			g.Connect(current, aggV)
		}
		current = aggV
	}

	// Tail: having, distinct, order, limit, project — single-shard.
	tail := ir.NewFunc("tail")
	v, err := addFilters(tail, tail.AddParam(ir.KTable), q.Having)
	if err != nil {
		return nil, err
	}
	touched := len(q.Having) > 0
	if q.Distinct {
		// Deduplicate after projecting to the selected columns so
		// DISTINCT applies to the output schema; project here and skip
		// the tail projection.
		if cols := projectCols(q, len(aggSpecs) > 0); len(cols) > 0 {
			v = tail.Add("rel", "project", ir.KTable, map[string]string{
				"cols": strings.Join(cols, ","),
			}, v)
		}
		v = tail.Add("rel", "distinct", ir.KTable, nil, v)
		touched = true
	}
	if q.OrderBy != "" {
		v = tail.Add("rel", "orderby", ir.KTable, map[string]string{
			"col": q.OrderBy, "desc": strconv.FormatBool(q.Desc),
		}, v)
		touched = true
	}
	if q.Limit >= 0 {
		v = tail.Add("rel", "limit", ir.KTable, map[string]string{
			"n": strconv.Itoa(q.Limit),
		}, v)
		touched = true
	}
	if cols := projectCols(q, len(aggSpecs) > 0); len(cols) > 0 && !q.Distinct {
		v = tail.Add("rel", "project", ir.KTable, map[string]string{
			"cols": strings.Join(cols, ","),
		}, v)
		touched = true
	}
	if !touched {
		v = tail.Add("core", "identity", ir.KTable, nil, v)
	}
	tail.Return(v)
	tailV := g.AddIR("result", tail)
	tailV.Parallelism = 1
	g.Connect(current, tailV)

	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// aggList renders the SELECT aggregates as rel.agg specs.
func aggList(q *Query) []string {
	var out []string
	for _, item := range q.Select {
		if item.Agg == "" {
			continue
		}
		col := item.Col
		if col == "" {
			col = "*"
		}
		out = append(out, item.Agg+":"+col)
	}
	return out
}

// ResultColumn returns the output column name for one select item (agg
// outputs are named fn_col, COUNT(*) is "count").
func ResultColumn(item SelectItem) string {
	if item.Agg == "" {
		return item.Col
	}
	if item.Col == "" {
		return item.Agg
	}
	return item.Agg + "_" + item.Col
}

// projectCols returns the final projection list, or nil when the natural
// output schema already matches (SELECT *, or pure aggregate queries whose
// agg vertex already defines the schema).
func projectCols(q *Query, hasAgg bool) []string {
	for _, item := range q.Select {
		if item.Star {
			return nil
		}
	}
	if hasAgg {
		// The agg vertex emits group + aggregates; only project if the
		// user asked for a strict subset/reorder differing from that.
		natural := []string{}
		if q.GroupBy != "" {
			natural = append(natural, q.GroupBy)
		}
		for _, item := range q.Select {
			if item.Agg != "" {
				natural = append(natural, ResultColumn(item))
			}
		}
		want := make([]string, len(q.Select))
		for i, item := range q.Select {
			want[i] = ResultColumn(item)
		}
		if strings.Join(natural, ",") == strings.Join(want, ",") {
			return nil
		}
		return want
	}
	cols := make([]string, len(q.Select))
	for i, item := range q.Select {
		cols[i] = item.Col
	}
	return cols
}
