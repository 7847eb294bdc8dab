package ir

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"skadi/internal/arrowlite"
)

// Kernel executes one op over resolved inputs.
type Kernel func(op *Op, args []*Datum) (*Datum, error)

// Errors returned by execution.
var (
	// ErrNoKernel reports an op with no registered kernel.
	ErrNoKernel = errors.New("ir: no kernel for op")
	// ErrBadOperands reports operands of the wrong kind/shape.
	ErrBadOperands = errors.New("ir: bad operands")
)

// kernels is the default kernel registry, keyed by "dialect.name". All
// kernels compute on the CPU; backend selection affects cost and placement,
// not semantics (one hardware-agnostic op, many lowerings).
var kernels = map[string]Kernel{}

// RegisterKernel installs a kernel, replacing any existing registration.
func RegisterKernel(key string, k Kernel) { kernels[key] = k }

// LookupKernel returns the kernel for an op key.
func LookupKernel(key string) (Kernel, bool) {
	k, ok := kernels[key]
	return k, ok
}

// ExecOp runs a single op.
func ExecOp(op *Op, args []*Datum) (*Datum, error) {
	k, ok := kernels[op.Key()]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoKernel, op.Key())
	}
	return k(op, args)
}

// Eval interprets a function over the given arguments.
func Eval(f *Func, args []*Datum) ([]*Datum, error) {
	if len(args) != len(f.Params) {
		return nil, fmt.Errorf("%w: %d args for %d params", ErrBadOperands, len(args), len(f.Params))
	}
	env := make(map[int]*Datum, f.nextID)
	for i, p := range f.Params {
		env[p.ID] = args[i]
	}
	for _, op := range f.Ops {
		ins := make([]*Datum, len(op.Operands))
		for i, in := range op.Operands {
			d, ok := env[in.ID]
			if !ok {
				return nil, fmt.Errorf("%w: v%d undefined", ErrBadOperands, in.ID)
			}
			ins[i] = d
		}
		out, err := ExecOp(op, ins)
		if err != nil {
			return nil, fmt.Errorf("ir: %s: %w", op.Key(), err)
		}
		env[op.Results[0].ID] = out
	}
	rets := make([]*Datum, len(f.Rets))
	for i, rv := range f.Rets {
		d, ok := env[rv.ID]
		if !ok {
			return nil, fmt.Errorf("%w: return v%d undefined", ErrBadOperands, rv.ID)
		}
		rets[i] = d
	}
	return rets, nil
}

func wantTensor(d *Datum) (*Tensor, error) {
	if d.Kind != KTensor {
		return nil, fmt.Errorf("%w: want tensor, got %s", ErrBadOperands, d.Kind)
	}
	return d.Tensor, nil
}

func wantTable(d *Datum) (*arrowlite.Batch, error) {
	if d.Kind != KTable {
		return nil, fmt.Errorf("%w: want table, got %s", ErrBadOperands, d.Kind)
	}
	return d.Table, nil
}

func init() {
	registerCoreKernels()
	registerTensorKernels()
	registerRelKernels()
}

func registerCoreKernels() {
	RegisterKernel("core.const", func(op *Op, _ []*Datum) (*Datum, error) {
		if op.Const == nil {
			return nil, fmt.Errorf("%w: const without value", ErrBadOperands)
		}
		return op.Const, nil
	})
	RegisterKernel("core.identity", func(_ *Op, args []*Datum) (*Datum, error) {
		if len(args) != 1 {
			return nil, ErrBadOperands
		}
		return args[0], nil
	})
}

// elementwise applies f to every element, returning a fresh tensor.
func elementwise(t *Tensor, f func(float64) float64) *Tensor {
	out := &Tensor{Shape: append([]int(nil), t.Shape...), Data: make([]float64, len(t.Data))}
	for i, v := range t.Data {
		out.Data[i] = f(v)
	}
	return out
}

// unaryFn returns the scalar function for one fused-chain step, e.g.
// "relu", "scale:2.0", "addscalar:-1".
func unaryFn(step string) (func(float64) float64, error) {
	name, arg, _ := strings.Cut(step, ":")
	var x float64
	if arg != "" {
		var err error
		x, err = strconv.ParseFloat(arg, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad step %q", ErrBadOperands, step)
		}
	}
	switch name {
	case "relu":
		return func(v float64) float64 {
			if v < 0 {
				return 0
			}
			return v
		}, nil
	case "scale":
		return func(v float64) float64 { return v * x }, nil
	case "addscalar":
		return func(v float64) float64 { return v + x }, nil
	case "neg":
		return func(v float64) float64 { return -v }, nil
	default:
		return nil, fmt.Errorf("%w: unknown unary op %q", ErrBadOperands, name)
	}
}

func registerTensorKernels() {
	RegisterKernel("tensor.matmul", func(_ *Op, args []*Datum) (*Datum, error) {
		if len(args) != 2 {
			return nil, ErrBadOperands
		}
		a, err := wantTensor(args[0])
		if err != nil {
			return nil, err
		}
		b, err := wantTensor(args[1])
		if err != nil {
			return nil, err
		}
		if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[0] {
			return nil, fmt.Errorf("%w: matmul %v × %v", ErrBadOperands, a.Shape, b.Shape)
		}
		m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
		out := NewTensor(m, n)
		for i := 0; i < m; i++ {
			for l := 0; l < k; l++ {
				av := a.Data[i*k+l]
				if av == 0 {
					continue
				}
				row := b.Data[l*n : (l+1)*n]
				outRow := out.Data[i*n : (i+1)*n]
				for j, bv := range row {
					outRow[j] += av * bv
				}
			}
		}
		return TensorDatum(out), nil
	})

	binop := func(name string, f func(a, b float64) float64) {
		RegisterKernel("tensor."+name, func(_ *Op, args []*Datum) (*Datum, error) {
			if len(args) != 2 {
				return nil, ErrBadOperands
			}
			a, err := wantTensor(args[0])
			if err != nil {
				return nil, err
			}
			b, err := wantTensor(args[1])
			if err != nil {
				return nil, err
			}
			if !a.SameShape(b) {
				return nil, fmt.Errorf("%w: %s shapes %v vs %v", ErrBadOperands, name, a.Shape, b.Shape)
			}
			out := &Tensor{Shape: append([]int(nil), a.Shape...), Data: make([]float64, len(a.Data))}
			for i := range a.Data {
				out.Data[i] = f(a.Data[i], b.Data[i])
			}
			return TensorDatum(out), nil
		})
	}
	binop("add", func(a, b float64) float64 { return a + b })
	binop("mul", func(a, b float64) float64 { return a * b })
	binop("sub", func(a, b float64) float64 { return a - b })

	unop := func(name string) {
		RegisterKernel("tensor."+name, func(op *Op, args []*Datum) (*Datum, error) {
			if len(args) != 1 {
				return nil, ErrBadOperands
			}
			t, err := wantTensor(args[0])
			if err != nil {
				return nil, err
			}
			step := name
			switch name {
			case "scale":
				step = "scale:" + op.Attr("factor")
			case "addscalar":
				step = "addscalar:" + op.Attr("value")
			}
			f, err := unaryFn(step)
			if err != nil {
				return nil, err
			}
			return TensorDatum(elementwise(t, f)), nil
		})
	}
	unop("relu")
	unop("scale")
	unop("addscalar")
	unop("neg")

	// tensor.addrow broadcasts a [1,n] bias over the rows of a [m,n]
	// tensor — the bias-add of dense layers.
	RegisterKernel("tensor.addrow", func(_ *Op, args []*Datum) (*Datum, error) {
		if len(args) != 2 {
			return nil, ErrBadOperands
		}
		a, err := wantTensor(args[0])
		if err != nil {
			return nil, err
		}
		b, err := wantTensor(args[1])
		if err != nil {
			return nil, err
		}
		if len(a.Shape) != 2 || len(b.Shape) != 2 || b.Shape[0] != 1 || a.Shape[1] != b.Shape[1] {
			return nil, fmt.Errorf("%w: addrow %v + %v", ErrBadOperands, a.Shape, b.Shape)
		}
		n := a.Shape[1]
		out := &Tensor{Shape: append([]int(nil), a.Shape...), Data: make([]float64, len(a.Data))}
		for i := range a.Data {
			out.Data[i] = a.Data[i] + b.Data[i%n]
		}
		return TensorDatum(out), nil
	})

	RegisterKernel("tensor.sum", func(_ *Op, args []*Datum) (*Datum, error) {
		if len(args) != 1 {
			return nil, ErrBadOperands
		}
		t, err := wantTensor(args[0])
		if err != nil {
			return nil, err
		}
		var sum float64
		for _, v := range t.Data {
			sum += v
		}
		return ScalarDatum(sum), nil
	})

	// tensor.fused applies a chain of unary steps in one pass over the
	// data — the product of the FuseElementwise pass.
	RegisterKernel("tensor.fused", func(op *Op, args []*Datum) (*Datum, error) {
		if len(args) != 1 {
			return nil, ErrBadOperands
		}
		t, err := wantTensor(args[0])
		if err != nil {
			return nil, err
		}
		steps := strings.Split(op.Attr("chain"), "|")
		fns := make([]func(float64) float64, len(steps))
		for i, s := range steps {
			fns[i], err = unaryFn(s)
			if err != nil {
				return nil, err
			}
		}
		out := &Tensor{Shape: append([]int(nil), t.Shape...), Data: make([]float64, len(t.Data))}
		for i, v := range t.Data {
			for _, f := range fns {
				v = f(v)
			}
			out.Data[i] = v
		}
		return TensorDatum(out), nil
	})
}

// compareFn builds a row predicate from filter attrs.
func compareFn(op *Op, batch *arrowlite.Batch) (func(row int) bool, error) {
	colName, cmp := op.Attr("col"), op.Attr("cmp")
	colIdx := batch.Schema.Index(colName)
	if colIdx < 0 {
		return nil, fmt.Errorf("%w: no column %q", ErrBadOperands, colName)
	}
	col := batch.Col(colIdx)
	if col.Type == arrowlite.Bytes {
		want := []byte(op.Attr("value"))
		switch cmp {
		case "eq":
			return func(r int) bool { return bytes.Equal(col.BytesAt(r), want) }, nil
		case "ne":
			return func(r int) bool { return !bytes.Equal(col.BytesAt(r), want) }, nil
		default:
			return nil, fmt.Errorf("%w: cmp %q on bytes column", ErrBadOperands, cmp)
		}
	}
	// An int64 column against an integer literal compares as int64: through
	// float64 it would lose every integer above 2^53.
	if want, err := strconv.ParseInt(op.Attr("value"), 10, 64); err == nil && col.Type == arrowlite.Int64 {
		return orderedCmp(cmp, func(r int) int64 { return col.Ints[r] }, want)
	}
	want, err := strconv.ParseFloat(op.Attr("value"), 64)
	if err != nil {
		return nil, fmt.Errorf("%w: bad filter value %q", ErrBadOperands, op.Attr("value"))
	}
	return orderedCmp(cmp, func(r int) float64 { return batch.Float64At(colIdx, r) }, want)
}

// orderedCmp builds the row predicate "at(r) cmp want".
func orderedCmp[T int64 | float64](cmp string, at func(int) T, want T) (func(row int) bool, error) {
	switch cmp {
	case "lt":
		return func(r int) bool { return at(r) < want }, nil
	case "le":
		return func(r int) bool { return at(r) <= want }, nil
	case "gt":
		return func(r int) bool { return at(r) > want }, nil
	case "ge":
		return func(r int) bool { return at(r) >= want }, nil
	case "eq":
		return func(r int) bool { return at(r) == want }, nil
	case "ne":
		return func(r int) bool { return at(r) != want }, nil
	default:
		return nil, fmt.Errorf("%w: unknown cmp %q", ErrBadOperands, cmp)
	}
}

func registerRelKernels() {
	RegisterKernel("rel.filter", func(op *Op, args []*Datum) (*Datum, error) {
		if len(args) != 1 {
			return nil, ErrBadOperands
		}
		batch, err := wantTable(args[0])
		if err != nil {
			return nil, err
		}
		pred, err := compareFn(op, batch)
		if err != nil {
			return nil, err
		}
		var rows []int
		for r := 0; r < batch.NumRows(); r++ {
			if pred(r) {
				rows = append(rows, r)
			}
		}
		return TableDatum(batch.Select(rows)), nil
	})

	RegisterKernel("rel.project", func(op *Op, args []*Datum) (*Datum, error) {
		if len(args) != 1 {
			return nil, ErrBadOperands
		}
		batch, err := wantTable(args[0])
		if err != nil {
			return nil, err
		}
		cols := strings.Split(op.Attr("cols"), ",")
		out, err := batch.Project(cols...)
		if err != nil {
			return nil, err
		}
		return TableDatum(out), nil
	})

	RegisterKernel("rel.limit", func(op *Op, args []*Datum) (*Datum, error) {
		if len(args) != 1 {
			return nil, ErrBadOperands
		}
		batch, err := wantTable(args[0])
		if err != nil {
			return nil, err
		}
		n, err := strconv.Atoi(op.Attr("n"))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("%w: bad limit %q", ErrBadOperands, op.Attr("n"))
		}
		if n > batch.NumRows() {
			n = batch.NumRows()
		}
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		return TableDatum(batch.Select(rows)), nil
	})

	RegisterKernel("rel.orderby", func(op *Op, args []*Datum) (*Datum, error) {
		if len(args) != 1 {
			return nil, ErrBadOperands
		}
		batch, err := wantTable(args[0])
		if err != nil {
			return nil, err
		}
		colIdx := batch.Schema.Index(op.Attr("col"))
		if colIdx < 0 {
			return nil, fmt.Errorf("%w: no column %q", ErrBadOperands, op.Attr("col"))
		}
		desc := op.Attr("desc") == "true"
		rows := make([]int, batch.NumRows())
		for i := range rows {
			rows[i] = i
		}
		col := batch.Col(colIdx)
		var less func(a, b int) bool
		switch col.Type {
		case arrowlite.Int64:
			less = func(a, b int) bool { return col.Ints[a] < col.Ints[b] }
		case arrowlite.Float64:
			less = func(a, b int) bool { return col.Floats[a] < col.Floats[b] }
		default:
			less = func(a, b int) bool { return bytes.Compare(col.BytesAt(a), col.BytesAt(b)) < 0 }
		}
		sort.SliceStable(rows, func(i, j int) bool {
			if desc {
				return less(rows[j], rows[i])
			}
			return less(rows[i], rows[j])
		})
		return TableDatum(batch.Select(rows)), nil
	})

	RegisterKernel("rel.join", func(op *Op, args []*Datum) (*Datum, error) {
		if len(args) != 2 {
			return nil, ErrBadOperands
		}
		left, err := wantTable(args[0])
		if err != nil {
			return nil, err
		}
		right, err := wantTable(args[1])
		if err != nil {
			return nil, err
		}
		return joinBatches(left, right, op.Attr("leftkey"), op.Attr("rightkey"))
	})

	RegisterKernel("rel.agg", func(op *Op, args []*Datum) (*Datum, error) {
		if len(args) != 1 {
			return nil, ErrBadOperands
		}
		batch, err := wantTable(args[0])
		if err != nil {
			return nil, err
		}
		return aggBatch(batch, op.Attr("group"), op.Attr("aggs"), op.Attr("phase"))
	})

	RegisterKernel("rel.distinct", func(_ *Op, args []*Datum) (*Datum, error) {
		if len(args) != 1 {
			return nil, ErrBadOperands
		}
		batch, err := wantTable(args[0])
		if err != nil {
			return nil, err
		}
		seen := make(map[string]bool, batch.NumRows())
		var rows []int
		var keyBuf []byte
		for r := 0; r < batch.NumRows(); r++ {
			keyBuf = keyBuf[:0]
			for c := 0; c < batch.NumCols(); c++ {
				col := batch.Col(c)
				switch col.Type {
				case arrowlite.Int64:
					keyBuf = strconv.AppendInt(keyBuf, col.Ints[r], 10)
				case arrowlite.Float64:
					keyBuf = strconv.AppendFloat(keyBuf, col.Floats[r], 'g', -1, 64)
				default:
					keyBuf = strconv.AppendQuote(keyBuf, string(col.BytesAt(r)))
				}
				keyBuf = append(keyBuf, 0x1f)
			}
			if !seen[string(keyBuf)] {
				seen[string(keyBuf)] = true
				rows = append(rows, r)
			}
		}
		return TableDatum(batch.Select(rows)), nil
	})

	RegisterKernel("rel.concat", func(_ *Op, args []*Datum) (*Datum, error) {
		batches := make([]*arrowlite.Batch, len(args))
		for i, a := range args {
			b, err := wantTable(a)
			if err != nil {
				return nil, err
			}
			batches[i] = b
		}
		out, err := arrowlite.Concat(batches...)
		if err != nil {
			return nil, err
		}
		return TableDatum(out), nil
	})
}

// joinBatches is an inner hash join on int64 key columns. The output
// schema is left's columns followed by right's non-key columns; rows come in
// left order, and a left row's matches in right order. The probe only
// collects matched row indices; the output is gathered column by column.
func joinBatches(left, right *arrowlite.Batch, leftKey, rightKey string) (*Datum, error) {
	li := left.Schema.Index(leftKey)
	ri := right.Schema.Index(rightKey)
	if li < 0 || ri < 0 {
		return nil, fmt.Errorf("%w: join keys %q/%q", ErrBadOperands, leftKey, rightKey)
	}
	if left.Col(li).Type != arrowlite.Int64 || right.Col(ri).Type != arrowlite.Int64 {
		return nil, fmt.Errorf("%w: join keys must be int64", ErrBadOperands)
	}
	// Build side: right, as chains through next. head[k] and next[r] hold
	// a right row plus one, 0 ending the chain; building backwards makes
	// each chain ascend.
	rkeys := right.Col(ri).Ints
	head := make(map[int64]int32, len(rkeys))
	next := make([]int32, len(rkeys))
	for r := len(rkeys) - 1; r >= 0; r-- {
		next[r] = head[rkeys[r]]
		head[rkeys[r]] = int32(r + 1)
	}
	lrows := make([]int, 0, left.NumRows())
	rrows := make([]int, 0, left.NumRows())
	for lr, k := range left.Col(li).Ints {
		for m := head[k]; m != 0; m = next[m-1] {
			lrows = append(lrows, lr)
			rrows = append(rrows, int(m-1))
		}
	}
	var rightNames []string
	for c, f := range right.Schema.Fields {
		if c != ri {
			rightNames = append(rightNames, f.Name)
		}
	}
	rightVals, err := right.Project(rightNames...)
	if err != nil {
		return nil, err
	}
	l, r := left.Select(lrows), rightVals.Select(rrows)
	fields := append(append([]arrowlite.Field(nil), left.Schema.Fields...), rightVals.Schema.Fields...)
	out, err := arrowlite.NewBatch(arrowlite.NewSchema(fields...), append(l.Cols, r.Cols...))
	if err != nil {
		return nil, err
	}
	return TableDatum(out), nil
}

// aggSpec is one entry of a rel.agg "aggs" list: fn is sum, count, avg,
// min or max; col is a column name, or "*".
type aggSpec struct{ fn, col string }

// name is the spec's output column: fn_col, or fn alone for "*".
func (s aggSpec) name() string {
	if s.col == "*" {
		return s.fn
	}
	return s.fn + "_" + s.col
}

// rowsCol names a partial aggregate's per-group row count. It is not an
// identifier the SQL lexer accepts, so it cannot collide with a column.
const rowsCol = "#rows"

// aggBatch groups by an optional column and computes the comma-separated
// aggregate list, e.g. "sum:amount,count:*,avg:price,min:price,max:price".
//
// phase splits the aggregate in two. "partial" aggregates raw rows into one
// row per group: the group column, then per spec its count (int64), its sum
// (sum and avg) or its min or max, then rowsCol. "merge" takes concatenated
// partials and produces what one phase ("") produces over the raw rows:
// counts and sums add, min and max combine, avg divides the summed sum by
// the summed count, and a partial row whose count is 0 (an empty shard's
// global aggregate) is skipped. Either way groups come out sorted by their
// key text, and a global aggregate over no rows is one row.
func aggBatch(batch *arrowlite.Batch, group, aggs, phase string) (*Datum, error) {
	merge := phase == "merge"
	if phase != "" && phase != "partial" && !merge {
		return nil, fmt.Errorf("%w: agg phase %q", ErrBadOperands, phase)
	}
	var specs []aggSpec
	for _, part := range strings.Split(aggs, ",") {
		fn, col, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("%w: bad agg %q", ErrBadOperands, part)
		}
		switch fn {
		case "sum", "count", "avg", "min", "max":
		default:
			return nil, fmt.Errorf("%w: unknown agg fn %q", ErrBadOperands, fn)
		}
		specs = append(specs, aggSpec{fn, col})
	}
	groupIdx := -1
	if group != "" {
		groupIdx = batch.Schema.Index(group)
		if groupIdx < 0 {
			return nil, fmt.Errorf("%w: no group column %q", ErrBadOperands, group)
		}
	}
	// colIdx[i] is the input column spec i reads, -1 for none; counts
	// holds each input row's count in a merge.
	colIdx := make([]int, len(specs))
	var counts []int64
	if merge {
		off := 0
		if groupIdx >= 0 {
			off = 1
		}
		if batch.NumCols() != off+len(specs)+1 || batch.Schema.Fields[batch.NumCols()-1].Name != rowsCol {
			return nil, fmt.Errorf("%w: merge input is not a partial aggregate", ErrBadOperands)
		}
		for i := range specs {
			colIdx[i] = off + i
		}
		counts = batch.Col(batch.NumCols() - 1).Ints
	} else {
		for i, s := range specs {
			colIdx[i] = -1
			if s.col == "*" {
				continue
			}
			if colIdx[i] = batch.Schema.Index(s.col); colIdx[i] < 0 {
				return nil, fmt.Errorf("%w: no column %q", ErrBadOperands, s.col)
			}
		}
	}
	for i, s := range specs {
		if s.fn != "count" && colIdx[i] >= 0 && batch.Col(colIdx[i]).Type == arrowlite.Bytes {
			return nil, fmt.Errorf("%w: %s of bytes column %q", ErrBadOperands, s.fn, s.col)
		}
	}

	// Pass 1 numbers the groups: gids[r] is row r's group (-1 for a
	// skipped partial); per group, n is its row count, first the first
	// row holding its key and keys the key's text.
	var (
		n     []int64
		first []int
		keys  []string
	)
	gids := make([]int32, batch.NumRows())
	find := newGrouper(batch, groupIdx)
	for r := range gids {
		rows := int64(1)
		if merge {
			if rows = counts[r]; rows == 0 {
				gids[r] = -1
				continue
			}
		}
		g, key, isNew := find(r)
		if isNew {
			n = append(n, 0)
			first = append(first, r)
			keys = append(keys, key)
		}
		gids[r] = int32(g)
		n[g] += rows
	}
	// Pass 2 runs one tight loop per aggregate column: acc[i][g] is spec
	// i's sum, min or max for group g, min and max starting from the
	// group's first row.
	acc := make([][]float64, len(specs))
	for i, s := range specs {
		if s.fn == "count" {
			continue
		}
		acc[i] = make([]float64, len(n))
		if s.fn == "min" || s.fn == "max" {
			for g, r := range first {
				acc[i][g] = batch.Float64At(colIdx[i], r)
			}
		}
		if col := batch.Col(colIdx[i]); col.Type == arrowlite.Int64 {
			accumulate(acc[i], gids, col.Ints, s.fn)
		} else {
			accumulate(acc[i], gids, col.Floats, s.fn)
		}
	}
	if groupIdx < 0 && len(n) == 0 {
		n, keys = []int64{0}, []string{""}
		for i := range acc {
			acc[i] = []float64{0}
		}
	}

	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })

	var fields []arrowlite.Field
	var cols []arrowlite.Column
	if groupIdx >= 0 {
		rows := make([]int, len(order))
		for i, g := range order {
			rows[i] = first[g]
		}
		key, err := batch.Project(batch.Schema.Fields[groupIdx].Name)
		if err != nil {
			return nil, err
		}
		fields = append(fields, key.Schema.Fields[0])
		cols = append(cols, key.Select(rows).Cols[0])
	}
	countCol := func() arrowlite.Column {
		c := arrowlite.Column{Type: arrowlite.Int64, Ints: make([]int64, len(order))}
		for i, g := range order {
			c.Ints[i] = n[g]
		}
		return c
	}
	for i, s := range specs {
		if s.fn == "count" {
			fields = append(fields, arrowlite.Field{Name: s.name(), Type: arrowlite.Int64})
			cols = append(cols, countCol())
			continue
		}
		c := arrowlite.Column{Type: arrowlite.Float64, Floats: make([]float64, len(order))}
		for j, g := range order {
			c.Floats[j] = acc[i][g]
			if s.fn == "avg" && phase != "partial" {
				c.Floats[j] /= float64(n[g])
			}
		}
		fields = append(fields, arrowlite.Field{Name: s.name(), Type: arrowlite.Float64})
		cols = append(cols, c)
	}
	if phase == "partial" {
		fields = append(fields, arrowlite.Field{Name: rowsCol, Type: arrowlite.Int64})
		cols = append(cols, countCol())
	}
	out, err := arrowlite.NewBatch(arrowlite.NewSchema(fields...), cols)
	if err != nil {
		return nil, err
	}
	return TableDatum(out), nil
}

// accumulate folds vals into acc by group: min, max, or else a sum. A row
// whose group is negative is skipped.
func accumulate[T int64 | float64](acc []float64, gids []int32, vals []T, fn string) {
	switch fn {
	case "min":
		for r, g := range gids {
			if v := float64(vals[r]); g >= 0 && v < acc[g] {
				acc[g] = v
			}
		}
	case "max":
		for r, g := range gids {
			if v := float64(vals[r]); g >= 0 && v > acc[g] {
				acc[g] = v
			}
		}
	default:
		for r, g := range gids {
			if g >= 0 {
				acc[g] += float64(vals[r])
			}
		}
	}
}

// newGrouper returns a function that maps row r of batch to its group,
// numbering groups 0, 1, ... in order of first appearance; groupIdx < 0
// puts every row in group 0. It allocates only for a new group, whose key
// text (the group column's value as strconv formats it, "" for a global
// aggregate) it also returns.
func newGrouper(batch *arrowlite.Batch, groupIdx int) func(r int) (g int, key string, isNew bool) {
	if groupIdx < 0 {
		seen := false
		return func(int) (int, string, bool) {
			isNew := !seen
			seen = true
			return 0, "", isNew
		}
	}
	col := batch.Col(groupIdx)
	switch col.Type {
	case arrowlite.Int64:
		ids := make(map[int64]int)
		return func(r int) (int, string, bool) {
			v := col.Ints[r]
			if g, ok := ids[v]; ok {
				return g, "", false
			}
			ids[v] = len(ids)
			return len(ids) - 1, strconv.FormatInt(v, 10), true
		}
	case arrowlite.Float64:
		// Keyed by bits, with every NaN one key, so the groups are those
		// of the key text: -0 and 0 differ, all NaNs agree.
		ids := make(map[uint64]int)
		return func(r int) (int, string, bool) {
			v := col.Floats[r]
			bits := math.Float64bits(v)
			if v != v {
				bits = math.Float64bits(math.NaN())
			}
			if g, ok := ids[bits]; ok {
				return g, "", false
			}
			ids[bits] = len(ids)
			return len(ids) - 1, strconv.FormatFloat(v, 'g', -1, 64), true
		}
	default:
		ids := make(map[string]int)
		return func(r int) (int, string, bool) {
			b := col.BytesAt(r)
			if g, ok := ids[string(b)]; ok {
				return g, "", false
			}
			key := string(b)
			ids[key] = len(ids)
			return len(ids) - 1, key, true
		}
	}
}
