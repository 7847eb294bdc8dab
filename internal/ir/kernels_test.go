package ir

import (
	"bytes"
	"strings"
	"testing"

	"skadi/internal/arrowlite"
)

// facts50k is a 50 000-row fact table shaped like the sql_analytics one:
// a 4-value bytes key, a 12-value int key and a whole-number amount.
func facts50k() *arrowlite.Batch {
	b := arrowlite.NewBuilder(arrowlite.NewSchema(
		arrowlite.Field{Name: "region", Type: arrowlite.Bytes},
		arrowlite.Field{Name: "item", Type: arrowlite.Int64},
		arrowlite.Field{Name: "amount", Type: arrowlite.Float64},
	))
	regions := []string{"east", "west", "north", "south"}
	for i := 0; i < 50_000; i++ {
		_ = b.Append(regions[i*7%4], int64(i*5%12), float64(i%100))
	}
	return b.Build()
}

// items12 is the 12-row dimension table facts50k joins against.
func items12() *arrowlite.Batch {
	b := arrowlite.NewBuilder(arrowlite.NewSchema(
		arrowlite.Field{Name: "id", Type: arrowlite.Int64},
		arrowlite.Field{Name: "category", Type: arrowlite.Bytes},
	))
	cats := []string{"tools", "toys", "food"}
	for i := 0; i < 12; i++ {
		_ = b.Append(int64(i), cats[i%3])
	}
	return b.Build()
}

// relKernelCases are the kernel calls the allocation guard and the
// benchmarks measure.
func relKernelCases() []struct {
	name string
	op   *Op
	args []*Datum
} {
	facts, items := TableDatum(facts50k()), TableDatum(items12())
	agg := func(group string) *Op {
		return &Op{Dialect: "rel", Name: "agg", Attrs: map[string]string{
			"group": group, "aggs": "sum:amount,count:*,min:amount,max:amount,avg:amount",
		}}
	}
	return []struct {
		name string
		op   *Op
		args []*Datum
	}{
		{"agg-bytes-key", agg("region"), []*Datum{facts}},
		{"agg-int-key", agg("item"), []*Datum{facts}},
		{"join-12", &Op{Dialect: "rel", Name: "join", Attrs: map[string]string{
			"leftkey": "item", "rightkey": "id",
		}}, []*Datum{facts, items}},
	}
}

// TestRelKernelsDoNotAllocatePerRow bounds rel.agg and rel.join over 50 000
// rows at 100 allocations a call: their allocations grow with the number of
// groups and output columns, not with the number of rows.
func TestRelKernelsDoNotAllocatePerRow(t *testing.T) {
	for _, c := range relKernelCases() {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ExecOp(c.op, c.args); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := ExecOp(c.op, c.args); err != nil {
					t.Fatal(err)
				}
			})
			if allocs >= 100 {
				t.Errorf("%s: %.0f allocations per call over 50 000 rows, want < 100", c.name, allocs)
			}
		})
	}
}

func benchRelKernel(b *testing.B, prefix string) {
	for _, c := range relKernelCases() {
		if !strings.HasPrefix(c.name, prefix) {
			continue
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ExecOp(c.op, c.args); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRelAgg50k(b *testing.B)  { benchRelKernel(b, "agg") }
func BenchmarkRelJoin50k(b *testing.B) { benchRelKernel(b, "join") }

// TestRelInt64ComparesExactly filters and sorts int64 values that float64
// cannot tell apart: 2^53 and 2^53+1.
func TestRelInt64ComparesExactly(t *testing.T) {
	const big = int64(1) << 53
	b := arrowlite.NewBuilder(arrowlite.NewSchema(arrowlite.Field{Name: "k", Type: arrowlite.Int64}))
	_ = b.Append(big + 1)
	_ = b.Append(big)
	batch := TableDatum(b.Build())

	for _, c := range []struct {
		cmp  string
		want int
	}{{"gt", 1}, {"ge", 2}, {"lt", 0}, {"le", 1}, {"eq", 1}, {"ne", 1}} {
		out, err := ExecOp(&Op{Dialect: "rel", Name: "filter", Attrs: map[string]string{
			"col": "k", "cmp": c.cmp, "value": "9007199254740992",
		}}, []*Datum{batch})
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Table.NumRows(); got != c.want {
			t.Errorf("k %s 2^53 keeps %d rows, want %d", c.cmp, got, c.want)
		}
	}

	out, err := ExecOp(&Op{Dialect: "rel", Name: "orderby", Attrs: map[string]string{"col": "k"}}, []*Datum{batch})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Table.Col(0).Ints; got[0] != big || got[1] != big+1 {
		t.Errorf("ascending ORDER BY k = %v, want [2^53 2^53+1]", got)
	}
}

// TestRelAggTwoPhaseMatchesOnePhase merges the partial aggregates of
// uneven pieces of a table, one of them empty, and expects what one phase
// over the whole table gives, to the byte: every sum is of whole numbers,
// so the order of additions cannot show.
func TestRelAggTwoPhaseMatchesOnePhase(t *testing.T) {
	facts := facts50k()
	pieces := []*arrowlite.Batch{
		facts.Select(nil),
		facts.Select(rowRange(0, 7)),
		facts.Select(rowRange(7, 31_000)),
		facts.Select(rowRange(31_000, 50_000)),
	}
	for _, group := range []string{"", "region", "item", "amount"} {
		attrs := func(phase string) map[string]string {
			return map[string]string{
				"group": group, "aggs": "sum:amount,count:*,avg:item,min:amount,max:item",
				"phase": phase,
			}
		}
		whole, err := ExecOp(&Op{Dialect: "rel", Name: "agg", Attrs: attrs("")}, []*Datum{TableDatum(facts)})
		if err != nil {
			t.Fatal(err)
		}
		var partials []*arrowlite.Batch
		for _, p := range pieces {
			d, err := ExecOp(&Op{Dialect: "rel", Name: "agg", Attrs: attrs("partial")}, []*Datum{TableDatum(p)})
			if err != nil {
				t.Fatal(err)
			}
			partials = append(partials, d.Table)
		}
		all, err := arrowlite.Concat(partials...)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := ExecOp(&Op{Dialect: "rel", Name: "agg", Attrs: attrs("merge")}, []*Datum{TableDatum(all)})
		if err != nil {
			t.Fatal(err)
		}
		w, m := whole.Table, merged.Table
		if !w.Schema.Equal(m.Schema) || w.NumRows() != m.NumRows() {
			t.Fatalf("group %q: merged %v x %d, one phase %v x %d", group, m.Schema, m.NumRows(), w.Schema, w.NumRows())
		}
		if !bytes.Equal(arrowlite.Encode(w), arrowlite.Encode(m)) {
			t.Errorf("group %q: merged partials differ from one phase", group)
		}
	}
}

// TestRelAggMergeSkipsEmptyPartials merges an empty shard's global partial
// (a row of zeros with count 0) with a real one: MIN and MAX must not see
// the zeros.
func TestRelAggMergeSkipsEmptyPartials(t *testing.T) {
	b := arrowlite.NewBuilder(arrowlite.NewSchema(arrowlite.Field{Name: "x", Type: arrowlite.Float64}))
	for _, x := range []float64{5, 7, 9} {
		_ = b.Append(x)
	}
	full := b.Build()
	attrs := func(phase string) map[string]string {
		return map[string]string{"aggs": "min:x,max:x,count:*,avg:x", "phase": phase}
	}
	var partials []*arrowlite.Batch
	for _, in := range []*arrowlite.Batch{full.Select(nil), full, full.Select(nil)} {
		d, err := ExecOp(&Op{Dialect: "rel", Name: "agg", Attrs: attrs("partial")}, []*Datum{TableDatum(in)})
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, d.Table)
	}
	all, err := arrowlite.Concat(partials...)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ExecOp(&Op{Dialect: "rel", Name: "agg", Attrs: attrs("merge")}, []*Datum{TableDatum(all)})
	if err != nil {
		t.Fatal(err)
	}
	got := out.Table
	if got.NumRows() != 1 || got.ColByName("min_x").Floats[0] != 5 || got.ColByName("max_x").Floats[0] != 9 ||
		got.ColByName("count").Ints[0] != 3 || got.ColByName("avg_x").Floats[0] != 7 {
		t.Errorf("merged = min %v max %v count %v avg %v, want 5 9 3 7",
			got.ColByName("min_x").Floats, got.ColByName("max_x").Floats,
			got.ColByName("count").Ints, got.ColByName("avg_x").Floats)
	}
}

func rowRange(lo, hi int) []int {
	rows := make([]int, 0, hi-lo)
	for r := lo; r < hi; r++ {
		rows = append(rows, r)
	}
	return rows
}
