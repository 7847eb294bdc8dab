package arrowlite

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func sampleSchema() *Schema {
	return NewSchema(
		Field{Name: "id", Type: Int64},
		Field{Name: "score", Type: Float64},
		Field{Name: "name", Type: Bytes},
	)
}

func sampleBatch(t *testing.T, n int) *Batch {
	t.Helper()
	b := NewBuilder(sampleSchema())
	for i := 0; i < n; i++ {
		if err := b.Append(int64(i), float64(i)*1.5, fmt.Sprintf("row-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestBuilderAndAccessors(t *testing.T) {
	batch := sampleBatch(t, 10)
	if batch.NumRows() != 10 || batch.NumCols() != 3 {
		t.Fatalf("batch = %dx%d", batch.NumRows(), batch.NumCols())
	}
	if batch.Col(0).Ints[3] != 3 {
		t.Errorf("id[3] = %d", batch.Col(0).Ints[3])
	}
	if batch.Col(1).Floats[4] != 6.0 {
		t.Errorf("score[4] = %v", batch.Col(1).Floats[4])
	}
	if string(batch.Col(2).BytesAt(7)) != "row-7" {
		t.Errorf("name[7] = %q", batch.Col(2).BytesAt(7))
	}
	if batch.ColByName("score") != batch.Col(1) {
		t.Error("ColByName mismatch")
	}
	if batch.ColByName("nope") != nil {
		t.Error("ColByName of missing column should be nil")
	}
}

func TestBuilderIntAccepted(t *testing.T) {
	b := NewBuilder(NewSchema(Field{Name: "x", Type: Int64}))
	if err := b.Append(42); err != nil { // plain int, not int64
		t.Fatal(err)
	}
	if b.Build().Col(0).Ints[0] != 42 {
		t.Error("int not converted")
	}
}

func TestBuilderTypeErrors(t *testing.T) {
	b := NewBuilder(sampleSchema())
	if err := b.Append(int64(1), "not a float", "x"); err == nil {
		t.Error("wrong type should fail")
	}
	if err := b.Append(int64(1)); err == nil {
		t.Error("wrong arity should fail")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	batch := sampleBatch(t, 100)
	data := Encode(batch)
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 100 || !got.Schema.Equal(batch.Schema) {
		t.Fatalf("decoded %d rows", got.NumRows())
	}
	for i := 0; i < 100; i++ {
		if got.Col(0).Ints[i] != batch.Col(0).Ints[i] {
			t.Fatalf("id[%d] mismatch", i)
		}
		if got.Col(1).Floats[i] != batch.Col(1).Floats[i] {
			t.Fatalf("score[%d] mismatch", i)
		}
		if !bytes.Equal(got.Col(2).BytesAt(i), batch.Col(2).BytesAt(i)) {
			t.Fatalf("name[%d] mismatch", i)
		}
	}
}

func TestDecodeIsZeroCopy(t *testing.T) {
	batch := sampleBatch(t, 8)
	data := Encode(batch)
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the wire buffer must be visible through the decoded column:
	// proof that no copy happened.
	before := got.Col(0).Ints[0]
	// Find the byte offset of ints[0] by scanning for its little-endian
	// encoding region: instead, mutate via the decoded slice and observe
	// the raw buffer change.
	got.Col(0).Ints[0] = before + 1000
	got2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Col(0).Ints[0] != before+1000 {
		t.Error("decode copied the buffer; expected aliasing (zero-copy)")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": {1, 2, 3, 4, 5, 6, 7, 8},
		"truncated": Encode(sampleBatch(t, 50))[:40],
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: Decode should fail", name)
		}
	}
}

func TestEmptyBatchRoundTrip(t *testing.T) {
	b := NewBuilder(sampleSchema())
	batch := b.Build()
	got, err := Decode(Encode(batch))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 {
		t.Errorf("rows = %d", got.NumRows())
	}
}

func TestRoundTripProperty(t *testing.T) {
	schema := NewSchema(Field{Name: "a", Type: Int64}, Field{Name: "b", Type: Bytes})
	f := func(ints []int64, blobs [][]byte) bool {
		n := len(ints)
		if len(blobs) < n {
			n = len(blobs)
		}
		b := NewBuilder(schema)
		for i := 0; i < n; i++ {
			if err := b.Append(ints[i], blobs[i]); err != nil {
				return false
			}
		}
		got, err := Decode(Encode(b.Build()))
		if err != nil || got.NumRows() != n {
			return false
		}
		for i := 0; i < n; i++ {
			if got.Col(0).Ints[i] != ints[i] || !bytes.Equal(got.Col(1).BytesAt(i), blobs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSelect(t *testing.T) {
	batch := sampleBatch(t, 10)
	sel := batch.Select([]int{9, 0, 5})
	if sel.NumRows() != 3 {
		t.Fatalf("rows = %d", sel.NumRows())
	}
	if sel.Col(0).Ints[0] != 9 || sel.Col(0).Ints[1] != 0 || sel.Col(0).Ints[2] != 5 {
		t.Errorf("ids = %v", sel.Col(0).Ints)
	}
	if string(sel.Col(2).BytesAt(0)) != "row-9" {
		t.Errorf("name = %q", sel.Col(2).BytesAt(0))
	}
}

func TestNewBatch(t *testing.T) {
	batch := sampleBatch(t, 4)
	got, err := NewBatch(batch.Schema, batch.Cols)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 4 || !bytes.Equal(Encode(got), Encode(batch)) {
		t.Errorf("NewBatch over a batch's own columns differs from it")
	}
	short := batch.Select([]int{0, 1})
	bad := map[string][]Column{
		"too few columns": batch.Cols[:2],
		"wrong type":      {batch.Cols[1], batch.Cols[1], batch.Cols[2]},
		"ragged":          {batch.Cols[0], short.Cols[1], batch.Cols[2]},
	}
	for name, cols := range bad {
		if _, err := NewBatch(batch.Schema, cols); !errors.Is(err, ErrSchemaMismatch) {
			t.Errorf("%s: err = %v, want ErrSchemaMismatch", name, err)
		}
	}
}

func TestProject(t *testing.T) {
	batch := sampleBatch(t, 5)
	p, err := batch.Project("name", "id")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCols() != 2 || p.Schema.Fields[0].Name != "name" {
		t.Errorf("projected schema = %+v", p.Schema)
	}
	if p.NumRows() != 5 {
		t.Errorf("rows = %d", p.NumRows())
	}
	if _, err := batch.Project("missing"); err == nil {
		t.Error("Project of missing column should fail")
	}
}

func TestConcat(t *testing.T) {
	a := sampleBatch(t, 3)
	b := sampleBatch(t, 4)
	out, err := Concat(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 7 {
		t.Fatalf("rows = %d", out.NumRows())
	}
	if string(out.Col(2).BytesAt(5)) != "row-2" { // b's row 2
		t.Errorf("name[5] = %q", out.Col(2).BytesAt(5))
	}
	other := NewBuilder(NewSchema(Field{Name: "z", Type: Int64})).Build()
	if _, err := Concat(a, other); err == nil {
		t.Error("Concat of differing schemas should fail")
	}
}

func TestFloat64At(t *testing.T) {
	batch := sampleBatch(t, 3)
	if got := batch.Float64At(0, 2); got != 2.0 {
		t.Errorf("int as float = %v", got)
	}
	if got := batch.Float64At(1, 2); got != 3.0 {
		t.Errorf("float = %v", got)
	}
	if got := batch.Float64At(2, 0); got == got { // NaN check
		t.Errorf("bytes column should yield NaN, got %v", got)
	}
}

func TestSizeBytes(t *testing.T) {
	batch := sampleBatch(t, 100)
	if batch.SizeBytes() < 100*16 {
		t.Errorf("SizeBytes = %d, implausibly small", batch.SizeBytes())
	}
}

func TestDTypeString(t *testing.T) {
	for d, want := range map[DType]string{Int64: "int64", Float64: "float64", Bytes: "bytes"} {
		if d.String() != want {
			t.Errorf("String = %q", d.String())
		}
	}
}

func BenchmarkEncode100kRows(b *testing.B) {
	builder := NewBuilder(NewSchema(Field{Name: "a", Type: Int64}, Field{Name: "b", Type: Float64}))
	for i := 0; i < 100_000; i++ {
		_ = builder.Append(int64(i), float64(i))
	}
	batch := builder.Build()
	b.SetBytes(batch.SizeBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Encode(batch)
	}
}

func BenchmarkDecode100kRows(b *testing.B) {
	builder := NewBuilder(NewSchema(Field{Name: "a", Type: Int64}, Field{Name: "b", Type: Float64}))
	for i := 0; i < 100_000; i++ {
		_ = builder.Append(int64(i), float64(i))
	}
	data := Encode(builder.Build())
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
