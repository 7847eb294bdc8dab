// Package arrowlite implements a columnar record-batch format in the
// spirit of Apache Arrow — the "shared format" the paper names as the
// bedrock of the data plane (§1, data-plane benefit 2). The in-memory
// layout IS the wire layout: fixed-width columns encode as raw
// little-endian buffers and decode by aliasing the incoming bytes
// (zero-copy), so functions on heterogeneous devices exchange data without
// per-row marshalling. Experiment E7 compares this against the row-at-a-
// time codec in package rowcodec.
package arrowlite

import (
	"errors"
	"fmt"
	"math"
	"unsafe"

	"skadi/internal/wire"
)

// maxRows bounds the decoded row count so hostile headers cannot overflow
// the nRows*8 / (nRows+1)*4 buffer-length arithmetic below.
const maxRows = 1 << 40

// DType is a column element type.
type DType int

// Column element types.
const (
	// Int64 is a 64-bit signed integer column.
	Int64 DType = iota
	// Float64 is a 64-bit float column.
	Float64
	// Bytes is a variable-length binary/string column.
	Bytes
)

// String returns the type name.
func (d DType) String() string {
	switch d {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case Bytes:
		return "bytes"
	default:
		return fmt.Sprintf("dtype(%d)", int(d))
	}
}

// Field is one column's name and type.
type Field struct {
	Name string
	Type DType
}

// Schema is an ordered field list.
type Schema struct {
	Fields []Field
}

// NewSchema returns a schema over the given fields.
func NewSchema(fields ...Field) *Schema { return &Schema{Fields: fields} }

// Index returns the position of the named field, or -1.
func (s *Schema) Index(name string) int {
	for i, f := range s.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Equal reports schema equality.
func (s *Schema) Equal(o *Schema) bool {
	if len(s.Fields) != len(o.Fields) {
		return false
	}
	for i := range s.Fields {
		if s.Fields[i] != o.Fields[i] {
			return false
		}
	}
	return true
}

// Column holds one column's values. Exactly one of the value slices is
// populated, per the field type. For Bytes columns, value i is
// Blob[Offsets[i]:Offsets[i+1]].
type Column struct {
	Type    DType
	Ints    []int64
	Floats  []float64
	Offsets []int32
	Blob    []byte
}

// Len returns the number of values.
func (c *Column) Len() int {
	switch c.Type {
	case Int64:
		return len(c.Ints)
	case Float64:
		return len(c.Floats)
	default:
		if len(c.Offsets) == 0 {
			return 0
		}
		return len(c.Offsets) - 1
	}
}

// BytesAt returns value i of a Bytes column without copying.
func (c *Column) BytesAt(i int) []byte {
	return c.Blob[c.Offsets[i]:c.Offsets[i+1]]
}

// Batch is a set of equal-length columns conforming to a schema.
type Batch struct {
	Schema *Schema
	Cols   []Column
	rows   int
}

// Errors returned by the package.
var (
	// ErrSchemaMismatch reports appended values not matching the schema.
	ErrSchemaMismatch = errors.New("arrowlite: schema mismatch")
	// ErrCorrupt reports an undecodable buffer.
	ErrCorrupt = errors.New("arrowlite: corrupt buffer")
)

// NumRows returns the row count.
func (b *Batch) NumRows() int { return b.rows }

// NumCols returns the column count.
func (b *Batch) NumCols() int { return len(b.Cols) }

// Col returns the column at position i.
func (b *Batch) Col(i int) *Column { return &b.Cols[i] }

// ColByName returns the named column, or nil.
func (b *Batch) ColByName(name string) *Column {
	i := b.Schema.Index(name)
	if i < 0 {
		return nil
	}
	return &b.Cols[i]
}

// Builder accumulates rows into a Batch.
type Builder struct {
	schema *Schema
	cols   []Column
	rows   int
}

// NewBuilder returns a builder for the schema.
func NewBuilder(schema *Schema) *Builder {
	b := &Builder{schema: schema, cols: make([]Column, len(schema.Fields))}
	for i, f := range schema.Fields {
		b.cols[i].Type = f.Type
		if f.Type == Bytes {
			b.cols[i].Offsets = append(b.cols[i].Offsets, 0)
		}
	}
	return b
}

// Append adds one row. Values must match the schema: int64, float64, or
// []byte/string per field type.
func (b *Builder) Append(values ...any) error {
	if len(values) != len(b.schema.Fields) {
		return fmt.Errorf("%w: %d values for %d fields", ErrSchemaMismatch, len(values), len(b.schema.Fields))
	}
	for i, v := range values {
		col := &b.cols[i]
		switch col.Type {
		case Int64:
			n, ok := v.(int64)
			if !ok {
				if m, ok2 := v.(int); ok2 {
					n, ok = int64(m), true
				}
			}
			if !ok {
				return fmt.Errorf("%w: field %d wants int64, got %T", ErrSchemaMismatch, i, v)
			}
			col.Ints = append(col.Ints, n)
		case Float64:
			f, ok := v.(float64)
			if !ok {
				return fmt.Errorf("%w: field %d wants float64, got %T", ErrSchemaMismatch, i, v)
			}
			col.Floats = append(col.Floats, f)
		case Bytes:
			var data []byte
			switch x := v.(type) {
			case []byte:
				data = x
			case string:
				data = []byte(x)
			default:
				return fmt.Errorf("%w: field %d wants bytes, got %T", ErrSchemaMismatch, i, v)
			}
			col.Blob = append(col.Blob, data...)
			col.Offsets = append(col.Offsets, int32(len(col.Blob)))
		}
	}
	b.rows++
	return nil
}

// Build returns the accumulated batch. The builder must not be used after.
func (b *Builder) Build() *Batch {
	return &Batch{Schema: b.schema, Cols: b.cols, rows: b.rows}
}

// NewBatch assembles a batch from columns that already hold its values,
// without copying them: every column must have its field's type and all
// must have the same length.
func NewBatch(schema *Schema, cols []Column) (*Batch, error) {
	if len(cols) != len(schema.Fields) {
		return nil, fmt.Errorf("%w: %d columns for %d fields", ErrSchemaMismatch, len(cols), len(schema.Fields))
	}
	rows := 0
	for i := range cols {
		if cols[i].Type != schema.Fields[i].Type {
			return nil, fmt.Errorf("%w: column %d is %s, field wants %s", ErrSchemaMismatch, i, cols[i].Type, schema.Fields[i].Type)
		}
		if n := cols[i].Len(); i == 0 {
			rows = n
		} else if n != rows {
			return nil, fmt.Errorf("%w: column %d has %d rows, column 0 has %d", ErrSchemaMismatch, i, n, rows)
		}
	}
	return &Batch{Schema: schema, Cols: cols, rows: rows}, nil
}

// Encoding layout:
//
//	magic uint32 | nCols uvarint | nRows uvarint
//	per field: name string | type byte
//	per column: padding to 8 | buffer lengths + raw buffers
const magic = 0x534b4142 // "SKAB"

// Encode serializes the batch. Fixed-width buffers are written as raw
// little-endian memory, 8-byte aligned so Decode can alias them.
func Encode(b *Batch) []byte {
	var glue wire.Buffer
	out := make([]byte, 0, EncodedSize(b))
	for _, seg := range EncodeSegments(&glue, nil, b) {
		out = append(out, seg...)
	}
	return out
}

// EncodedSize returns the exact byte length Encode produces for b.
func EncodedSize(b *Batch) int {
	n := 4 + uvarintLen(uint64(len(b.Cols))) + uvarintLen(uint64(b.rows))
	for _, f := range b.Schema.Fields {
		n += uvarintLen(uint64(len(f.Name))) + len(f.Name) + 1
	}
	for i := range b.Cols {
		col := &b.Cols[i]
		switch col.Type {
		case Int64:
			n = pad8(n) + len(col.Ints)*8
		case Float64:
			n = pad8(n) + len(col.Floats)*8
		case Bytes:
			n = pad8(n) + len(col.Offsets)*4 + uvarintLen(uint64(len(col.Blob))) + len(col.Blob)
		}
	}
	return n
}

// EncodeSegments appends b's encoding to segs as a scatter/gather list and
// returns the extended slice: fixed-width column buffers and blobs appear as
// segments that alias the batch's own memory (zero-copy), while the header,
// alignment padding, and length prefixes are appended to glue and referenced
// by small segments. Writing the segments in order produces exactly
// Encode(b); wire.WriteFrameSegments turns them into one frame without ever
// coalescing the columns into a fresh allocation. glue's storage must
// outlive the segments; the batch must not be modified while they are in
// use.
func EncodeSegments(glue *wire.Buffer, segs [][]byte, b *Batch) [][]byte {
	total := 0
	mark := glue.Len()
	// flush slices the glue bytes appended since the last flush into a
	// segment. Glue growth only appends, so earlier segments stay valid
	// even if the buffer's storage is reallocated meanwhile.
	flush := func() {
		if glue.Len() > mark {
			seg := glue.Bytes()[mark:glue.Len()]
			segs = append(segs, seg)
			total += len(seg)
			mark = glue.Len()
		}
	}
	column := func(raw []byte) {
		flush()
		if len(raw) > 0 {
			segs = append(segs, raw)
			total += len(raw)
		}
	}
	padTo8 := func() {
		for (total+glue.Len()-mark)%8 != 0 {
			glue.Byte(0)
		}
	}

	glue.Uint32(magic)
	glue.Uvarint(uint64(len(b.Cols)))
	glue.Uvarint(uint64(b.rows))
	for _, f := range b.Schema.Fields {
		glue.String(f.Name)
		glue.Byte(byte(f.Type))
	}
	for i := range b.Cols {
		col := &b.Cols[i]
		switch col.Type {
		case Int64:
			padTo8()
			column(int64sToBytes(col.Ints))
		case Float64:
			padTo8()
			column(float64sToBytes(col.Floats))
		case Bytes:
			padTo8()
			column(int32sToBytes(col.Offsets))
			glue.Uvarint(uint64(len(col.Blob)))
			column(col.Blob)
		}
	}
	flush()
	return segs
}

// pad8 rounds n up to the next multiple of 8.
func pad8(n int) int { return (n + 7) &^ 7 }

// uvarintLen returns the encoded size of v as an unsigned varint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Decode deserializes a batch, aliasing data's storage for fixed-width
// columns (zero-copy). The caller must not modify data afterwards. data may
// be a sub-slice at any offset of a larger buffer (a pooled frame, a
// decompressed block): columns whose bytes land on an unaligned address are
// copied instead of aliased, so the result is always safe to use. Corrupt
// or hostile input fails with ErrCorrupt — never a panic — and a
// successfully decoded batch is fully navigable (every BytesAt is in
// bounds).
func Decode(data []byte) (*Batch, error) {
	r := wire.NewReader(data)
	if r.Uint32() != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	nCols := int(r.Uvarint())
	nRows := int(r.Uvarint())
	if r.Err() != nil || nCols < 0 || nRows < 0 || nCols > 1<<16 || nRows > maxRows {
		return nil, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	schema := &Schema{Fields: make([]Field, nCols)}
	for i := range schema.Fields {
		schema.Fields[i].Name = r.String()
		schema.Fields[i].Type = DType(r.Byte())
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: bad schema", ErrCorrupt)
	}
	batch := &Batch{Schema: schema, Cols: make([]Column, nCols), rows: nRows}
	consumed := len(data) - r.Remaining()
	for i := range batch.Cols {
		col := &batch.Cols[i]
		col.Type = schema.Fields[i].Type
		switch col.Type {
		case Int64:
			consumed = align8(r, consumed)
			raw := r.Raw(nRows * 8)
			if r.Err() != nil {
				return nil, fmt.Errorf("%w: int column %d", ErrCorrupt, i)
			}
			col.Ints = bytesToInt64s(raw, nRows)
			consumed += nRows * 8
		case Float64:
			consumed = align8(r, consumed)
			raw := r.Raw(nRows * 8)
			if r.Err() != nil {
				return nil, fmt.Errorf("%w: float column %d", ErrCorrupt, i)
			}
			col.Floats = bytesToFloat64s(raw, nRows)
			consumed += nRows * 8
		case Bytes:
			consumed = align8(r, consumed)
			raw := r.Raw((nRows + 1) * 4)
			if r.Err() != nil {
				return nil, fmt.Errorf("%w: offsets column %d", ErrCorrupt, i)
			}
			col.Offsets = bytesToInt32s(raw, nRows+1)
			consumed += (nRows + 1) * 4
			pre := r.Remaining()
			blobLen := int(r.Uvarint())
			col.Blob = r.Raw(blobLen)
			if r.Err() != nil {
				return nil, fmt.Errorf("%w: blob column %d", ErrCorrupt, i)
			}
			consumed += pre - r.Remaining()
			// Validate the offsets before anyone calls BytesAt: they must
			// start ≥ 0, never decrease, and end exactly at the blob length,
			// or a hostile frame turns slicing into a panic or an
			// out-of-bounds read of neighbouring wire bytes.
			if off := col.Offsets; len(off) > 0 {
				if off[0] < 0 || int(off[len(off)-1]) != len(col.Blob) {
					return nil, fmt.Errorf("%w: offsets column %d out of range", ErrCorrupt, i)
				}
				for j := 1; j < len(off); j++ {
					if off[j] < off[j-1] {
						return nil, fmt.Errorf("%w: offsets column %d not monotonic", ErrCorrupt, i)
					}
				}
			}
		default:
			return nil, fmt.Errorf("%w: unknown dtype %d", ErrCorrupt, col.Type)
		}
	}
	return batch, nil
}

// align8 skips padding so the next Raw read is 8-byte aligned relative to
// the start of the buffer (Encode guarantees buffers start aligned).
func align8(r *wire.Reader, consumed int) int {
	for consumed%8 != 0 {
		r.Byte()
		consumed++
	}
	return consumed
}

// The casts below implement the zero-copy property: a fixed-width column's
// wire bytes are reinterpreted in place. Encode lays buffers out 8-byte
// aligned relative to the start of the encoding, and little-endian layout
// matches every platform this simulator targets (amd64/arm64).
//
// Relative alignment is not pointer alignment: decoded payloads are often
// sub-slices of a larger frame — a pooled transport buffer, a compression
// scratch region — whose own base address owes us nothing. An unsafe.Slice
// over an unaligned pointer is undefined behaviour and trips checkptr under
// -race, so each cast verifies the actual address and falls back to copying
// into a freshly allocated (naturally aligned) slice when it is off.

func int64sToBytes(v []int64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

func float64sToBytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

func int32sToBytes(v []int32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)
}

func bytesToInt64s(b []byte, n int) []int64 {
	if n == 0 {
		return nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int64, n)
	copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), n*8), b)
	return out
}

func bytesToFloat64s(b []byte, n int) []float64 {
	if n == 0 {
		return nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]float64, n)
	copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), n*8), b)
	return out
}

func bytesToInt32s(b []byte, n int) []int32 {
	if n == 0 {
		return nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int32, n)
	copy(unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), n*4), b)
	return out
}

// Select returns a new batch containing the rows at the given indices.
func (b *Batch) Select(rows []int) *Batch {
	out := &Batch{Schema: b.Schema, Cols: make([]Column, len(b.Cols)), rows: len(rows)}
	for i := range b.Cols {
		src := &b.Cols[i]
		dst := &out.Cols[i]
		dst.Type = src.Type
		switch src.Type {
		case Int64:
			dst.Ints = make([]int64, len(rows))
			for j, r := range rows {
				dst.Ints[j] = src.Ints[r]
			}
		case Float64:
			dst.Floats = make([]float64, len(rows))
			for j, r := range rows {
				dst.Floats[j] = src.Floats[r]
			}
		case Bytes:
			size := 0
			for _, r := range rows {
				size += int(src.Offsets[r+1] - src.Offsets[r])
			}
			dst.Blob = make([]byte, 0, size)
			dst.Offsets = make([]int32, 1, len(rows)+1)
			for _, r := range rows {
				dst.Blob = append(dst.Blob, src.BytesAt(r)...)
				dst.Offsets = append(dst.Offsets, int32(len(dst.Blob)))
			}
		}
	}
	return out
}

// Project returns a new batch with only the named columns (shared storage).
func (b *Batch) Project(names ...string) (*Batch, error) {
	out := &Batch{Schema: &Schema{}, rows: b.rows}
	for _, name := range names {
		i := b.Schema.Index(name)
		if i < 0 {
			return nil, fmt.Errorf("%w: no column %q", ErrSchemaMismatch, name)
		}
		out.Schema.Fields = append(out.Schema.Fields, b.Schema.Fields[i])
		out.Cols = append(out.Cols, b.Cols[i])
	}
	return out, nil
}

// Concat appends other's rows to a copy of b. Schemas must match.
func Concat(batches ...*Batch) (*Batch, error) {
	if len(batches) == 0 {
		return nil, fmt.Errorf("%w: no batches", ErrSchemaMismatch)
	}
	first := batches[0]
	out := &Batch{Schema: first.Schema, Cols: make([]Column, len(first.Cols))}
	for i := range out.Cols {
		out.Cols[i].Type = first.Cols[i].Type
		if out.Cols[i].Type == Bytes {
			out.Cols[i].Offsets = append(out.Cols[i].Offsets, 0)
		}
	}
	for _, b := range batches {
		if !b.Schema.Equal(first.Schema) {
			return nil, fmt.Errorf("%w: concat of differing schemas", ErrSchemaMismatch)
		}
		out.rows += b.rows
		for i := range out.Cols {
			src, dst := &b.Cols[i], &out.Cols[i]
			switch dst.Type {
			case Int64:
				dst.Ints = append(dst.Ints, src.Ints...)
			case Float64:
				dst.Floats = append(dst.Floats, src.Floats...)
			case Bytes:
				base := int32(len(dst.Blob))
				dst.Blob = append(dst.Blob, src.Blob...)
				for j := 1; j < len(src.Offsets); j++ {
					dst.Offsets = append(dst.Offsets, base+src.Offsets[j])
				}
			}
		}
	}
	return out, nil
}

// SizeBytes estimates the batch's memory footprint.
func (b *Batch) SizeBytes() int64 {
	var total int64
	for i := range b.Cols {
		c := &b.Cols[i]
		total += int64(len(c.Ints))*8 + int64(len(c.Floats))*8 + int64(len(c.Offsets))*4 + int64(len(c.Blob))
	}
	return total
}

// Float64At returns column col's value at row as float64, converting int
// columns; it is the numeric accessor relational kernels use.
func (b *Batch) Float64At(col, row int) float64 {
	c := &b.Cols[col]
	switch c.Type {
	case Int64:
		return float64(c.Ints[row])
	case Float64:
		return c.Floats[row]
	default:
		return math.NaN()
	}
}
