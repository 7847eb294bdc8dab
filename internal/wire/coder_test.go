package wire

import (
	"encoding/binary"
	"reflect"
	"testing"

	"skadi/internal/idgen"
)

// sample exercises every Coder primitive in one walk.
type sample struct {
	ID    idgen.ID
	N     int64
	U     uint64
	OK    bool
	Name  string
	Body  []byte
	View  []byte
	IDs   []idgen.ID
	Attrs map[string]string
}

func (s *sample) Wire(c *Coder) {
	c.Tag(0x5A)
	c.ID(&s.ID)
	c.Varint(&s.N)
	c.Uvarint(&s.U)
	c.Bool(&s.OK)
	c.String(&s.Name)
	c.LenBytes(&s.Body)
	c.LenBytesView(&s.View)
	Slice(c, &s.IDs, 16, (*Coder).ID)
	Map(c, &s.Attrs, (*Coder).String)
}

func TestCoderBothDirections(t *testing.T) {
	in := sample{
		ID: idgen.Next(), N: -5, U: 1 << 40, OK: true, Name: "n", Body: []byte("body"), View: []byte("view"),
		IDs: []idgen.ID{idgen.Next(), idgen.Next()}, Attrs: map[string]string{"k": "v"},
	}
	enc := Marshal(&in)

	// The walk writes exactly what the Buffer primitives would.
	want := NewBuffer(64)
	want.Byte(0x5A)
	want.Bytes16(in.ID)
	want.Varint(in.N)
	want.Uvarint(in.U)
	want.Bool(in.OK)
	want.String(in.Name)
	want.LenBytes(in.Body)
	want.LenBytes(in.View)
	want.Uvarint(2)
	want.Bytes16(in.IDs[0])
	want.Bytes16(in.IDs[1])
	want.Bool(true)
	want.Uvarint(1)
	want.String("k")
	want.String("v")
	if string(enc) != string(want.Bytes()) {
		t.Fatalf("layout:\n got %x\nwant %x", enc, want.Bytes())
	}

	var out sample
	if err := Unmarshal(enc, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("decoded %+v, want %+v", out, in)
	}

	// LenBytes copies, LenBytesView aliases.
	for i := range enc {
		enc[i] = 0
	}
	if string(out.Body) != "body" || string(out.View) == "view" {
		t.Errorf("after clobbering the input: Body %q (want a copy), View %q (want a view)", out.Body, out.View)
	}
}

func TestCoderTagMismatch(t *testing.T) {
	var s sample
	if err := Unmarshal([]byte{0x5B, 1, 2, 3}, &s); err == nil {
		t.Fatal("wrong tag accepted")
	}
	if !reflect.DeepEqual(s, sample{}) {
		t.Errorf("fields decoded after a failed tag: %+v", s)
	}
}

func TestCoderCount(t *testing.T) {
	if got := new(Coder).Count(3, 16); got != 3 {
		t.Fatalf("encoding Count = %d, want 3", got)
	}
	payload := func(count uint64, rest int) []byte {
		return append(binary.AppendUvarint(nil, count), make([]byte, rest)...)
	}
	cases := []struct {
		name     string
		b        []byte
		elemSize int
		want     int
		fail     bool
	}{
		{"fits exactly", payload(2, 32), 16, 2, false},
		{"zero", payload(0, 0), 16, 0, false},
		{"one short", payload(2, 31), 16, 0, true},
		{"int-negative 2^63", payload(1<<63, 32), 16, 0, true},
		{"max uint64", payload(^uint64(0), 32), 1, 0, true},
		{"truncated varint", []byte{0x80}, 1, 0, true},
	}
	for _, tc := range cases {
		dec := &Coder{r: Reader{b: tc.b}, decoding: true}
		if got := dec.Count(0, tc.elemSize); got != tc.want || (dec.r.err != nil) != tc.fail {
			t.Errorf("%s: Count = %d, err %v; want %d, fail %v", tc.name, got, dec.r.err, tc.want, tc.fail)
		}
	}
}

func TestCoderSliceAndMapNilness(t *testing.T) {
	for _, in := range []sample{{}, {IDs: []idgen.ID{}, Attrs: map[string]string{}}} {
		out := sample{IDs: []idgen.ID{idgen.Next()}, Attrs: map[string]string{"stale": "x"}}
		if err := Unmarshal(Marshal(&in), &out); err != nil {
			t.Fatal(err)
		}
		if out.IDs != nil {
			t.Errorf("empty slice decoded as %v, want nil", out.IDs)
		}
		if (out.Attrs == nil) != (in.Attrs == nil) || len(out.Attrs) != 0 {
			t.Errorf("map %v decoded as %v", in.Attrs, out.Attrs)
		}
	}
}

// TestMarshalOwnsItsResult: a result that fit the pooled scratch buffer is a
// copy, one that outgrew it is the grown array itself; either way the next
// Marshal must not overwrite it.
func TestMarshalOwnsItsResult(t *testing.T) {
	small := sample{Name: "small"}
	bulk := sample{Name: "bulk", View: make([]byte, 8*scratchCap)}
	for _, in := range []*sample{&small, &bulk} {
		first := Marshal(in)
		keep := string(first)
		Marshal(&sample{Name: "overwrites the scratch buffer", Body: make([]byte, scratchCap/2)})
		if string(first) != keep {
			t.Errorf("%s: an earlier Marshal result changed under a later call", in.Name)
		}
		var out sample
		if err := Unmarshal(first, &out); err != nil || out.Name != in.Name || len(out.View) != len(in.View) {
			t.Errorf("%s: round trip = %v, %+v", in.Name, err, out)
		}
	}
}
