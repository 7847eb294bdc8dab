package wire

import (
	"fmt"
	"sync"

	"skadi/internal/idgen"
)

// Coder walks a message's fields in one direction: an encoding Coder
// appends each field to a Buffer, a decoding Coder fills each field from a
// Reader. A message lists its fields once, in wire order, in a single
// method (`c.ID(&m.ID); c.Varint(&m.Size); …`) that serves both directions,
// so the write layout and the read layout cannot drift apart.
//
// Decoding never panics on hostile input: the first short read or bad
// count fails the Coder, every later field decodes as its zero value, and
// Unmarshal reports the failure.
type Coder struct {
	w        Buffer
	r        Reader
	decoding bool
}

// Message is anything a Coder can walk: Wire names every field exactly once,
// in wire order, starting with the type's tag.
type Message interface {
	Wire(c *Coder)
}

// scratchCap is the encode buffer a pooled Coder keeps: room for any control
// message that carries no bulk payload.
const scratchCap = 512

// coders recycles Coders between calls: a Coder handed to a Message's Wire
// method escapes to the heap, so without the pool every encode and decode
// would allocate one.
var coders = sync.Pool{New: func() any {
	return &Coder{w: Buffer{b: make([]byte, 0, scratchCap)}}
}}

// Marshal encodes m. The result is the caller's to keep.
func Marshal(m Message) []byte {
	c := coders.Get().(*Coder)
	c.decoding = false
	scratch := c.w.b[:0]
	m.Wire(c)
	out := c.w.b
	if cap(out) == cap(scratch) {
		// Still in the pooled scratch: copy out at exact size. Otherwise a
		// bulk payload outgrew it and append already allocated an array of
		// the payload's size, which is handed out as is — no second copy.
		out = append([]byte(nil), out...)
	}
	c.w.b = scratch
	coders.Put(c)
	return out
}

// Unmarshal decodes b into m. Truncated, mistagged or otherwise corrupt
// input is an error, never a panic; m is then partly filled.
func Unmarshal(b []byte, m Message) error {
	c := coders.Get().(*Coder)
	c.decoding = true
	c.r = Reader{b: b}
	m.Wire(c)
	err := c.r.err
	c.r = Reader{}
	coders.Put(c)
	return err
}

// Tag codes the leading byte that names the message type; decoding any
// other byte fails the Coder.
func (c *Coder) Tag(t byte) {
	if !c.decoding {
		c.w.Byte(t)
		return
	}
	if got := c.r.Byte(); c.r.err == nil && got != t {
		c.r.err = fmt.Errorf("wire: message tag 0x%02X, want 0x%02X", got, t)
	}
}

// field codes one value with the Reader method that decodes it or the
// Buffer method that encodes it; each primitive below is such a pair.
func field[T any](c *Coder, v *T, read func(*Reader) T, write func(*Buffer, T)) {
	if c.decoding {
		*v = read(&c.r)
	} else {
		write(&c.w, *v)
	}
}

// ID codes a fixed 16-byte identifier.
func (c *Coder) ID(v *idgen.ID) { field(c, (*[16]byte)(v), (*Reader).Bytes16, (*Buffer).Bytes16) }

// Varint codes a signed (zig-zag) varint.
func (c *Coder) Varint(v *int64) { field(c, v, (*Reader).Varint, (*Buffer).Varint) }

// Uvarint codes an unsigned varint.
func (c *Coder) Uvarint(v *uint64) { field(c, v, (*Reader).Uvarint, (*Buffer).Uvarint) }

// Bool codes a boolean as one byte.
func (c *Coder) Bool(v *bool) { field(c, v, (*Reader).Bool, (*Buffer).Bool) }

// String codes a length-prefixed string.
func (c *Coder) String(v *string) { field(c, v, (*Reader).String, (*Buffer).String) }

// LenBytesView codes a length-prefixed byte string whose decoded form
// aliases the input buffer instead of copying it: the bulk-payload path.
func (c *Coder) LenBytesView(v *[]byte) { field(c, v, (*Reader).LenBytes, (*Buffer).LenBytes) }

// LenBytes is LenBytesView with a decoded slice that is a copy (nil when
// empty), so it outlives the input buffer.
func (c *Coder) LenBytes(v *[]byte) {
	c.LenBytesView(v)
	if c.decoding {
		*v = append([]byte(nil), *v...)
	}
}

// Count codes the element count of a repeated field: encoding writes n and
// returns it; decoding returns the count read. Every element takes at least
// elemSize encoded bytes, so a count the remaining input cannot hold fails
// the Coder and returns 0 — compared unsigned, so a hostile count can
// neither wrap negative nor make the caller allocate more elements than
// the payload has bytes.
func (c *Coder) Count(n, elemSize int) int {
	if !c.decoding {
		c.w.Uvarint(uint64(n))
		return n
	}
	v := c.r.Uvarint()
	if v > uint64(c.r.Remaining()/elemSize) {
		c.r.fail()
		return 0
	}
	return int(v)
}

// Slice codes a repeated field as a Count followed by each element through
// elem. An empty slice decodes as nil.
func Slice[T any](c *Coder, s *[]T, elemSize int, elem func(*Coder, *T)) {
	n := c.Count(len(*s), elemSize)
	if c.decoding {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// Map codes a string-keyed map as a presence byte (a nil map stays nil, an
// empty one stays empty), a Count, and each key followed by its value
// through val. Entries are written in map iteration order.
func Map[V any](c *Coder, m *map[string]V, val func(*Coder, *V)) {
	present := *m != nil
	c.Bool(&present)
	if !present {
		*m = nil
		return
	}
	n := c.Count(len(*m), 2)
	if !c.decoding {
		for k, v := range *m {
			c.String(&k)
			val(c, &v)
		}
		return
	}
	*m = make(map[string]V, n)
	for i := 0; i < n; i++ {
		var k string
		var v V
		c.String(&k)
		val(c, &v)
		(*m)[k] = v
	}
}
