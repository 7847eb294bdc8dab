package wire_test

import (
	"bytes"
	"math/rand"
	"testing"

	"skadi/internal/arrowlite"
	"skadi/internal/wire"
)

// TestLZ4RatioGuard pins the codec's compressed sizes to the ones recorded
// before skip acceleration, so a faster match finder cannot quietly buy its
// speed with ratio. A long run and repetitive text must keep their exact
// sizes, and random bytes stay one all-literal sequence; a columnar table,
// where skipping can step over some short matches, may grow by at most 3 %.
func TestLZ4RatioGuard(t *testing.T) {
	random := make([]byte, 256<<10)
	rand.New(rand.NewSource(1)).Read(random)
	exact := []struct {
		name string
		src  []byte
		want int
	}{
		{"zeros", make([]byte, 256<<10), 1038},
		{"text", bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog "), 2000), 400},
		// Before skip acceleration this input compressed to 263172: one
		// chance 4-byte match saved a byte. The skip step passes over it
		// and the block is all literals; both exceed the input, so the
		// fabric ships these bytes raw either way.
		{"random", random, 1 + (len(random)-15)/255 + 1 + len(random)},
	}
	for _, c := range exact {
		if got := len(wire.AppendCompress(nil, c.src)); got != c.want {
			t.Errorf("%s: %d input bytes compress to %d, want exactly %d", c.name, len(c.src), got, c.want)
		}
	}

	// E7's column mix: an int64 key, a float64 value and a short tag.
	b := arrowlite.NewBuilder(arrowlite.NewSchema(
		arrowlite.Field{Name: "id", Type: arrowlite.Int64},
		arrowlite.Field{Name: "value", Type: arrowlite.Float64},
		arrowlite.Field{Name: "tag", Type: arrowlite.Bytes},
	))
	tags := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < 50_000; i++ {
		if err := b.Append(int64(i), float64(i)*0.5, tags[i%len(tags)]); err != nil {
			t.Fatal(err)
		}
	}
	table := arrowlite.Encode(b.Build())
	bounded := []struct {
		name string
		src  []byte
		base int
	}{
		{"table 256 KiB prefix", table[:256<<10], 131078},
		{"whole table", table, 601845},
	}
	for _, c := range bounded {
		got := len(wire.AppendCompress(nil, c.src))
		if limit := c.base + c.base*3/100; got > limit {
			t.Errorf("%s: %d input bytes compress to %d, more than %d (+3 %% over %d)", c.name, len(c.src), got, limit, c.base)
		}
		t.Logf("%s: %d → %d bytes (%+.1f %% vs %d)", c.name, len(c.src), got, 100*float64(got-c.base)/float64(c.base), c.base)
	}
}
