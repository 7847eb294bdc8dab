package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func lz4RoundTrip(t *testing.T, src []byte) {
	t.Helper()
	block := AppendCompress(nil, src)
	if len(block) > CompressBound(len(src)) {
		t.Fatalf("block %d exceeds bound %d for %d input bytes", len(block), CompressBound(len(src)), len(src))
	}
	dst := make([]byte, len(src))
	if err := DecompressInto(dst, block); err != nil {
		t.Fatalf("DecompressInto: %v", err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("round trip mismatch: %d input bytes", len(src))
	}
}

func TestLZ4RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][]byte{
		nil,
		[]byte(""),
		[]byte("a"),
		[]byte("hello world"),
		bytes.Repeat([]byte("x"), 100000),
		bytes.Repeat([]byte("abcd"), 5000),
		bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog "), 300),
	}
	// Incompressible random data.
	random := make([]byte, 64<<10)
	rng.Read(random)
	cases = append(cases, random)
	// Mixed: runs + random islands, every small length.
	for n := 0; n < 300; n++ {
		mixed := make([]byte, n)
		for i := range mixed {
			if i%3 == 0 {
				mixed[i] = byte(rng.Intn(256))
			} else {
				mixed[i] = 7
			}
		}
		cases = append(cases, mixed)
	}
	for _, src := range cases {
		lz4RoundTrip(t, src)
	}
}

func TestLZ4CompressesRuns(t *testing.T) {
	src := bytes.Repeat([]byte("skadi"), 10000)
	block := AppendCompress(nil, src)
	if len(block) >= len(src)/10 {
		t.Fatalf("run of %d bytes compressed only to %d", len(src), len(block))
	}
}

func TestLZ4Deterministic(t *testing.T) {
	src := bytes.Repeat([]byte("deterministic payload 123 "), 1000)
	a := AppendCompress(nil, src)
	b := AppendCompress(nil, src)
	if !bytes.Equal(a, b) {
		t.Fatal("same input produced different blocks")
	}
}

// TestLZ4DecompressHostile feeds corrupt blocks: every outcome must be a
// clean ErrCorruptBlock, never a panic or an out-of-range access.
func TestLZ4DecompressHostile(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := bytes.Repeat([]byte("valid data segment "), 200)
	valid := AppendCompress(nil, src)
	dst := make([]byte, len(src))
	for trial := 0; trial < 2000; trial++ {
		block := append([]byte(nil), valid...)
		for flips := 0; flips < 1+rng.Intn(4); flips++ {
			block[rng.Intn(len(block))] ^= byte(1 + rng.Intn(255))
		}
		_ = DecompressInto(dst, block) // must not panic
	}
	for trial := 0; trial < 2000; trial++ {
		block := make([]byte, rng.Intn(64))
		rng.Read(block)
		_ = DecompressInto(dst, block)
	}
	// Truncations of a valid block.
	for cut := 0; cut < len(valid); cut += 7 {
		_ = DecompressInto(dst, valid[:cut])
	}
	// Wrong output sizes must error, not overrun.
	if err := DecompressInto(make([]byte, len(src)-1), valid); err == nil {
		t.Fatal("short dst accepted")
	}
	if err := DecompressInto(make([]byte, len(src)+1), valid); err == nil {
		t.Fatal("long dst accepted")
	}
}

// lz4Shapes are the inputs the codec guards run: incompressible, one long
// run, repetitive text, and random bytes that give way to a run (a literal
// sequence, then a match).
func lz4Shapes(n int) map[string][]byte {
	random := make([]byte, n)
	rand.New(rand.NewSource(int64(n))).Read(random)
	text := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog "), n/44+1)[:n]
	tail := append([]byte(nil), random...)
	clear(tail[n/2:])
	return map[string][]byte{"random": random, "zeros": make([]byte, n), "text": text, "random-then-zero": tail}
}

// lz4GuardLens covers every length below 32, the lengths around 4 KiB, and
// the lengths around the 15 and 15+255 literal- and match-length extension
// edges, both for a whole input and for its first half.
func lz4GuardLens() []int {
	var lens []int
	for n := 0; n < 32; n++ {
		lens = append(lens, n)
	}
	for _, edge := range []int{15, 15 + 255, 15 + 2*255, 4 << 10} {
		for _, mid := range []int{edge, 2 * edge} {
			for n := mid - 12; n <= mid+12; n++ {
				lens = append(lens, n)
			}
		}
	}
	return lens
}

// lz4Check is the property FuzzLZ4 and the guard tests share: the block
// stays under CompressBound, decodes back to src, and CompressedLen
// measures it exactly.
func lz4Check(t *testing.T, src []byte) {
	t.Helper()
	block := AppendCompress(nil, src)
	if got := CompressedLen(src); got != len(block) {
		t.Fatalf("CompressedLen = %d, len(AppendCompress) = %d for %d input bytes", got, len(block), len(src))
	}
	lz4RoundTrip(t, src)
}

func TestCompressedLenMatchesAppendCompress(t *testing.T) {
	for _, n := range lz4GuardLens() {
		for name, src := range lz4Shapes(n) {
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) { lz4Check(t, src) })
		}
	}
}

func FuzzLZ4(f *testing.F) {
	for _, n := range []int{0, 1, 15, 16, 31, 270, 4 << 10} {
		for _, src := range lz4Shapes(n) {
			f.Add(src)
		}
	}
	f.Fuzz(func(t *testing.T, src []byte) { lz4Check(t, src) })
}

func BenchmarkLZ4Compress(b *testing.B) {
	for _, name := range []string{"text", "random", "zeros"} {
		src := lz4Shapes(88000)[name]
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			var block []byte
			for i := 0; i < b.N; i++ {
				block = AppendCompress(block[:0], src)
			}
		})
	}
}

func BenchmarkCompressedLen(b *testing.B) {
	for _, name := range []string{"text", "random", "zeros"} {
		src := lz4Shapes(88000)[name]
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				compressedLenResult = CompressedLen(src)
			}
		})
	}
}

// compressedLenResult keeps BenchmarkCompressedLen's result live.
var compressedLenResult int

func BenchmarkLZ4Decompress(b *testing.B) {
	src := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog "), 2000)
	block := AppendCompress(nil, src)
	dst := make([]byte, len(src))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecompressInto(dst, block); err != nil {
			b.Fatal(err)
		}
	}
}
