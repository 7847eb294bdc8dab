package bench

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
)

// newRand returns the generator for one purpose ("pool", "client-0", …) of
// one seed. Everything random in a run — payload bytes, table rows, PutAt
// targets, size order — comes from one of these, so a seed fixes the inputs
// and the op sequence.
func newRand(seed uint64, purpose string) *rand.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(purpose))
	return rand.New(rand.NewSource(int64(mix64(seed ^ h.Sum64()))))
}

// randomBytes returns n incompressible bytes. Payloads must not compress:
// the fabric LZ4s rack links, and a zero-filled prototype of dag_shuffle
// moved 58 KB per op instead of 2 MiB.
func randomBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	_, _ = r.Read(b) // (*rand.Rand).Read always fills b and returns nil
	return b
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// hash64 is a word-at-a-time content hash, fast enough (several GB/s) that
// checking 2 MiB per dag_shuffle op stays a few percent of the op.
func hash64(b []byte) uint64 {
	h := uint64(len(b)) * 0x9e3779b97f4a7c15
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * 0xff51afd7ed558ccd
		h ^= h >> 32
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return h
}
