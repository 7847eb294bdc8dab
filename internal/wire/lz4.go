package wire

import (
	"encoding/binary"
	"errors"
	"sync"
)

// An LZ4-style block codec for per-link compression on the wire path. The
// format is the classic token stream — literal-run / match-length nibbles
// with 255-run extensions, 16-bit little-endian match offsets — compressed
// greedily through a pooled hash table, with LZ4's skip acceleration over
// runs of missed probes. It trades ratio for speed the way LZ4 does, which
// is the right trade on rack-class links: the fabric's rack bandwidth
// (~3 GB/s) is slower than the codec, so shipping fewer bytes wins, while
// island/NVLink-class links are faster than any codec and ship raw.
//
// The codec is self-contained (no dependency beyond the standard library)
// and deterministic: the same input always yields the same block.

// ErrCorruptBlock reports a malformed compressed block.
var ErrCorruptBlock = errors.New("wire: corrupt compressed block")

const (
	lz4MinMatch  = 4
	lz4MaxOffset = 65535
	lz4HashLog   = 13
	lz4TableSize = 1 << lz4HashLog
	// lz4MFLimit: matches must start at least this far from the end, so the
	// final sequence is always literals (mirrors the reference format rule).
	lz4MFLimit = 12
	// lz4SkipLog sets how fast the scan step widens over a run of missed
	// probes (the reference codec's skip trigger; 7 as in pierrec/lz4).
	lz4SkipLog = 7
)

var lz4TablePool = sync.Pool{
	New: func() any { return new([lz4TableSize]int32) },
}

func lz4Hash(u uint32) uint32 { return (u * 2654435761) >> (32 - lz4HashLog) }

// CompressBound returns the maximum compressed size of n input bytes.
func CompressBound(n int) int { return n + n/255 + 16 }

// AppendCompress appends the block encoding of src to dst and returns the
// extended slice. It never fails; incompressible input grows by at most
// CompressBound(len(src)) - len(src) bytes (callers ship raw when the block
// is not smaller).
func AppendCompress(dst, src []byte) []byte {
	out := lz4Out{b: dst}
	lz4Compress(&out, src)
	return out.b
}

// CompressedLen returns len(AppendCompress(nil, src)) without building the
// block: the same parse, with each sequence measured instead of written. It
// is the probe for a cost model that needs a payload's compression ratio but
// ships no block.
func CompressedLen(src []byte) int {
	out := lz4Out{count: true}
	lz4Compress(&out, src)
	return out.n
}

// lz4Out receives the parser's sequences: appended to b, or, when count is
// set, only added up in n.
type lz4Out struct {
	b     []byte
	n     int
	count bool
}

func (o *lz4Out) sequence(lits []byte, offset, mLen int) {
	if o.count {
		o.n += 1 + lz4LenExtSize(len(lits)) + len(lits) + 2 + lz4LenExtSize(mLen-lz4MinMatch)
		return
	}
	o.b = lz4AppendSequence(o.b, lits, offset, mLen)
}

func (o *lz4Out) last(lits []byte) {
	if o.count {
		o.n += 1 + lz4LenExtSize(len(lits)) + len(lits)
		return
	}
	o.b = lz4AppendLastLiterals(o.b, lits)
}

// lz4Compress is the greedy match finder both AppendCompress and
// CompressedLen run; it hands every sequence to out.
func lz4Compress(out *lz4Out, src []byte) {
	n := len(src)
	if n < lz4MFLimit+lz4MinMatch {
		out.last(src)
		return
	}
	table := lz4TablePool.Get().(*[lz4TableSize]int32)
	for i := range table {
		table[i] = 0
	}
	defer lz4TablePool.Put(table)

	var (
		s      = 0 // scan position
		anchor = 0 // start of pending literals
		limit  = n - lz4MFLimit
	)
	for s < limit {
		seq := binary.LittleEndian.Uint32(src[s:])
		h := lz4Hash(seq)
		cand := int(table[h]) - 1 // stored +1 so 0 means empty
		table[h] = int32(s + 1)
		if cand < 0 || s-cand > lz4MaxOffset ||
			binary.LittleEndian.Uint32(src[cand:]) != seq {
			// Skip acceleration: the step grows by one for every
			// 1<<lz4SkipLog bytes since the last match, so incompressible
			// input costs ~1K probes per 256 KiB instead of one per byte.
			s += 1 + (s-anchor)>>lz4SkipLog
			continue
		}
		// Extend the match forward (leave the final 5 bytes as literals)
		// and backward over pending literals.
		mLen := lz4MinMatch
		for s+mLen < n-5 && src[cand+mLen] == src[s+mLen] {
			mLen++
		}
		for s > anchor && cand > 0 && src[s-1] == src[cand-1] {
			s--
			cand--
			mLen++
		}
		out.sequence(src[anchor:s], s-cand, mLen)
		s += mLen
		anchor = s
	}
	out.last(src[anchor:])
}

// lz4AppendSequence emits one token + literals + offset + match length.
func lz4AppendSequence(dst, lits []byte, offset, mLen int) []byte {
	litLen := len(lits)
	ml := mLen - lz4MinMatch
	token := byte(0)
	if litLen >= 15 {
		token = 0xF0
	} else {
		token = byte(litLen) << 4
	}
	if ml >= 15 {
		token |= 0x0F
	} else {
		token |= byte(ml)
	}
	dst = append(dst, token)
	if litLen >= 15 {
		dst = lz4AppendLenExt(dst, litLen-15)
	}
	dst = append(dst, lits...)
	dst = append(dst, byte(offset), byte(offset>>8))
	if ml >= 15 {
		dst = lz4AppendLenExt(dst, ml-15)
	}
	return dst
}

// lz4AppendLastLiterals emits the closing literals-only sequence.
func lz4AppendLastLiterals(dst, lits []byte) []byte {
	litLen := len(lits)
	if litLen >= 15 {
		dst = append(dst, 0xF0)
		dst = lz4AppendLenExt(dst, litLen-15)
	} else {
		dst = append(dst, byte(litLen)<<4)
	}
	return append(dst, lits...)
}

// lz4LenExtSize is how many extension bytes a length field of v takes:
// none below 15, else what lz4AppendLenExt writes for v-15.
func lz4LenExtSize(v int) int {
	if v < 15 {
		return 0
	}
	return (v-15)/255 + 1
}

func lz4AppendLenExt(dst []byte, v int) []byte {
	for v >= 255 {
		dst = append(dst, 255)
		v -= 255
	}
	return append(dst, byte(v))
}

// DecompressInto decodes one block into dst, which must be exactly the
// original input's length. Every read is bounds-checked: a corrupt or
// hostile block returns ErrCorruptBlock, never panics and never reads or
// writes out of range.
func DecompressInto(dst, block []byte) error {
	var di, si int
	readExt := func() (int, bool) {
		v := 0
		for {
			if si >= len(block) {
				return 0, false
			}
			b := block[si]
			si++
			v += int(b)
			if b != 255 {
				return v, true
			}
			if v > MaxFrameSize {
				return 0, false
			}
		}
	}
	for {
		if si >= len(block) {
			return ErrCorruptBlock // ran out before the closing literals
		}
		token := block[si]
		si++
		litLen := int(token >> 4)
		if litLen == 15 {
			ext, ok := readExt()
			if !ok {
				return ErrCorruptBlock
			}
			litLen += ext
		}
		if litLen > len(block)-si || litLen > len(dst)-di {
			return ErrCorruptBlock
		}
		copy(dst[di:], block[si:si+litLen])
		si += litLen
		di += litLen
		if si == len(block) {
			if di != len(dst) {
				return ErrCorruptBlock
			}
			return nil // closing sequence has no match part
		}
		if si+2 > len(block) {
			return ErrCorruptBlock
		}
		offset := int(block[si]) | int(block[si+1])<<8
		si += 2
		if offset == 0 || offset > di {
			return ErrCorruptBlock
		}
		mLen := int(token & 0x0F)
		if mLen == 15 {
			ext, ok := readExt()
			if !ok {
				return ErrCorruptBlock
			}
			mLen += ext
		}
		mLen += lz4MinMatch
		if mLen > len(dst)-di {
			return ErrCorruptBlock
		}
		if offset >= mLen {
			copy(dst[di:di+mLen], dst[di-offset:])
		} else {
			// Overlapping match (run): copy byte-wise so earlier output
			// feeds later positions, the LZ4 run-encoding semantics.
			for i := 0; i < mLen; i++ {
				dst[di+i] = dst[di-offset+i]
			}
		}
		di += mLen
	}
}
