package hashtab

// Bloom is a cache-line-blocked Bloom filter for guarding hash-table
// probes: every key touches exactly one 64-byte block (eight 64-bit
// words), so a negative membership test costs a single cache line instead
// of the directory + chain + record lines of a full table probe. Selective
// joins consult it in a vectorized pre-pass that shrinks the selection
// vector before any table access.
//
// The filter derives its own bit positions by remixing the caller's key
// hash with an odd multiplier, so it stays independent of the two other
// consumers of that hash: the radix partition (top bits) and the bucket
// directory (low bits).
const (
	bloomWordsPerBlock = 8                  // 8 x 64-bit words = one cache line
	bloomBlockBits     = 512                // bits per block
	bloomBitsPerKey    = 10                 // target density; ~1% false positives at 4 probes
	bloomProbes        = 4                  // bits set/tested per key
	bloomMix           = 0x9E3779B97F4A7C15 // odd => bijective remix of the key hash
	bloomMaxBlocks     = 1 << 18            // 16 MiB cap; oversized estimates stop here
)

// Bloom blocks are selected by the top bits of the remixed hash; the four
// probe bits come from its low 36 bits (4 x 9-bit in-block positions).
type Bloom struct {
	words []uint64
	shift uint // 64 - log2(blocks); block index = remix >> shift
}

// NewBloom sizes a filter for about nKeys keys at bloomBitsPerKey bits
// per key, rounded up to a power-of-two block count. The estimate only
// shapes the false-positive rate: overshooting it keeps the filter
// correct, just denser.
func NewBloom(nKeys int) *Bloom {
	if nKeys < 1 {
		nKeys = 1
	}
	blocks := 1
	for blocks*bloomBlockBits < nKeys*bloomBitsPerKey && blocks < bloomMaxBlocks {
		blocks <<= 1
	}
	shift := uint(64)
	for s := blocks; s > 1; s >>= 1 {
		shift--
	}
	return &Bloom{words: make([]uint64, blocks*bloomWordsPerBlock), shift: shift}
}

// Empty returns an empty filter of b's shape. Parallel builders each fill
// one and Union them into the shared filter after the build, so no filter
// word is ever written by two goroutines.
func (b *Bloom) Empty() *Bloom {
	return &Bloom{words: make([]uint64, len(b.words)), shift: b.shift}
}

// Union ORs o into b word by word; afterwards b holds every key added to
// either filter, exactly as if all had been added to b. o must share b's
// shape (Empty).
func (b *Bloom) Union(o *Bloom) {
	if len(o.words) != len(b.words) || o.shift != b.shift {
		panic("hashtab: Bloom.Union of filters with different shapes")
	}
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// MemoryBytes returns the filter footprint.
func (b *Bloom) MemoryBytes() int { return len(b.words) * 8 }

// Add inserts the key hash.
//
//ocht:hot
func (b *Bloom) Add(h uint64) {
	g := h * bloomMix
	base := (g >> b.shift) * bloomWordsPerBlock
	for k := 0; k < bloomProbes; k++ {
		idx := (g >> (9 * uint(k))) & (bloomBlockBits - 1)
		b.words[base+idx>>6] |= 1 << (idx & 63)
	}
}

// Test reports whether the key hash may be present. False negatives never
// happen; false positives cost one redundant table probe.
//
//ocht:hot
func (b *Bloom) Test(h uint64) bool {
	g := h * bloomMix
	base := (g >> b.shift) * bloomWordsPerBlock
	for k := 0; k < bloomProbes; k++ {
		idx := (g >> (9 * uint(k))) & (bloomBlockBits - 1)
		if b.words[base+idx>>6]&(1<<(idx&63)) == 0 {
			return false
		}
	}
	return true
}

// Filter appends to out the active rows whose hash may be in the filter:
// the vectorized pre-pass of a Bloom-guarded probe. hashes is indexed by
// physical row position.
//
//ocht:hot
func (b *Bloom) Filter(hashes []uint64, rows []int32, out []int32) []int32 {
	for _, r := range rows {
		if b.Test(hashes[r]) {
			out = append(out, r)
		}
	}
	return out
}
