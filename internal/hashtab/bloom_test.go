package hashtab

import (
	"math/rand"
	"testing"
)

func TestBloomNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBloom(1 << 14)
	hashes := make([]uint64, 1<<14)
	for i := range hashes {
		hashes[i] = rng.Uint64()
		b.Add(hashes[i])
	}
	for i, h := range hashes {
		if !b.Test(h) {
			t.Fatalf("inserted hash %d reported absent", i)
		}
	}
}

func TestBloomFalsePositiveRate(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b := NewBloom(1 << 14)
	for i := 0; i < 1<<14; i++ {
		b.Add(rng.Uint64())
	}
	fp := 0
	const probes = 1 << 16
	for i := 0; i < probes; i++ {
		if b.Test(rng.Uint64()) {
			fp++
		}
	}
	// 10 bits/key with 4 probes lands near 1-2% in a blocked layout; the
	// Bloom-guarded probe contract needs >90% of misses filtered.
	if rate := float64(fp) / probes; rate > 0.05 {
		t.Errorf("false positive rate %.4f, want <= 0.05", rate)
	}
}

func TestBloomFilterRows(t *testing.T) {
	b := NewBloom(64)
	hashes := make([]uint64, 8)
	rng := rand.New(rand.NewSource(9))
	for i := range hashes {
		hashes[i] = rng.Uint64()
	}
	b.Add(hashes[1])
	b.Add(hashes[5])
	rows := []int32{0, 1, 2, 5, 7}
	out := b.Filter(hashes, rows, nil)
	present := map[int32]bool{}
	for _, r := range out {
		present[r] = true
	}
	if !present[1] || !present[5] {
		t.Fatalf("inserted rows filtered out: %v", out)
	}
	// A tiny filter may keep false positives, but never rows 3/4/6 which
	// are not in the selection vector.
	for _, r := range out {
		if r != 0 && r != 1 && r != 2 && r != 5 && r != 7 {
			t.Fatalf("row %d not in the selection vector", r)
		}
	}
}

func TestBloomSizing(t *testing.T) {
	small := NewBloom(1)
	if small.MemoryBytes() != 64 {
		t.Errorf("minimum filter is one block, got %dB", small.MemoryBytes())
	}
	huge := NewBloom(1 << 30)
	if huge.MemoryBytes() > bloomMaxBlocks*64 {
		t.Errorf("filter exceeds cap: %dB", huge.MemoryBytes())
	}
}

// TestBloomUnionExact pins the parallel-build contract: filters filled by
// disjoint builders and ORed together hold exactly the bits one filter
// fed every key would hold.
func TestBloomUnionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	whole := NewBloom(1 << 12)
	parts := []*Bloom{whole.Empty(), whole.Empty(), whole.Empty()}
	for i := 0; i < 1<<12; i++ {
		h := rng.Uint64()
		whole.Add(h)
		parts[i%len(parts)].Add(h)
	}
	union := whole.Empty()
	for _, p := range parts {
		union.Union(p)
	}
	for i := range whole.words {
		if union.words[i] != whole.words[i] {
			t.Fatalf("word %d: union %#x, single filter %#x", i, union.words[i], whole.words[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Union of differently shaped filters must panic")
		}
	}()
	union.Union(NewBloom(1 << 16))
}
