package hashtab

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

func record(rowWidth int, key uint64, payload byte) []byte {
	rec := make([]byte, rowWidth)
	binary.LittleEndian.PutUint64(rec, key)
	for i := 8; i < rowWidth; i++ {
		rec[i] = payload
	}
	return rec
}

func tables(rowWidth, n int) map[string]Table {
	return map[string]Table{
		"chained": NewChained(rowWidth, n),
		"linear":  NewLinear(rowWidth, n, 50),
		"concise": NewConcise(rowWidth, n),
	}
}

func TestAllDesignsBasic(t *testing.T) {
	const rowWidth = 24
	for name, tab := range tables(rowWidth, 100) {
		t.Run(name, func(t *testing.T) {
			for k := uint64(0); k < 100; k++ {
				tab.Insert(k, record(rowWidth, k, byte(k)))
			}
			if tab.Len() != 100 {
				t.Fatalf("Len = %d", tab.Len())
			}
			for k := uint64(0); k < 100; k++ {
				rec := tab.Lookup(k)
				if rec == nil {
					t.Fatalf("key %d missing", k)
				}
				if binary.LittleEndian.Uint64(rec) != k || rec[8] != byte(k) {
					t.Fatalf("key %d: wrong record", k)
				}
			}
			for k := uint64(100); k < 200; k++ {
				if tab.Lookup(k) != nil {
					t.Fatalf("key %d should miss", k)
				}
			}
			if tab.MemoryBytes() <= 0 {
				t.Error("memory accounting")
			}
		})
	}
}

func TestAllDesignsRandomized(t *testing.T) {
	const rowWidth = 16
	rng := rand.New(rand.NewSource(11))
	keys := make([]uint64, 5000)
	seen := map[uint64]bool{}
	for i := range keys {
		for {
			k := rng.Uint64() % (1 << 16) // the Table IV key domain
			if !seen[k] {
				seen[k] = true
				keys[i] = k
				break
			}
		}
	}
	for name, tab := range tables(rowWidth, len(keys)) {
		t.Run(name, func(t *testing.T) {
			for _, k := range keys {
				tab.Insert(k, record(rowWidth, k, byte(k)))
			}
			for _, k := range keys {
				rec := tab.Lookup(k)
				if rec == nil || binary.LittleEndian.Uint64(rec) != k {
					t.Fatalf("key %d lost", k)
				}
			}
			misses := 0
			for i := 0; i < 1000; i++ {
				k := rng.Uint64() | 1<<20 // outside the insert domain
				if tab.Lookup(k) == nil {
					misses++
				}
			}
			if misses != 1000 {
				t.Errorf("false positives: %d", 1000-misses)
			}
		})
	}
}

func TestChainedGrowth(t *testing.T) {
	tab := NewChained(16, 4)
	for k := uint64(0); k < 10_000; k++ {
		tab.Insert(k, record(16, k, 0))
	}
	for k := uint64(0); k < 10_000; k++ {
		if tab.Lookup(k) == nil {
			t.Fatalf("key %d lost after growth", k)
		}
	}
}

func TestConciseMemoryBeatsLinear(t *testing.T) {
	// The CHT's raison d'être: no empty slots in the record area.
	const rowWidth, n = 64, 10_000
	lin := NewLinear(rowWidth, n, 50)
	cht := NewConcise(rowWidth, n)
	for k := uint64(0); k < n; k++ {
		rec := record(rowWidth, k, 1)
		lin.Insert(k, rec)
		cht.Insert(k, rec)
	}
	if cht.MemoryBytes() >= lin.MemoryBytes() {
		t.Errorf("CHT %d B should undercut linear %d B for wide records",
			cht.MemoryBytes(), lin.MemoryBytes())
	}
}

func TestConciseOverflow(t *testing.T) {
	// Force heavy collisions by inserting more keys than virtual slots in
	// one region would comfortably hold; correctness must not depend on
	// the probe window.
	cht := NewConcise(16, 1000)
	for k := uint64(0); k < 1000; k++ {
		cht.Insert(k*64, record(16, k*64, 0)) // stride to provoke clustering
	}
	cht.Finalize()
	for k := uint64(0); k < 1000; k++ {
		if cht.Lookup(k*64) == nil {
			t.Fatalf("key %d lost (overflow handling broken)", k*64)
		}
	}
}

func TestMemoryOrdering(t *testing.T) {
	// Wider records: chained ≈ records + links; linear at 50% fill pays 2x
	// records. Sanity-check the relative footprints used in Table IV.
	const rowWidth, n = 136, 4096 // 1 key + 16 values
	lin := NewLinear(rowWidth, n, 50)
	ch := NewChained(rowWidth, n)
	for k := uint64(0); k < n; k++ {
		rec := record(rowWidth, k, 0)
		lin.Insert(k, rec)
		ch.Insert(k, rec)
	}
	if !(lin.MemoryBytes() > ch.MemoryBytes()) {
		t.Errorf("linear %d should exceed chained %d at 50%% fill",
			lin.MemoryBytes(), ch.MemoryBytes())
	}
}

func ExampleChained() {
	t := NewChained(16, 8)
	rec := make([]byte, 16)
	binary.LittleEndian.PutUint64(rec, 7)
	binary.LittleEndian.PutUint64(rec[8:], 700)
	t.Insert(7, rec)
	got := t.Lookup(7)
	fmt.Println(binary.LittleEndian.Uint64(got[8:]))
	// Output: 700
}
