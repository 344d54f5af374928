package bi

import (
	"fmt"
	"testing"

	"ocht/internal/core"
	"ocht/internal/exec"
	"ocht/internal/storage"
)

// TestAllQueriesPartitionBitsSealModes drives every BI query through the
// parallel engine at forced radix widths {0, 3, 6} — pinning the
// one-partition owner step (0) and one owner per partition (3, 6) —
// over BOTH catalog generations (plain and compressed sealed string
// blocks), against the serial oracle of the same catalog.
func TestAllQueriesPartitionBitsSealModes(t *testing.T) {
	gen := func(mode storage.CompressMode) *storage.Catalog {
		storage.SetSealCompression(mode)
		storage.SetCompressMinRows(1)
		defer func() {
			storage.SetSealCompression(storage.CompressAuto)
			storage.SetCompressMinRows(4096)
		}()
		return Gen(20_000, 9)
	}
	cats := []struct {
		name string
		cat  *storage.Catalog
	}{
		{"plain", gen(storage.CompressOff)},
		{"compressed", gen(storage.CompressOn)},
	}
	defer func(old int) { exec.DefaultPartitionBits = old }(exec.DefaultPartitionBits)
	for _, c := range cats {
		for q := 1; q <= NumQueries; q++ {
			exec.DefaultPartitionBits = -1
			serial := resKey(Q(q, c.cat, exec.NewQCtx(core.All())))
			for _, bits := range []int{0, 3, 6} {
				for _, workers := range []int{1, 2, 4, 8} {
					t.Run(fmt.Sprintf("%s/q%d/bits%d/w%d", c.name, q, bits, workers), func(t *testing.T) {
						exec.DefaultPartitionBits = bits
						qc := exec.NewQCtx(core.All())
						qc.Workers = workers
						got := resKey(Q(q, c.cat, qc))
						if len(got) != len(serial) {
							t.Fatalf("row count %d, serial %d", len(got), len(serial))
						}
						for i := range got {
							if got[i] != serial[i] {
								t.Fatalf("row %d:\n  parallel %s\n  serial   %s", i, got[i], serial[i])
							}
						}
					})
				}
			}
		}
	}
}
