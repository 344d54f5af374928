package tpch

import (
	"fmt"
	"testing"

	"ocht/internal/core"
	"ocht/internal/exec"
)

// TestAllQueriesPartitionBitsParallelMatchSerial drives every TPC-H query
// through the parallel engine at forced radix widths — monolithic (0, one
// partition owner folds every worker's partials), 3 and 6 (one owner per
// partition) — at several worker counts, against the serial oracle.
// Parallel emission order depends on scheduling, so rows compare as
// sorted rendered strings.
func TestAllQueriesPartitionBitsParallelMatchSerial(t *testing.T) {
	cat := catFor(t)
	defer func(old int) { exec.DefaultPartitionBits = old }(exec.DefaultPartitionBits)
	for q := 1; q <= 22; q++ {
		exec.DefaultPartitionBits = -1
		serial := resKey(Q(q, cat, exec.NewQCtx(core.All())))
		for _, bits := range []int{0, 3, 6} {
			for _, workers := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("q%d/bits%d/w%d", q, bits, workers), func(t *testing.T) {
					exec.DefaultPartitionBits = bits
					qc := exec.NewQCtx(core.All())
					qc.Workers = workers
					got := resKey(Q(q, cat, qc))
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
