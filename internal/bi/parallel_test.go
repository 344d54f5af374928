package bi

import (
	"fmt"
	"testing"

	"ocht/internal/core"
	"ocht/internal/exec"
)

// TestAllQueriesParallelMatchSerial checks every BI workload query at
// several worker counts against the serial oracle. The BI queries group
// almost exclusively on strings, so this exercises cross-worker string
// reference resolution (USSR hits and private-heap exceptions) in the
// partition owners' fold.
func TestAllQueriesParallelMatchSerial(t *testing.T) {
	cat := catFor(t)
	flagSets := []struct {
		name  string
		flags core.Flags
	}{
		{"vanilla", core.Vanilla()},
		{"all", core.All()},
	}
	for _, fs := range flagSets {
		for q := 1; q <= NumQueries; q++ {
			serial := resKey(Q(q, cat, exec.NewQCtx(fs.flags)))
			for _, workers := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/q%d/w%d", fs.name, q, workers), func(t *testing.T) {
					qc := exec.NewQCtx(fs.flags)
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
