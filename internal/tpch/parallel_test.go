package tpch

import (
	"fmt"
	"testing"

	"ocht/internal/core"
	"ocht/internal/exec"
)

// TestAllQueriesParallelMatchSerial checks every TPC-H query at several
// worker counts against the serial oracle, under both the vanilla and the
// fully optimized engine. Group emission order after a parallel merge is
// unspecified, so rows are compared as sorted rendered strings.
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
		for q := 1; q <= 22; q++ {
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

// TestWorkersOneBitIdentical pins the workers<=1 path to the serial
// engine: the parallel driver must not be entered at all, so results match
// in emission order, not just as sets.
func TestWorkersOneBitIdentical(t *testing.T) {
	cat := catFor(t)
	for q := 1; q <= 22; q++ {
		serial := Q(q, cat, exec.NewQCtx(core.All()))
		qc := exec.NewQCtx(core.All())
		qc.Workers = 1
		got := Q(q, cat, qc)
		if len(got.Rows) != len(serial.Rows) {
			t.Fatalf("q%d: row count %d vs %d", q, len(got.Rows), len(serial.Rows))
		}
		for i := range got.Rows {
			for c := range got.Rows[i] {
				if got.Rows[i][c].String() != serial.Rows[i][c].String() {
					t.Fatalf("q%d row %d col %d: %s vs %s",
						q, i, c, got.Rows[i][c], serial.Rows[i][c])
				}
			}
		}
	}
}

// TestParallelBuildsMultiBlock runs the queries whose large build sides the
// parallel driver builds on its workers — partition-wise pipelines (Q4,
// Q13, and Q21's lineitem sides of its residual semi and anti joins), an
// aggregation (Q18) and both nested (Q20) — on a catalog whose
// big tables span several storage blocks: catFor's catalog is one block,
// one morsel, per table, so no scan there is ever split between workers.
func TestParallelBuildsMultiBlock(t *testing.T) {
	cat := Gen(0.05, 42)
	if b := cat.Table("lineitem").Cols[0].Blocks(); b < 3 {
		t.Fatalf("lineitem has %d blocks; the check needs a split scan", b)
	}
	for _, fs := range []struct {
		name  string
		flags core.Flags
	}{{"vanilla", core.Vanilla()}, {"all", core.All()}} {
		for _, q := range []int{4, 13, 18, 20, 21} {
			serial := resKey(Q(q, cat, exec.NewQCtx(fs.flags)))
			for _, workers := range []int{2, 4} {
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
					if qc.Stats.Counter(exec.CtrParallelJoinBuilds) == 0 {
						t.Fatal("no join build side ran on the workers")
					}
				})
			}
		}
	}
}
