package exec

import (
	"fmt"
	"testing"

	"ocht/internal/agg"
	"ocht/internal/core"
	"ocht/internal/storage"
	"ocht/internal/vec"
)

// TestPartitionWidthFollowsOwners pins where radix partitions exist: a
// group or join table built on one goroutine is one table whatever its
// estimate or forced width, and a table that W owner workers fill
// partition-wise has 2^core.OwnerPartitionBits(W) partitions. The keys are
// distinct and their domain bounds the group estimate far past
// partitionMinGroups.
func TestPartitionWidthFollowsOwners(t *testing.T) {
	const rows = 100_000
	k := storage.NewColumn("k", vec.I32, false)
	v := storage.NewColumn("v", vec.I64, false)
	for i := 0; i < rows; i++ {
		k.AppendInt(int64(i * 7919 % rows))
		v.AppendInt(int64(i % 100))
	}
	tab := storage.NewTable("wide", k, v)
	tab.Seal()

	for _, c := range []struct{ workers, bits, want int }{
		{1, -1, 1},
		{1, 3, 1}, // a forced width does not reach a serial table
		{2, -1, 1 << core.OwnerPartitionBits(2)},
		{4, -1, 1 << core.OwnerPartitionBits(4)},
	} {
		t.Run(fmt.Sprintf("agg/bits%d/w%d", c.bits, c.workers), func(t *testing.T) {
			sc := NewScan(tab, "k", "v")
			m := sc.Meta()
			h := NewHashAgg(sc, []string{"k"}, []*Expr{Col(m, "k")},
				[]AggExpr{{Func: agg.Sum, Arg: Col(m, "v"), Name: "s"}})
			h.PartitionBits = c.bits
			if est := h.groupEstimate(); est < partitionMinGroups {
				t.Fatalf("group estimate %d below partitionMinGroups", est)
			}
			qc := NewQCtx(core.All())
			qc.Workers = c.workers
			if res := Run(qc, h); len(res.Rows) != rows {
				t.Fatalf("%d groups, want %d", len(res.Rows), rows)
			}
			if got := len(h.Tables()); got != c.want {
				t.Fatalf("%d partitions, want %d", got, c.want)
			}
			if wise := qc.Stats.Counter(CtrPartitionWiseAggs) > 0; wise != (c.workers > 1) {
				t.Fatalf("partition-wise aggregation %v at %d workers", wise, c.workers)
			}
		})
		t.Run(fmt.Sprintf("join/bits%d/w%d", c.bits, c.workers), func(t *testing.T) {
			h := NewHashJoin(Inner, NewScan(tab, "k", "v"), NewScan(tab, "k"), []string{"k"}, []string{"k"}, nil)
			h.PartitionBits = c.bits
			qc := NewQCtx(core.All())
			qc.Workers = c.workers
			if res := Run(qc, h); len(res.Rows) != rows {
				t.Fatalf("%d matches, want %d", len(res.Rows), rows)
			}
			if got := len(h.j.Tables()); got != c.want {
				t.Fatalf("%d partitions, want %d", got, c.want)
			}
			if par := qc.Stats.Counter(CtrParallelJoinBuilds) > 0; par != (c.workers > 1) {
				t.Fatalf("parallel join build %v at %d workers", par, c.workers)
			}
		})
	}
}
