package exec

import (
	"fmt"
	"sort"
	"testing"

	"ocht/internal/core"
	"ocht/internal/storage"
	"ocht/internal/vec"
)

// partitionFixture builds a multi-block probe table with a nullable join
// key (every 13th row NULL) and a build-side dimension big enough to pass
// the compression gate. Half the probe keys have no build match, so the
// selective kinds exercise the Bloom pre-pass.
func partitionFixture(probeRows, buildRows int) (*storage.Table, *storage.Table) {
	fk := storage.NewColumn("fk", vec.I32, true)
	v := storage.NewColumn("v", vec.I64, false)
	for i := 0; i < probeRows; i++ {
		if k, ok := partitionKey(i, buildRows); ok {
			fk.AppendInt(k)
		} else {
			fk.AppendNull()
		}
		v.AppendInt(partitionVal(i))
	}
	fact := storage.NewTable("pfact", fk, v)
	fact.Seal()

	bk := storage.NewColumn("bk", vec.I32, false)
	bn := storage.NewColumn("bn", vec.Str, false)
	for i := 0; i < buildRows; i++ {
		bk.AppendInt(int64(i))
		bn.AppendString(partitionName(i))
	}
	dim := storage.NewTable("pdim", bk, bn)
	dim.Seal()
	return fact, dim
}

// partitionKey is probe row i's join key; ok is false for a NULL key.
func partitionKey(i, buildRows int) (k int64, ok bool) {
	if i%13 == 0 {
		return 0, false
	}
	return int64(i*2654435761) % int64(2*buildRows), true
}

func partitionVal(i int) int64 { return int64(i%1000) - 500 }

// partitionName is build row i's payload; its key is i.
func partitionName(i int) string { return fmt.Sprintf("d-%05d", i) }

// referenceJoin computes partitionJoinPlan's answer row at a time from the
// fixture's generating functions, with a Go map for the build side: NULL
// keys match nothing (so Anti keeps them and LeftOuter pads them), and
// rows render as sortedRows renders them.
func referenceJoin(probeRows, buildRows int, kind JoinKind) []string {
	dim := make(map[int64][]string, buildRows)
	for i := 0; i < buildRows; i++ {
		dim[int64(i)] = append(dim[int64(i)], partitionName(i))
	}
	var out []string
	for i := 0; i < probeRows; i++ {
		k, ok := partitionKey(i, buildRows)
		row := "NULL|"
		var names []string
		if ok {
			row = fmt.Sprintf("%d|", k)
			names = dim[k]
		}
		row += fmt.Sprintf("%d|", partitionVal(i))
		switch kind {
		case Semi, Anti:
			if (len(names) > 0) == (kind == Semi) {
				out = append(out, row)
			}
		default:
			for _, n := range names {
				out = append(out, row+n+"|")
			}
			if kind == LeftOuter && len(names) == 0 {
				out = append(out, row+"NULL|")
			}
		}
	}
	sort.Strings(out)
	return out
}

func partitionJoinPlan(fact, dim *storage.Table, kind JoinKind, bits int) Op {
	sc := NewScan(fact, "fk", "v")
	dsc := NewScan(dim, "bk", "bn")
	var payload []string
	if kind == Inner || kind == LeftOuter {
		payload = []string{"bn"}
	}
	j := NewHashJoin(kind, sc, dsc, []string{"fk"}, []string{"bk"}, payload)
	j.PartitionBits = bits
	return j
}

// TestPartitionedJoinMatchesMonolithic drives every join kind over NULL
// probe keys for each radix width and worker count, against a Go-map
// reference join: no width, worker count or Bloom pre-pass may change the
// match multiset. A serial build is one table whatever its width, so the
// one-worker cells at widths 3, 6 and -1 pin that a forced width leaves a
// serial run unchanged.
func TestPartitionedJoinMatchesMonolithic(t *testing.T) {
	const probeRows, buildRows = 150_000, 4000
	fact, dim := partitionFixture(probeRows, buildRows)
	kinds := []struct {
		name string
		kind JoinKind
	}{
		{"inner", Inner}, {"semi", Semi}, {"anti", Anti}, {"leftouter", LeftOuter},
	}
	for _, k := range kinds {
		want := referenceJoin(probeRows, buildRows, k.kind)
		if len(want) == 0 {
			t.Fatalf("%s reference found no rows", k.name)
		}
		for fi, flags := range []core.Flags{core.Vanilla(), core.All()} {
			for _, bits := range []int{0, 3, 6, -1} {
				for _, workers := range []int{1, 2, 4, 8} {
					t.Run(fmt.Sprintf("flags%d/%s/bits%d/w%d", fi, k.name, bits, workers), func(t *testing.T) {
						qc := NewQCtx(flags)
						qc.Workers = workers
						got := sortedRows(Run(qc, partitionJoinPlan(fact, dim, k.kind, bits)))
						if len(got) != len(want) {
							t.Fatalf("%d rows, reference %d", len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("row %d:\n got       %s\n reference %s", i, got[i], want[i])
							}
						}
					})
				}
			}
		}
	}
}

// TestPartitionedAggMatchesMonolithic pins the aggregation path the same
// way: explicit radix widths at several worker counts must reproduce the
// monolithic serial groups, including emission order (checked unsorted).
func TestPartitionedAggMatchesMonolithic(t *testing.T) {
	fact, _ := buildFixture(150_000)
	mkPlan := func(bits int) Op {
		p := aggPlan(fact).(*HashAgg)
		p.PartitionBits = bits
		return p
	}
	oracle := renderedRows(Run(NewQCtx(core.All()), mkPlan(0)))
	for _, bits := range []int{0, 3, 6, -1} {
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("bits%d/w%d", bits, workers), func(t *testing.T) {
				qc := NewQCtx(core.All())
				qc.Workers = workers
				var got []string
				if workers == 1 {
					// Serial runs must preserve the monolithic emission
					// order exactly; parallel merges only the multiset.
					got = renderedRows(Run(qc, mkPlan(bits)))
				} else {
					got = sortedRows(Run(qc, mkPlan(bits)))
				}
				want := oracle
				if workers > 1 {
					want = sortedRows(Run(NewQCtx(core.All()), mkPlan(0)))
				}
				if len(got) != len(want) {
					t.Fatalf("%d rows, oracle %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("row %d:\n got    %s\n oracle %s", i, got[i], want[i])
					}
				}
			})
		}
	}
}
