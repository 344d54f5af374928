package exec

import (
	"fmt"
	"sort"
	"testing"

	"ocht/internal/core"
	"ocht/internal/storage"
	"ocht/internal/vec"
)

// residualFixture is a build table with duplicate, partly NULL keys bk, an
// int payload bv, a 32-bit payload bc and a nullable payload bn; and a
// probe table whose keys pk partly match, partly miss and are partly
// NULL, with an int column pv and a nullable column pn. Both sides exceed
// partitionMinGroups rows, so at W > 1 the build runs partition-wise and
// the probe on worker clones of the prebuilt join.
type residualFixture struct {
	build, probe   *storage.Table
	bk, bv, bc, bn []int64 // -1 = NULL in bk and bn
	pk, pv, pn     []int64 // -1 = NULL in pk and pn
}

func newResidualFixture() *residualFixture {
	f := &residualFixture{}
	bk := storage.NewColumn("bk", vec.I64, true)
	bv := storage.NewColumn("bv", vec.I64, false)
	bc := storage.NewColumn("bc", vec.I32, false)
	bn := storage.NewColumn("bn", vec.I32, true)
	for i := int64(0); i < 20000; i++ {
		k, n := (i*7919)%6000, i%97
		appendNullable(bk, &f.bk, k, i%17 == 3)
		appendNullable(bn, &f.bn, n, i%11 == 5)
		bv.AppendInt(i)
		bc.AppendInt(i % 4)
		f.bv, f.bc = append(f.bv, i), append(f.bc, i%4)
	}
	f.build = storage.NewTable("rjbuild", bk, bv, bc, bn)
	f.build.Seal()

	pk := storage.NewColumn("pk", vec.I64, true)
	pv := storage.NewColumn("pv", vec.I64, false)
	pn := storage.NewColumn("pn", vec.I32, true)
	for j := int64(0); j < 10000; j++ {
		appendNullable(pk, &f.pk, (j*13)%7000, j%13 == 1) // keys >= 6000 miss
		appendNullable(pn, &f.pn, j%89, j%7 == 2)
		pv.AppendInt((j * 37) % 20000)
		f.pv = append(f.pv, (j*37)%20000)
	}
	f.probe = storage.NewTable("rjprobe", pk, pv, pn)
	f.probe.Seal()
	return f
}

// appendNullable appends v, or NULL (recorded as -1) when null, to the
// column and its mirror.
func appendNullable(c *storage.Column, mirror *[]int64, v int64, null bool) {
	if null {
		c.AppendNull()
		*mirror = append(*mirror, -1)
		return
	}
	c.AppendInt(v)
	*mirror = append(*mirror, v)
}

// residualCase is one residual predicate: how to bind it over the join's
// pair schema, and what it says about probe row j and build row i — TRUE,
// or FALSE/NULL (ok false).
type residualCase struct {
	name string
	bind func(pm []Meta) *Expr
	ok   func(f *residualFixture, j, i int) bool
}

var residualCases = []residualCase{
	{"ne", func(pm []Meta) *Expr { return Ne(Col(pm, "bc"), Mod(Col(pm, "pv"), Int(4))) },
		func(f *residualFixture, j, i int) bool { return f.bc[i] != f.pv[j]%4 }},
	{"lt", func(pm []Meta) *Expr { return Lt(Col(pm, "bv"), Col(pm, "pv")) },
		func(f *residualFixture, j, i int) bool { return f.bv[i] < f.pv[j] }},
	{"null", func(pm []Meta) *Expr { return Lt(Col(pm, "bn"), Col(pm, "pn")) },
		func(f *residualFixture, j, i int) bool { return f.bn[i] >= 0 && f.pn[j] >= 0 && f.bn[i] < f.pn[j] }},
}

// plan is probe ⋉ build (or ▷) on pk = bk with the case's residual.
func (f *residualFixture) plan(kind JoinKind, rc residualCase, bits int) *HashJoin {
	j := NewHashJoin(kind, NewScan(f.probe, "pk", "pv", "pn"), NewScan(f.build, "bk", "bv", "bc", "bn"),
		[]string{"pk"}, []string{"bk"}, []string{"bv", "bc", "bn"})
	j.Residual = rc.bind(j.PairMeta())
	j.PartitionBits = bits
	return j
}

// nestedLoop computes the plan's rows by testing every probe row against
// every build row with its key, rendered like sortedRows renders a Result.
func (f *residualFixture) nestedLoop(kind JoinKind, rc residualCase) []string {
	rowsOf := map[int64][]int{}
	for i, bk := range f.bk {
		if bk >= 0 {
			rowsOf[bk] = append(rowsOf[bk], i)
		}
	}
	var out []string
	for j, pk := range f.pk {
		matched := false
		for _, i := range rowsOf[pk] {
			if rc.ok(f, j, i) {
				matched = true
				break
			}
		}
		if matched == (kind == Semi) {
			out = append(out, fmt.Sprintf("%s|%d|%s|", renderKey(pk, false), f.pv[j], renderKey(f.pn[j], false)))
		}
	}
	sort.Strings(out)
	return out
}

// TestResidualJoinMatchesNestedLoop runs semi and anti joins with a
// residual — a column inequality, an ordering and one that is NULL on some
// pairs — over duplicate and NULL keys and NULL payloads, under every
// engine configuration, at forced radix widths and serially or through the
// parallel build and the workers' prebuilt probe, against a nested loop.
func TestResidualJoinMatchesNestedLoop(t *testing.T) {
	f := newResidualFixture()
	for _, kind := range []JoinKind{Semi, Anti} {
		for _, rc := range residualCases {
			want := f.nestedLoop(kind, rc)
			for fi, flags := range []core.Flags{core.Vanilla(), {UseUSSR: true}, core.All()} {
				for _, bits := range []int{0, 3} {
					for _, w := range []int{1, 4} {
						t.Run(fmt.Sprintf("kind%d/%s/flags%d/bits%d/w%d", kind, rc.name, fi, bits, w), func(t *testing.T) {
							qc := NewQCtx(flags)
							qc.Workers = w
							got := sortedRows(Run(qc, f.plan(kind, rc, bits)))
							if fmt.Sprint(got) != fmt.Sprint(want) {
								t.Fatalf("%d rows, nested loop %d", len(got), len(want))
							}
							if w > 1 && qc.Stats.Counter(CtrParallelJoinBuilds) == 0 {
								t.Fatal("the build side did not run on the workers")
							}
						})
					}
				}
			}
		}
	}
	// A cached plan template runs through ClonePlan: the residual is cloned
	// with it, and both copies give the same rows.
	tmpl := f.plan(Anti, residualCases[2], -1)
	want := f.nestedLoop(Anti, residualCases[2])
	for i := 0; i < 2; i++ {
		if got := sortedRows(Run(NewQCtx(core.All()), ClonePlan(tmpl))); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("clone %d: %d rows, nested loop %d", i, len(got), len(want))
		}
	}
}
