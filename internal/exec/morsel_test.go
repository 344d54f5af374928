package exec

import (
	"fmt"
	"testing"

	"ocht/internal/agg"
	"ocht/internal/core"
	"ocht/internal/storage"
	"ocht/internal/vec"
)

// oneBlockTable builds a table of rows rows (at most one storage block):
// an int key g, a four-value string s, a string big with a distinct entry
// per row and an int value v.
func oneBlockTable(rows int) *storage.Table {
	g := storage.NewColumn("g", vec.I32, false)
	s := storage.NewColumn("s", vec.Str, false)
	big := storage.NewColumn("big", vec.Str, false)
	v := storage.NewColumn("v", vec.I64, false)
	for i := 0; i < rows; i++ {
		g.AppendInt(int64(i*2654435761) % 300)
		s.AppendString(fmt.Sprintf("flag-%d", i%4))
		big.AppendString(fmt.Sprintf("comment %06d about nothing", i))
		v.AppendInt(int64(i%1000) - 500)
	}
	tab := storage.NewTable("one", g, s, big, v)
	tab.Seal()
	return tab
}

// TestParallelPipelineOneBlockOrder runs a pure pipeline over a one-block
// table on two workers: both take a slab of the block's morsels, and the
// concatenated output is in serial row order.
func TestParallelPipelineOneBlockOrder(t *testing.T) {
	tab := oneBlockTable(storage.BlockRows)
	plan := func() Op {
		sc := NewScan(tab, "g", "s", "v")
		m := sc.Meta()
		fl := NewFilter(sc, Gt(Col(m, "v"), Int(-400)))
		fm := fl.Meta()
		return NewProject(fl, []string{"g3", "s"}, []*Expr{Mul(Col(fm, "g"), Int(3)), Col(fm, "s")})
	}
	serial := renderedRows(Run(NewQCtx(core.All()), plan()))
	qc := NewQCtx(core.All())
	qc.Workers = 2
	got := renderedRows(Run(qc, plan()))
	if qc.WorkerFootprints() == nil {
		t.Fatal("the pipeline ran serially")
	}
	if len(got) != len(serial) {
		t.Fatalf("%d rows, serial %d", len(got), len(serial))
	}
	for i := range got {
		if got[i] != serial[i] {
			t.Fatalf("row %d: %s vs serial %s", i, got[i], serial[i])
		}
	}
}

// TestParallelAggOneBlockFeedsBothWorkers clones a two-worker aggregation
// over a one-block table the way the driver does and pulls both clones'
// inputs in turn: each worker context receives rows, together exactly the
// table's. The parallel run's answer matches the serial one.
func TestParallelAggOneBlockFeedsBothWorkers(t *testing.T) {
	tab := oneBlockTable(storage.BlockRows)
	plan := func() Op {
		sc := NewScan(tab, "g", "s", "v")
		m := sc.Meta()
		return NewHashAgg(sc, []string{"g", "s"}, []*Expr{Col(m, "g"), Col(m, "s")},
			[]AggExpr{{Func: agg.Sum, Arg: Col(m, "v"), Name: "sum_v"}, {Func: agg.CountStar, Name: "n"}})
	}

	sp, ok := analyze(plan())
	if !ok || sp.frontier == nil {
		t.Fatal("plan has no aggregation frontier")
	}
	qc := NewQCtx(core.All())
	wqcs := forkCtx(qc, 2)
	morsels := sp.morsels(2)
	inputs := make([]Op, 2)
	for i := range inputs {
		inputs[i] = clonePipeline(sp.frontier, morsels, i).(*HashAgg).Child
		inputs[i].Open(wqcs[i])
	}
	var rows [2]int
	for live := 2; live > 0; {
		live = 0
		for i, in := range inputs {
			if b := in.Next(wqcs[i]); b != nil {
				rows[i] += b.N
				live++
			}
		}
	}
	if rows[0] == 0 || rows[1] == 0 || rows[0]+rows[1] != tab.Rows() {
		t.Fatalf("workers received %v rows of %d", rows, tab.Rows())
	}

	serial := sortedRows(Run(NewQCtx(core.All()), plan()))
	par := NewQCtx(core.All())
	par.Workers = 2
	got := sortedRows(Run(par, plan()))
	if len(got) != len(serial) {
		t.Fatalf("%d groups, serial %d", len(got), len(serial))
	}
	for i := range got {
		if got[i] != serial[i] {
			t.Fatalf("group %d: %s vs serial %s", i, got[i], serial[i])
		}
	}
}

// TestWarmOnlyHashedKeys pins what the parallel driver puts into the USSR
// before it freezes the region: the dictionaries of columns hashed as keys,
// and not those of a column only a LIKE filter reads — here one with a
// distinct entry per row, more than 60 000, which would fill the region.
func TestWarmOnlyHashedKeys(t *testing.T) {
	tab := oneBlockTable(storage.BlockRows)
	sc := NewScan(tab, "s", "big")
	m := sc.Meta()
	fl := NewFilter(sc, Like(Col(m, "big"), "%7%"))
	fm := fl.Meta()
	plan := NewHashAgg(fl, []string{"s"}, []*Expr{Col(fm, "s")},
		[]AggExpr{{Func: agg.CountStar, Name: "n"}})

	qc := NewQCtx(core.All())
	qc.Workers = 2
	res := Run(qc, plan)
	if len(res.Rows) != 4 || qc.WorkerFootprints() == nil {
		t.Fatalf("%d groups, footprints %v: want 4 groups from a parallel run", len(res.Rows), qc.WorkerFootprints())
	}
	for i := 0; i < 4; i++ {
		if _, ok := qc.Store.U.Lookup(fmt.Sprintf("flag-%d", i)); !ok {
			t.Errorf("group key flag-%d is not USSR-resident", i)
		}
	}
	resident := 0
	for i := 0; i < tab.Rows(); i++ {
		if _, ok := qc.Store.U.Lookup(fmt.Sprintf("comment %06d about nothing", i)); ok {
			resident++
		}
	}
	if resident != 0 {
		t.Errorf("%d entries of the filter-only column are USSR-resident", resident)
	}
}

// TestWarmKeysStayUSSRCoded is the TPC-H Q1 shape on two workers: a
// group-by on bare string columns, renamed by a projection, over a
// multi-block table. Its keys must be warmed, so they are USSR slot codes
// and no key is an exception (slot code 0), whose hash goes through the
// string store's heap path. A join payload column used as a group key is
// followed through the join.
func TestWarmKeysStayUSSRCoded(t *testing.T) {
	fact, dim := buildFixture(150_000)
	sc := NewScan(fact, "s", "g", "v")
	m := sc.Meta()
	pr := NewProject(sc, []string{"flag", "v"}, []*Expr{Col(m, "s"), Col(m, "v")})
	pm := pr.Meta()
	q1 := NewHashAgg(pr, []string{"flag"}, []*Expr{Col(pm, "flag")},
		[]AggExpr{{Func: agg.Sum, Arg: Col(pm, "v"), Name: "sum_v"}, {Func: agg.CountStar, Name: "n"}})

	for name, plan := range map[string]Op{"q1": q1, "join-payload": joinAggPlan(fact, dim)} {
		qc := NewQCtx(core.All())
		qc.Workers = 2
		Run(qc, plan)
		if qc.WorkerFootprints() == nil {
			t.Fatalf("%s: ran serially", name)
		}
		if qc.Store.HashSlow != 0 {
			t.Errorf("%s: %d key hashes of heap strings: keys fell to the exception path", name, qc.Store.HashSlow)
		}
	}
}
