package exec

import (
	"testing"

	"ocht/internal/agg"
	"ocht/internal/core"
	"ocht/internal/storage"
	"ocht/internal/vec"
)

// scanConfigs are the compressed-execution knob settings every plan in
// this file is checked under: the default (encoded blocks, zone skipping),
// each knob alone, and the fully materialized fallback. All must agree.
func scanConfigs() map[string]func(*QCtx) {
	return map[string]func(*QCtx){
		"compressed":   func(qc *QCtx) {},
		"noskip":       func(qc *QCtx) { qc.DisableZoneSkip = true },
		"eager":        func(qc *QCtx) { qc.EagerMaterialize = true },
		"eager-noskip": func(qc *QCtx) { qc.EagerMaterialize = true; qc.DisableZoneSkip = true },
	}
}

func runScanConfigs(t *testing.T, build func() Op) map[string]*Result {
	t.Helper()
	results := map[string]*Result{}
	for name, tune := range scanConfigs() {
		qc := NewQCtx(core.All())
		tune(qc)
		results[name] = Run(qc, build())
	}
	return results
}

// TestCompressedMatchesEager drives plans whose inputs hit every encoded
// path — pack-domain comparisons, dictionary-code pre-filtering, late
// materialization in joins and aggregates — and checks the compressed
// pipeline against the eager-materialize oracle.
func TestCompressedMatchesEager(t *testing.T) {
	tab := salesTable(20_000)
	dim, fact := buildJoinTables()
	plans := map[string]func() Op{
		// Pack-domain integer compare + dictionary-code string compare.
		"filter-project": func() Op {
			scan := NewScan(tab, "region", "qty", "price")
			m := scan.Meta()
			f := NewFilter(scan, And(Gt(Col(m, "qty"), Int(25)), Eq(Col(m, "region"), Str("north"))))
			return NewProject(f, []string{"qty", "revenue"}, []*Expr{
				Col(m, "qty"),
				Mul(Col(m, "qty"), Col(m, "price")),
			})
		},
		// Constant outside the pack domain: verdict is decided without
		// touching a single packed word.
		"filter-out-of-domain": func() Op {
			scan := NewScan(tab, "qty")
			m := scan.Meta()
			return NewFilter(scan, Or(Gt(Col(m, "qty"), Int(1_000_000)), Lt(Col(m, "qty"), Int(-5))))
		},
		// Dictionary code absent from the block: constant-false fast path.
		"filter-absent-dict-code": func() Op {
			scan := NewScan(tab, "region", "qty")
			m := scan.Meta()
			return NewFilter(scan, Ne(Col(m, "region"), Str("atlantis")))
		},
		// LIKE over a nullable dictionary column: per-code verdict table
		// plus NULL handling.
		"like-nullable-dict": func() Op {
			scan := NewScan(tab, "note", "qty")
			m := scan.Meta()
			return NewFilter(scan, Like(Col(m, "note"), "note-1%"))
		},
		// Join keys arrive packed (fact.fk) and the payload is a dict
		// string: both sides materialize late at the operator boundary.
		"join": func() Op {
			return NewHashJoin(Inner,
				NewScan(fact, "fk", "val"),
				NewScan(dim, "id", "name"),
				[]string{"fk"}, []string{"id"}, []string{"name"})
		},
		// Aggregate with a dict group key and packed aggregate inputs.
		"agg": func() Op {
			scan := NewScan(tab, "region", "qty", "price")
			m := scan.Meta()
			return NewHashAgg(scan,
				[]string{"region"}, []*Expr{Col(m, "region")},
				[]AggExpr{
					{Func: agg.Sum, Arg: Mul(Col(m, "qty"), Col(m, "price")), Name: "rev"},
					{Func: agg.Min, Arg: Col(m, "qty"), Name: "min_qty"},
					{Func: agg.CountStar, Name: "cnt"},
				})
		},
		// Nullable dict key: NULL groups must survive code-path switches.
		"agg-nullable-key": func() Op {
			scan := NewScan(tab, "note")
			m := scan.Meta()
			return NewHashAgg(scan,
				[]string{"note"}, []*Expr{Col(m, "note")},
				[]AggExpr{{Func: agg.CountStar, Name: "cnt"}})
		},
	}
	for name, build := range plans {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			results := runScanConfigs(t, build)
			var ref []string
			var refName string
			for cfg, r := range results {
				got := sortedRows(r)
				if ref == nil {
					ref, refName = got, cfg
					continue
				}
				if len(ref) != len(got) {
					t.Fatalf("%s: %d rows vs %s: %d rows", refName, len(ref), cfg, len(got))
				}
				for i := range ref {
					if ref[i] != got[i] {
						t.Fatalf("row %d differs between %s and %s:\n  %s\n  %s",
							i, refName, cfg, ref[i], got[i])
					}
				}
			}
			if name == "filter-out-of-domain" && len(results["compressed"].Rows) != 0 {
				t.Fatal("out-of-domain predicate must select nothing")
			}
			if name == "filter-absent-dict-code" && len(results["compressed"].Rows) != 20_000 {
				t.Fatal("NE against an absent dictionary code must keep every row")
			}
		})
	}
}

// sortedTable builds blocks*BlockRows rows of a sorted key so each block's
// zone map covers a disjoint range — the shape zone skipping is built for.
func sortedTable(blocks int) *storage.Table {
	id := storage.NewColumn("id", vec.I64, false)
	grp := storage.NewColumn("grp", vec.Str, false)
	names := []string{"g0", "g1", "g2", "g3"}
	n := blocks * storage.BlockRows
	for i := 0; i < n; i++ {
		id.AppendInt(int64(i))
		grp.AppendString(names[i%len(names)])
	}
	t := storage.NewTable("sorted", id, grp)
	t.Seal()
	return t
}

// TestZoneSkipBlocks checks that a pushed-down predicate skips exactly the
// blocks its range excludes, that DisableZoneSkip restores full reads, and
// that the answer is identical either way.
func TestZoneSkipBlocks(t *testing.T) {
	tab := sortedTable(3)
	lo := int64(2 * storage.BlockRows) // entirely inside the last block
	build := func() Op {
		scan := NewScan(tab, "id", "grp")
		m := scan.Meta()
		return NewFilter(scan, Ge(Col(m, "id"), Int(lo)))
	}

	qc := NewQCtx(core.All())
	res := Run(qc, build())
	if got := len(res.Rows); got != storage.BlockRows {
		t.Fatalf("filter kept %d rows, want %d", got, storage.BlockRows)
	}
	if skipped := qc.Stats.Counter(CtrBlocksSkipped); skipped != 2 {
		t.Fatalf("zone map skipped %d blocks, want 2", skipped)
	}
	if read := qc.Stats.Counter(CtrBlocksRead); read != 1 {
		t.Fatalf("read %d blocks, want 1", read)
	}

	off := NewQCtx(core.All())
	off.DisableZoneSkip = true
	resOff := Run(off, build())
	if skipped := off.Stats.Counter(CtrBlocksSkipped); skipped != 0 {
		t.Fatalf("DisableZoneSkip still skipped %d blocks", skipped)
	}
	if read := off.Stats.Counter(CtrBlocksRead); read != 3 {
		t.Fatalf("DisableZoneSkip read %d blocks, want 3", read)
	}
	if len(resOff.Rows) != len(res.Rows) {
		t.Fatalf("skipping changed the answer: %d vs %d rows", len(res.Rows), len(resOff.Rows))
	}

	// A contradictory range skips everything and returns nothing.
	empty := NewQCtx(core.All())
	resEmpty := Run(empty, NewFilter(NewScan(tab, "id"), func() *Expr {
		m := NewScan(tab, "id").Meta()
		return Lt(Col(m, "id"), Int(0))
	}()))
	if len(resEmpty.Rows) != 0 {
		t.Fatalf("contradictory predicate returned %d rows", len(resEmpty.Rows))
	}
	if skipped := empty.Stats.Counter(CtrBlocksSkipped); skipped != 3 {
		t.Fatalf("contradictory predicate skipped %d blocks, want 3", skipped)
	}
}

// TestZoneSkipParallel checks that skip/read counters merged across
// workers account for every block exactly once per morsel pass and the
// parallel answer matches serial.
func TestZoneSkipParallel(t *testing.T) {
	tab := sortedTable(3)
	lo := int64(2 * storage.BlockRows)
	build := func() Op {
		scan := NewScan(tab, "id", "grp")
		m := scan.Meta()
		f := NewFilter(scan, Ge(Col(m, "id"), Int(lo)))
		return NewHashAgg(f, []string{"grp"}, []*Expr{Col(f.Meta(), "grp")},
			[]AggExpr{{Func: agg.CountStar, Name: "cnt"}})
	}
	serial := Run(NewQCtx(core.All()), build())
	for _, workers := range []int{2, 4, 8} {
		qc := NewQCtx(core.All())
		qc.Workers = workers
		got := Run(qc, build())
		a, b := sortedRows(serial), sortedRows(got)
		if len(a) != len(b) {
			t.Fatalf("w=%d: %d groups vs %d serial", workers, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("w=%d row %d: %s vs %s", workers, i, b[i], a[i])
			}
		}
		read := qc.Stats.Counter(CtrBlocksRead)
		skipped := qc.Stats.Counter(CtrBlocksSkipped)
		if read+skipped != 3 {
			t.Fatalf("w=%d: read %d + skipped %d != 3 blocks", workers, read, skipped)
		}
		if skipped == 0 {
			t.Fatalf("w=%d: no blocks skipped", workers)
		}
	}
}

// TestScanNextSteadyStateAllocs pins the block-view reuse contract: after
// the first batch of a block, pulling further batches from a scan performs
// zero allocations — windows are re-sliced into scratch vectors.
func TestScanNextSteadyStateAllocs(t *testing.T) {
	tab := sortedTable(1)
	scan := NewScan(tab, "id", "grp")
	qc := NewQCtx(core.All())
	scan.Open(qc)
	if b := scan.Next(qc); b == nil {
		t.Fatal("first batch is nil")
	}
	// Stay inside the first block (64 batches of 1024): the per-block
	// view setup ran once above; steady-state windowing must not allocate.
	allocs := testing.AllocsPerRun(40, func() {
		if b := scan.Next(qc); b == nil {
			t.Fatal("scan exhausted during steady-state measurement")
		}
	})
	if allocs != 0 {
		t.Fatalf("Scan.Next allocates %v times per batch in steady state, want 0", allocs)
	}
}

// TestScanCrossBlockAllocs bounds the per-block cost: crossing a block
// boundary reuses the view scratch (only a string column's code table is
// new per block), so draining a multi-block table after warm-up stays
// allocation-free per batch as well.
func TestScanCrossBlockAllocs(t *testing.T) {
	tab := sortedTable(2)
	scan := NewScan(tab, "id", "grp")
	qc := NewQCtx(core.All())
	scan.Open(qc)
	// Warm one full block plus the first batch of the second, so every
	// lazily-grown scratch reaches final size.
	warm := storage.BlockRows/vec.Size + 1
	for i := 0; i < warm; i++ {
		if scan.Next(qc) == nil {
			t.Fatal("table too small for warm-up")
		}
	}
	allocs := testing.AllocsPerRun(40, func() {
		if b := scan.Next(qc); b == nil {
			t.Fatal("scan exhausted during measurement")
		}
	})
	if allocs != 0 {
		t.Fatalf("Scan.Next allocates %v times per batch after block crossing, want 0", allocs)
	}
}

// TestDictCompareAcrossBlocks filters a string column whose two blocks
// hold the same three strings under different dictionary codes, so the
// code tables have equal length. A comparison's or LIKE's per-code
// verdict table must be rebuilt for every block.
func TestDictCompareAcrossBlocks(t *testing.T) {
	defer storage.SetSealCompression(storage.SealCompression())
	storage.SetSealCompression(storage.CompressOff) // plain dictionaries, codes in first-seen order
	tag := storage.NewColumn("tag", vec.Str, false)
	want := 0
	for _, names := range [][]string{{"a", "b", "c"}, {"c", "a", "a", "a", "b"}} {
		for i := 0; i < storage.BlockRows; i++ {
			tag.AppendString(names[i%len(names)])
			if names[i%len(names)] == "b" {
				want++
			}
		}
	}
	tab := storage.NewTable("tags", tag)
	tab.Seal()
	for name, pred := range map[string]func([]Meta) *Expr{
		"eq":   func(m []Meta) *Expr { return Eq(Col(m, "tag"), Str("b")) },
		"like": func(m []Meta) *Expr { return Like(Col(m, "tag"), "b%") },
	} {
		for _, flags := range []core.Flags{core.Vanilla(), core.All()} {
			scan := NewScan(tab, "tag")
			res := Run(NewQCtx(flags), NewFilter(scan, pred(scan.Meta())))
			if len(res.Rows) != want {
				t.Errorf("%s %+v: %d rows, want %d", name, flags, len(res.Rows), want)
			}
		}
	}
}
