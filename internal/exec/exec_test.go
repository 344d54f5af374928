package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ocht/internal/agg"
	"ocht/internal/core"
	"ocht/internal/i128"
	"ocht/internal/storage"
	"ocht/internal/vec"
)

var allFlags = []core.Flags{
	{},
	{Compress: true},
	{UseUSSR: true},
	{Split: true},
	{Compress: true, Split: true},
	core.All(),
}

func flagName(f core.Flags) string {
	return fmt.Sprintf("c%v-s%v-u%v", f.Compress, f.Split, f.UseUSSR)
}

// fixtures

func salesTable(n int) *storage.Table {
	region := storage.NewColumn("region", vec.Str, false)
	qty := storage.NewColumn("qty", vec.I32, false)
	price := storage.NewColumn("price", vec.I64, false)
	note := storage.NewColumn("note", vec.Str, true)
	regions := []string{"north", "south", "east", "west"}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < n; i++ {
		region.AppendString(regions[i%len(regions)])
		qty.AppendInt(int64(rng.Intn(50)) + 1)
		price.AppendInt(int64(rng.Intn(10000)) + 100)
		if i%7 == 0 {
			note.AppendNull()
		} else {
			note.AppendString(fmt.Sprintf("note-%d", i%10))
		}
	}
	t := storage.NewTable("sales", region, qty, price, note)
	t.Seal()
	return t
}

func runAll(t *testing.T, build func() Op) map[string]*Result {
	t.Helper()
	results := map[string]*Result{}
	for _, f := range allFlags {
		qc := NewQCtx(f)
		res := Run(qc, build())
		results[flagName(f)] = res
	}
	return results
}

// sortedRows renders rows as sorted strings for order-insensitive
// comparison.
func sortedRows(r *Result) []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		s := ""
		for _, v := range row {
			s += v.String() + "|"
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func assertAllEqual(t *testing.T, results map[string]*Result) {
	t.Helper()
	var ref []string
	var refName string
	for name, r := range results {
		got := sortedRows(r)
		if ref == nil {
			ref, refName = got, name
			continue
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("results differ between %s and %s:\n%v\nvs\n%v", refName, name, ref, got)
		}
	}
}

func TestScanFilterProject(t *testing.T) {
	tab := salesTable(5000)
	results := runAll(t, func() Op {
		scan := NewScan(tab, "region", "qty", "price")
		m := scan.Meta()
		f := NewFilter(scan, And(Gt(Col(m, "qty"), Int(25)), Eq(Col(m, "region"), Str("north"))))
		return NewProject(f, []string{"qty", "revenue"}, []*Expr{
			Col(m, "qty"),
			Mul(Col(m, "qty"), Col(m, "price")),
		})
	})
	assertAllEqual(t, results)
	// Spot-check against a scalar reimplementation.
	r := results["c%v-s%v-u%v"]
	_ = r
	any := results[flagName(core.All())]
	if len(any.Rows) == 0 {
		t.Fatal("filter killed everything")
	}
	for _, row := range any.Rows {
		if row[0].I <= 25 {
			t.Fatal("filter violated")
		}
	}
}

func TestGroupByStringKey(t *testing.T) {
	tab := salesTable(20_000)
	results := runAll(t, func() Op {
		scan := NewScan(tab, "region", "qty")
		m := scan.Meta()
		return NewHashAgg(scan,
			[]string{"region"}, []*Expr{Col(m, "region")},
			[]AggExpr{
				{Func: agg.Sum, Arg: Col(m, "qty"), Name: "sum_qty"},
				{Func: agg.CountStar, Name: "cnt"},
				{Func: agg.Min, Arg: Col(m, "qty"), Name: "min_qty"},
				{Func: agg.Max, Arg: Col(m, "qty"), Name: "max_qty"},
				{Func: Avg, Arg: Col(m, "qty"), Name: "avg_qty"},
			})
	})
	assertAllEqual(t, results)
	r := results[flagName(core.Flags{})]
	if len(r.Rows) != 4 {
		t.Fatalf("expected 4 regions, got %d", len(r.Rows))
	}
	var total int64
	for _, row := range r.Rows {
		total += row[2].I // cnt
	}
	if total != 20_000 {
		t.Fatalf("counts sum to %d", total)
	}
}

func TestGroupByNullableKey(t *testing.T) {
	tab := salesTable(10_000)
	results := runAll(t, func() Op {
		scan := NewScan(tab, "note")
		m := scan.Meta()
		return NewHashAgg(scan,
			[]string{"note"}, []*Expr{Col(m, "note")},
			[]AggExpr{{Func: agg.CountStar, Name: "cnt"}})
	})
	assertAllEqual(t, results)
	r := results[flagName(core.All())]
	// 10 distinct notes + the NULL group.
	if len(r.Rows) != 11 {
		t.Fatalf("expected 11 groups, got %d:\n%s", len(r.Rows), r)
	}
	nullCnt := int64(0)
	for _, row := range r.Rows {
		if row[0].Null {
			nullCnt = row[1].I
		}
	}
	// i%7==0 for i in [0,10000): 1429 rows.
	if nullCnt != 1429 {
		t.Fatalf("NULL group count %d", nullCnt)
	}
}

func TestNullableIntKeyAndAggregateSkipsNulls(t *testing.T) {
	v := storage.NewColumn("v", vec.I64, true)
	k := storage.NewColumn("k", vec.I64, true)
	// k: 0,1,NULL cycling; v: NULL every 4th.
	for i := 0; i < 1200; i++ {
		switch i % 3 {
		case 2:
			k.AppendNull()
		default:
			k.AppendInt(int64(i % 3))
		}
		if i%4 == 0 {
			v.AppendNull()
		} else {
			v.AppendInt(1)
		}
	}
	tab := storage.NewTable("t", k, v)
	tab.Seal()
	results := runAll(t, func() Op {
		scan := NewScan(tab, "k", "v")
		m := scan.Meta()
		return NewHashAgg(scan,
			[]string{"k"}, []*Expr{Col(m, "k")},
			[]AggExpr{
				{Func: agg.Count, Arg: Col(m, "v"), Name: "cnt_v"},
				{Func: agg.CountStar, Name: "cnt"},
			})
	})
	assertAllEqual(t, results)
	r := results[flagName(core.Flags{Compress: true})]
	if len(r.Rows) != 3 {
		t.Fatalf("expected 3 groups (0, 1, NULL), got %d:\n%s", len(r.Rows), r)
	}
	for _, row := range r.Rows {
		if row[1].I >= row[2].I {
			t.Fatalf("COUNT(v) must be below COUNT(*) (NULLs skipped): %s", r)
		}
	}
}

func buildJoinTables() (*storage.Table, *storage.Table) {
	// dim: 100 rows (id, name); fact: 5000 rows (fk, val), fk in [0,150)
	// so ~1/3 of fact rows miss.
	id := storage.NewColumn("id", vec.I64, false)
	name := storage.NewColumn("name", vec.Str, false)
	for i := 0; i < 100; i++ {
		id.AppendInt(int64(i))
		name.AppendString(fmt.Sprintf("dim-%02d", i))
	}
	dim := storage.NewTable("dim", id, name)
	dim.Seal()

	fk := storage.NewColumn("fk", vec.I64, false)
	val := storage.NewColumn("val", vec.I64, false)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		fk.AppendInt(int64(rng.Intn(150)))
		val.AppendInt(int64(i))
	}
	fact := storage.NewTable("fact", fk, val)
	fact.Seal()
	return dim, fact
}

func TestHashJoinInner(t *testing.T) {
	dim, fact := buildJoinTables()
	results := runAll(t, func() Op {
		return NewHashJoin(Inner,
			NewScan(fact, "fk", "val"),
			NewScan(dim, "id", "name"),
			[]string{"fk"}, []string{"id"}, []string{"name"})
	})
	assertAllEqual(t, results)
	r := results[flagName(core.All())]
	// Expected matches: fact rows with fk < 100.
	want := 0
	qc := NewQCtx(core.Vanilla())
	full := Run(qc, NewScan(fact, "fk"))
	for _, row := range full.Rows {
		if row[0].I < 100 {
			want++
		}
	}
	if len(r.Rows) != want {
		t.Fatalf("join found %d rows, want %d", len(r.Rows), want)
	}
	for _, row := range r.Rows {
		wantName := fmt.Sprintf("dim-%02d", row[0].I)
		if row[2].S != wantName {
			t.Fatalf("payload %q for fk %d", row[2].S, row[0].I)
		}
	}
}

func TestHashJoinSemiAnti(t *testing.T) {
	dim, fact := buildJoinTables()
	semi := runAll(t, func() Op {
		return NewHashJoin(Semi,
			NewScan(fact, "fk", "val"),
			NewScan(dim, "id"),
			[]string{"fk"}, []string{"id"}, nil)
	})
	assertAllEqual(t, semi)
	anti := runAll(t, func() Op {
		return NewHashJoin(Anti,
			NewScan(fact, "fk", "val"),
			NewScan(dim, "id"),
			[]string{"fk"}, []string{"id"}, nil)
	})
	assertAllEqual(t, anti)
	nSemi := len(semi[flagName(core.All())].Rows)
	nAnti := len(anti[flagName(core.All())].Rows)
	if nSemi+nAnti != 5000 {
		t.Fatalf("semi %d + anti %d != 5000", nSemi, nAnti)
	}
	if nSemi == 0 || nAnti == 0 {
		t.Fatal("both sides must be non-empty")
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	dim, fact := buildJoinTables()
	results := runAll(t, func() Op {
		return NewHashJoin(LeftOuter,
			NewScan(fact, "fk", "val"),
			NewScan(dim, "id", "name"),
			[]string{"fk"}, []string{"id"}, []string{"name"})
	})
	assertAllEqual(t, results)
	r := results[flagName(core.Flags{Compress: true})]
	if len(r.Rows) != 5000 {
		t.Fatalf("left outer must keep all %d probe rows, got %d", 5000, len(r.Rows))
	}
	nulls := 0
	for _, row := range r.Rows {
		if row[2].Null {
			nulls++
			if row[0].I < 100 {
				t.Fatal("matched row emitted with NULL payload")
			}
		}
	}
	if nulls == 0 {
		t.Fatal("expected NULL payloads for fk >= 100")
	}
}

func TestLikeAndCase(t *testing.T) {
	tab := salesTable(2000)
	results := runAll(t, func() Op {
		scan := NewScan(tab, "region", "qty")
		m := scan.Meta()
		proj := NewProject(scan, []string{"is_no", "qty2"}, []*Expr{
			Like(Col(m, "region"), "no%"),
			Case(Eq(Col(m, "region"), Str("north")), Col(m, "qty"), Int(0)),
		})
		pm := proj.Meta()
		return NewHashAgg(proj, nil, nil, []AggExpr{
			{Func: agg.Sum, Arg: Col(pm, "qty2"), Name: "north_qty"},
			{Func: agg.CountStar, Name: "cnt"},
		})
	})
	assertAllEqual(t, results)
}

func TestResultOrderLimit(t *testing.T) {
	tab := salesTable(1000)
	qc := NewQCtx(core.All())
	scan := NewScan(tab, "region", "qty")
	m := scan.Meta()
	h := NewHashAgg(scan, []string{"region"}, []*Expr{Col(m, "region")},
		[]AggExpr{{Func: agg.Sum, Arg: Col(m, "qty"), Name: "s"}})
	r := RunSorted(qc, h, []SortKey{{Col: 1, Desc: true}}, 2)
	if len(r.Rows) != 2 {
		t.Fatal("limit")
	}
	if r.Rows[0][1].Less(r.Rows[1][1]) {
		t.Fatal("descending order violated")
	}
}

// referenceOrderLimit is the result tail every caller carried before the
// sink existed, kept verbatim as the oracle of TestSinkMatchesSortThenCut:
// box every row, stable-sort with the keys-then-all-columns closure, cut.
// (It orders floats with `<`, so inputs sorted through it hold no NaN.)
func referenceOrderLimit(rows [][]Value, keys []SortKey, limit int) [][]Value {
	rows = append([][]Value(nil), rows...)
	less := func(a, b Value) bool {
		if a.Null != b.Null {
			return a.Null
		}
		switch a.Typ {
		case vec.F64:
			return a.F < b.F
		case vec.Str:
			return a.S < b.S
		case vec.I128:
			return i128.Cmp(a.I128, b.I128) < 0
		default:
			return a.I < b.I
		}
	}
	if len(keys) > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			for _, k := range keys {
				a, b := rows[i][k.Col], rows[j][k.Col]
				if less(a, b) {
					return !k.Desc
				}
				if less(b, a) {
					return k.Desc
				}
			}
			for c := range rows[i] {
				a, b := rows[i][c], rows[j][c]
				if less(a, b) {
					return true
				}
				if less(b, a) {
					return false
				}
			}
			return false
		})
	}
	if limit >= 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return rows
}

// sinkFixture spans three storage blocks (of four pipeline workers one gets
// an empty range) with a column of every integer width, a DOUBLE and two
// string columns: s repeats 13 short values (USSR-resident), u draws from
// 40 000 values of 40 bytes, so even the entries of the rows a filter keeps
// outgrow the USSR and u's references are a mix of resident and
// heap-backed. Every column but h, q and u holds NULLs and all but q tie
// heavily.
func sinkFixture() *storage.Table {
	b := storage.NewColumn("b", vec.I8, true)
	h := storage.NewColumn("h", vec.I16, false)
	w := storage.NewColumn("w", vec.I32, true)
	q := storage.NewColumn("q", vec.I64, false)
	f := storage.NewColumn("f", vec.F64, true)
	s := storage.NewColumn("s", vec.Str, true)
	u := storage.NewColumn("u", vec.Str, false)
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 2*storage.BlockRows+1000; i++ {
		if x := rng.Intn(9); x == 0 {
			b.AppendNull()
		} else {
			b.AppendInt(int64(x - 4))
		}
		h.AppendInt(int64(rng.Intn(1000)))
		if x := rng.Intn(40); x == 0 {
			w.AppendNull()
		} else {
			w.AppendInt(int64(x) * 100_000)
		}
		q.AppendInt(rng.Int63n(1<<50) - 1<<49)
		if x := rng.Intn(7); x == 0 {
			f.AppendNull()
		} else {
			f.AppendFloat(float64(x)*0.5 - 2)
		}
		if x := rng.Intn(14); x == 0 {
			s.AppendNull()
		} else {
			s.AppendString(fmt.Sprintf("s%02d", x))
		}
		u.AppendString(fmt.Sprintf("u-%06d-%031d", rng.Intn(40_000), 0))
	}
	t := storage.NewTable("sinkfix", b, h, w, q, f, s, u)
	t.Seal()
	return t
}

// TestSinkMatchesSortThenCut checks every mode of the result sink, at one
// and four workers and through both parallel shapes, against
// referenceOrderLimit over a full serial Run. The pipeline plan hands the
// sink a scan's dictionary-coded and bit-packed vectors under a selection
// vector; the aggregation plan is the BI Q6 regime — every COUNT is 1, so
// ORDER BY cnt is decided by the tie-break columns — and adds an I128 SUM.
func TestSinkMatchesSortThenCut(t *testing.T) {
	tab := sinkFixture()
	plans := []struct {
		name  string
		build func() Op
		keys  [][]SortKey
	}{
		{"pipeline", func() Op {
			sc := NewScan(tab, "b", "h", "w", "q", "f", "s", "u")
			return NewFilter(sc, Lt(Col(sc.Meta(), "h"), Int(150)))
		}, [][]SortKey{
			nil,
			{{Col: 4}},
			{{Col: 5, Desc: true}, {Col: 0}},
			{{Col: 6, Desc: true}},
			{{Col: 2, Desc: true}, {Col: 4}, {Col: 1, Desc: true}},
		}},
		{"agg", func() Op {
			sc := NewScan(tab, "h", "q", "f", "s", "u")
			m := sc.Meta()
			fl := NewFilter(sc, Lt(Col(m, "h"), Int(150)))
			return NewHashAgg(fl, []string{"u", "f"}, []*Expr{Col(m, "u"), Col(m, "f")}, []AggExpr{
				{Func: agg.CountStar, Name: "cnt"},
				{Func: agg.Sum, Arg: Col(m, "q"), Name: "total"},
				{Func: agg.Min, Arg: Col(m, "s"), Name: "smin"},
			})
		}, [][]SortKey{
			nil,
			{{Col: 2, Desc: true}},
			{{Col: 3, Desc: true}},
			{{Col: 1}, {Col: 4, Desc: true}},
		}},
	}
	// The test means what it says only if the scan really hands the sink
	// encoded vectors and both kinds of string reference. Dictionary
	// entries are interned when a surviving row first reads them, so the
	// mix shows over the whole run rather than in its first batch.
	probe, pqc := plans[0].build(), NewQCtx(core.Flags{UseUSSR: true})
	probe.Open(pqc)
	pb := probe.Next(pqc)
	if pb.Vecs[0].Enc != vec.EncPacked || pb.Vecs[6].Enc != vec.EncDict || pb.Sel == nil {
		t.Fatalf("fixture: b is %v, u is %v, sel %v", pb.Vecs[0].Enc, pb.Vecs[6].Enc, pb.Sel != nil)
	}
	resident, rows := 0, 0
	for ; pb != nil; pb = probe.Next(pqc) {
		for _, r := range pb.Rows() {
			rows++
			if pb.Vecs[6].StrRefAt(int(r)).InUSSR() {
				resident++
			}
		}
	}
	if resident == 0 || resident == rows {
		t.Fatalf("fixture: %d of %d u references resident, want a mix", resident, rows)
	}
	for _, plan := range plans {
		for _, flags := range []core.Flags{core.Vanilla(), {UseUSSR: true}} {
			full := Run(NewQCtx(flags), plan.build())
			n := len(full.Rows)
			if n < 15_000 {
				t.Fatalf("%s: fixture left only %d rows", plan.name, n)
			}
			if plan.name == "agg" && full.Types[3] != vec.I128 {
				t.Fatalf("agg: SUM column is %v, want I128", full.Types[3])
			}
			for ki, keys := range plan.keys {
				sorted := referenceOrderLimit(full.Rows, keys, -1)
				for _, limit := range []int{0, 1, 777, n, n + 5, -1} {
					want := referenceOrderLimit(sorted, nil, limit)
					for _, workers := range []int{1, 4} {
						qc := NewQCtx(flags)
						qc.Workers = workers
						got := RunSorted(qc, plan.build(), keys, limit)
						name := fmt.Sprintf("%s/%s/keys%d/limit%d/w%d", plan.name, flagName(flags), ki, limit, workers)
						if keys == nil && plan.name == "agg" && workers > 1 {
							// Group emission order is unspecified after a
							// parallel merge: any limit groups will do.
							assertSubset(t, name, got, full, len(want))
							continue
						}
						if len(got.Rows) != len(want) {
							t.Fatalf("%s: %d rows, want %d", name, len(got.Rows), len(want))
						}
						for i, row := range got.Rows {
							if !slices.Equal(row, want[i]) {
								t.Fatalf("%s: row %d is %v, want %v", name, i, row, want[i])
							}
						}
					}
				}
			}
		}
	}
}

func assertSubset(t *testing.T, name string, got, full *Result, n int) {
	t.Helper()
	if len(got.Rows) != n {
		t.Fatalf("%s: %d rows, want %d", name, len(got.Rows), n)
	}
	all := map[string]int{}
	for _, r := range renderedRows(full) {
		all[r]++
	}
	for _, r := range renderedRows(got) {
		if all[r]--; all[r] < 0 {
			t.Fatalf("%s: row %s is not in the full result", name, r)
		}
	}
}

// floatEdgeValues is NULL plus every kind of DOUBLE the engine can hold:
// COPY parses "NaN" and "Inf", and arithmetic produces -0.
func floatEdgeValues() []Value {
	vals := []Value{{Typ: vec.F64, Null: true}}
	for _, f := range []float64{math.NaN(), math.Inf(-1), -2.5, math.Copysign(0, -1), 0, 1, 1, 7.5, math.Inf(1), math.NaN()} {
		vals = append(vals, Value{Typ: vec.F64, F: f})
	}
	return vals
}

// TestValueOrderIsStrictWeak: the cell order must be a strict weak order
// over DOUBLEs too. `<` alone is not once a NaN is present — NaN ties with
// 0 and with 1 while 0 < 1 — and neither a sort nor a heap is defined over
// such a relation.
func TestValueOrderIsStrictWeak(t *testing.T) {
	vals := floatEdgeValues()
	tie := func(a, b Value) bool { return !a.Less(b) && !b.Less(a) }
	for _, a := range vals {
		if a.Less(a) {
			t.Errorf("%v < itself", a)
		}
		for _, b := range vals {
			if a.Less(b) && b.Less(a) {
				t.Errorf("%v and %v are each less than the other", a, b)
			}
			for _, c := range vals {
				if a.Less(b) && b.Less(c) && !a.Less(c) {
					t.Errorf("%v < %v < %v but not %v < %v", a, b, c, a, c)
				}
				if tie(a, b) && tie(b, c) && !tie(a, c) {
					t.Errorf("%v ties %v ties %v but not %v with %v", a, b, c, a, c)
				}
			}
		}
	}
	nan, negZero := vals[1], vals[4]
	if !vals[0].Less(nan) || !nan.Less(vals[2]) || !tie(nan, vals[len(vals)-1]) {
		t.Error("want NULL < NaN < -Inf and NaN tying NaN")
	}
	if !tie(negZero, vals[5]) {
		t.Error("want -0 tying +0")
	}
}

// TestTopKOverFloatEdges: with the edge values as sort key (and a unique id
// so that no two rows tie entirely) the full sort puts NULL, NaN, -Inf, the
// numbers and +Inf in that order, and every top-k is a prefix of it.
func TestTopKOverFloatEdges(t *testing.T) {
	rank := func(v Value) int {
		switch {
		case v.Null:
			return 0
		case math.IsNaN(v.F):
			return 1
		}
		for r, f := range []float64{math.Inf(-1), -2.5, 0, 1, 7.5, math.Inf(1)} {
			if v.F == f {
				return 2 + r
			}
		}
		t.Fatalf("unexpected value %v", v)
		return -1
	}
	var rows [][]Value
	rng := rand.New(rand.NewSource(3))
	vals := floatEdgeValues()
	for id := 0; id < 200; id++ {
		rows = append(rows, []Value{vals[rng.Intn(len(vals))], {Typ: vec.I64, I: int64(id)}})
	}
	names, types := []string{"f", "id"}, []vec.Type{vec.F64, vec.I64}
	run := func(desc bool, limit int) *Result {
		return RunSorted(NewQCtx(core.Vanilla()), NewExchange(names, types, rows), []SortKey{{Col: 0, Desc: desc}}, limit)
	}
	for _, desc := range []bool{false, true} {
		full := run(desc, -1)
		for i := 1; i < len(full.Rows); i++ {
			a, b := rank(full.Rows[i-1][0]), rank(full.Rows[i][0])
			if (!desc && a > b) || (desc && a < b) {
				t.Fatalf("desc=%v: row %d (%v) is sorted before row %d (%v)", desc, i-1, full.Rows[i-1][0], i, full.Rows[i][0])
			}
		}
		want := renderedRows(full)
		for _, k := range []int{0, 1, 7, 64, 199, 200, 500} {
			got := renderedRows(run(desc, k))
			if len(got) != min(k, len(want)) {
				t.Fatalf("desc=%v top-%d has %d rows", desc, k, len(got))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("desc=%v top-%d row %d is %s, the full sort has %s", desc, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSinkRejectPathDoesNotAllocate: once the heap is full, a candidate
// that loses is compared on the batch vectors and dropped — no boxing, no
// string materialization, for USSR-resident and heap strings alike.
func TestSinkRejectPathDoesNotAllocate(t *testing.T) {
	qc := NewQCtx(core.Flags{UseUSSR: true})
	meta := []Meta{{Name: "s", Type: vec.Str}, {Name: "f", Type: vec.F64}, {Name: "n", Type: vec.I32}}
	batch := func(prefix string) *vec.Batch {
		b := vec.NewBatch(vec.Str, vec.F64, vec.I32)
		b.N = vec.Size
		for i := 0; i < vec.Size; i++ {
			// Odd rows intern with the USSR switched off: heap strings.
			qc.Store.UseUSSR = i%2 == 0
			b.Vecs[0].Str[i] = qc.Store.Intern(fmt.Sprintf("%s-%04d", prefix, i))
			b.Vecs[1].F64[i] = 1
			b.Vecs[2].I32[i] = int32(i % 3)
		}
		qc.Store.UseUSSR = true
		return b
	}
	// ORDER BY f, s LIMIT 100: f always ties, so the string decides.
	h := topK{order: newRowOrder([]SortKey{{Col: 1}, {Col: 0}}, len(meta)), limit: 100}
	h.push(qc, batch("a"), meta)
	if len(h.rows) != 100 {
		t.Fatalf("heap holds %d rows, want 100", len(h.rows))
	}
	losers := batch("b")
	if !losers.Vecs[0].Str[0].InUSSR() || losers.Vecs[0].Str[1].InUSSR() {
		t.Fatal("want both USSR-resident and heap candidates")
	}
	if n := testing.AllocsPerRun(10, func() { h.push(qc, losers, meta) }); n != 0 {
		t.Errorf("%v allocations per rejected batch, want 0", n)
	}
	if got := h.rows[0][0].S; got != "a-0099" {
		t.Errorf("worst kept row is %s, want a-0099", got)
	}
}

func TestFootprintReductionEndToEnd(t *testing.T) {
	tab := salesTable(60_000)
	mk := func(flags core.Flags) *QCtx {
		qc := NewQCtx(flags)
		scan := NewScan(tab, "qty", "price")
		m := scan.Meta()
		h := NewHashAgg(scan,
			[]string{"qty", "price"}, []*Expr{Col(m, "qty"), Col(m, "price")},
			[]AggExpr{{Func: agg.Sum, Arg: Mul(Col(m, "qty"), Col(m, "price")), Name: "rev"}})
		Run(qc, h)
		return qc
	}
	vanilla := mk(core.Vanilla())
	opt := mk(core.Flags{Compress: true, Split: true})
	if opt.HashTableBytes() >= vanilla.HashTableBytes() {
		t.Errorf("optimized table %dB must undercut vanilla %dB",
			opt.HashTableBytes(), vanilla.HashTableBytes())
	}
}

func TestStatsCollected(t *testing.T) {
	tab := salesTable(5000)
	qc := NewQCtx(core.All())
	scan := NewScan(tab, "region")
	m := scan.Meta()
	Run(qc, NewHashAgg(scan, []string{"region"}, []*Expr{Col(m, "region")},
		[]AggExpr{{Func: agg.CountStar, Name: "c"}}))
	if qc.Stats.Get(StatScan) == 0 || qc.Stats.Get(StatHash) == 0 || qc.Stats.Get(StatLookup) == 0 {
		t.Errorf("missing stats buckets:\n%s", qc.Stats)
	}
}
