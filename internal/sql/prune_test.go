package sql

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ocht/internal/exec"
	"ocht/internal/storage"
	"ocht/internal/vec"
)

// planShape renders a plan's scans ("table(cols)"), filters ("filter")
// and join payloads ("join(cols)" or "left(cols)"), bottom-up: probe
// side, then build side, then the join; a filter follows its input.
func planShape(op exec.Op) []string {
	switch o := op.(type) {
	case *exec.Scan:
		return []string{fmt.Sprintf("%s(%s)", o.Table.Name, strings.Join(o.Columns, ","))}
	case *exec.Filter:
		return append(planShape(o.Child), "filter")
	case *exec.Project:
		return planShape(o.Child)
	case *exec.HashAgg:
		return planShape(o.Child)
	case *exec.HashJoin:
		kind := "join"
		if o.Kind == exec.LeftOuter {
			kind = "left"
		}
		out := append(planShape(o.Probe), planShape(o.Build)...)
		return append(out, fmt.Sprintf("%s(%s)", kind, strings.Join(o.Payload, ",")))
	}
	panic(fmt.Sprintf("planShape: %T", op))
}

// chainCatalog holds three joinable tables: a(ak, ax, ay), b(bk, bc, bz)
// and c(ck, cv, cw).
func chainCatalog() *storage.Catalog {
	cat := storage.NewCatalog()
	for _, names := range [][]string{{"a", "ak", "ax", "ay"}, {"b", "bk", "bc", "bz"}, {"c", "ck", "cv", "cw"}} {
		var cols []*storage.Column
		for _, n := range names[1:] {
			c := storage.NewColumn(n, vec.I64, false)
			for i := 0; i < 100; i++ {
				c.AppendInt(int64(i % 10))
			}
			cols = append(cols, c)
		}
		t := storage.NewTable(names[0], cols...)
		t.Seal()
		cat.Add(t)
	}
	return cat
}

// TestPlanPrunesColumns checks that scans read only the columns a
// statement references, in table order, that a join carries only the
// build columns used above it, and where each WHERE conjunct filters.
func TestPlanPrunesColumns(t *testing.T) {
	sales, chain := testCatalog(), chainCatalog()
	cases := []struct {
		cat  *storage.Catalog
		q    string
		want []string
	}{
		// region only in GROUP BY, qty only in WHERE, price only in HAVING.
		{sales, "SELECT COUNT(*) FROM sales WHERE qty > 3 GROUP BY region HAVING MAX(price) > 10",
			[]string{"sales(region,qty,price)", "filter", "filter"}},
		// No column referenced: the first one is scanned to count rows.
		{sales, "SELECT COUNT(*) FROM sales", []string{"sales(region)"}},
		{sales, "SELECT * FROM sales JOIN products ON product_id = pid",
			[]string{"sales(region,product_id,qty,price,note)", "products(pid,pname,category)", "join(pid,pname,category)"}},
		// pid is referenced by its own ON clause only: scanned, not carried.
		{sales, "SELECT category, SUM(qty) FROM sales JOIN products ON product_id = pid GROUP BY category",
			[]string{"sales(product_id,qty)", "products(pid,category)", "join(category)"}},
		// bc is the probe key of the next join, so the first join carries
		// it; bk and ck only meet their own ON clauses.
		{chain, "SELECT ax, SUM(cv) FROM a JOIN b ON ak = bk JOIN c ON bc = ck GROUP BY ax",
			[]string{"a(ak,ax)", "b(bk,bc)", "join(bc)", "c(ck,cv)", "join(cv)"}},
		{chain, "SELECT ax, bz FROM a LEFT JOIN b ON ak = bk WHERE ay > 2",
			[]string{"a(ak,ax,ay)", "filter", "b(bk,bz)", "left(bz)"}},
		// Each one-table conjunct filters its own scan below the inner
		// joins; bz and cw, named only by those filters, are not carried.
		{chain, "SELECT ax, SUM(cv) FROM a JOIN b ON ak = bk JOIN c ON bc = ck WHERE bz > 2 AND cw < 5 AND ay = 1 GROUP BY ax",
			[]string{"a(ak,ax,ay)", "filter", "b(bk,bc,bz)", "filter", "join(bc)", "c(ck,cv,cw)", "filter", "join(cv)"}},
		// A conjunct over a LEFT JOIN's build table must also drop the
		// NULL-extended rows, so it filters above the join.
		{chain, "SELECT ax FROM a LEFT JOIN b ON ak = bk WHERE bz > 2",
			[]string{"a(ak,ax)", "b(bk,bz)", "left(bz)", "filter"}},
		// Conjuncts over two tables, or none, filter above the joins.
		{chain, "SELECT ax FROM a JOIN b ON ak = bk WHERE ax = bz AND 1 = 1",
			[]string{"a(ak,ax)", "b(bk,bz)", "join(bz)", "filter"}},
	}
	for _, c := range cases {
		stmt, err := Parse(c.q)
		if err != nil {
			t.Fatal(err)
		}
		root, _, _, err := Plan(stmt, c.cat)
		if err != nil {
			t.Fatalf("%q: %v", c.q, err)
		}
		if got := planShape(root); !slices.Equal(got, c.want) {
			t.Errorf("%q:\n got  %v\n want %v", c.q, got, c.want)
		}
	}
}

// TestBuildFiltersMatchNestedLoop checks WHERE conjuncts over a join's
// build table against a nested-loop reference: pushed below an inner
// join, and kept above a LEFT JOIN, where they decide the NULL-extended
// rows too.
func TestBuildFiltersMatchNestedLoop(t *testing.T) {
	const na, nb = 3000, 2000 // ak >= nb has no match
	ak, ax := storage.NewColumn("ak", vec.I64, false), storage.NewColumn("ax", vec.I64, false)
	for i := 0; i < na; i++ {
		ak.AppendInt(int64(i))
		ax.AppendInt(int64(i % 7))
	}
	// b row j has bz = j%10, NULL when j%13 == 0.
	bk, bz := storage.NewColumn("bk", vec.I64, false), storage.NewColumn("bz", vec.I64, true)
	for j := 0; j < nb; j++ {
		bk.AppendInt(int64(j))
		if j%13 == 0 {
			bz.AppendNull()
		} else {
			bz.AppendInt(int64(j % 10))
		}
	}
	cat := storage.NewCatalog()
	for _, tb := range []*storage.Table{storage.NewTable("a", ak, ax), storage.NewTable("b", bk, bz)} {
		tb.Seal()
		cat.Add(tb)
	}

	// reference renders "ak|bz" for every a row i whose joined row the
	// WHERE keeps; z is nil for a NULL bz or a NULL-extended row.
	reference := func(left bool, where func(i int, z *int64) bool) []string {
		var out []string
		for i := 0; i < na; i++ {
			var z *int64
			if i < nb && i%13 != 0 {
				v := int64(i % 10)
				z = &v
			}
			if (i < nb || left) && where(i, z) {
				cell := "NULL"
				if z != nil {
					cell = fmt.Sprint(*z)
				}
				out = append(out, fmt.Sprintf("%d|%s", i, cell))
			}
		}
		return out
	}
	above5 := func(_ int, z *int64) bool { return z != nil && *z > 5 }
	cases := []struct {
		q    string
		want []string
	}{
		{"SELECT ak, bz FROM a JOIN b ON ak = bk WHERE bz > 5 ORDER BY ak", reference(false, above5)},
		{"SELECT ak, bz FROM a LEFT JOIN b ON ak = bk WHERE bz > 5 ORDER BY ak", reference(true, above5)},
		{"SELECT ak, bz FROM a LEFT JOIN b ON ak = bk WHERE bz IS NULL ORDER BY ak",
			reference(true, func(_ int, z *int64) bool { return z == nil })},
		{"SELECT ak, bz FROM a LEFT JOIN b ON ak = bk WHERE ax = bz AND ak > 100 ORDER BY ak",
			reference(true, func(i int, z *int64) bool { return z != nil && int64(i%7) == *z && i > 100 })},
	}
	for name, flags := range keyTestFlags {
		for _, workers := range []int{1, 4} {
			for _, c := range cases {
				qc := exec.NewQCtx(flags)
				qc.Workers = workers
				res, err := Run(c.q, cat, qc)
				if err != nil {
					t.Fatalf("%s: %q: %v", name, c.q, err)
				}
				var got []string
				for _, r := range res.Rows {
					got = append(got, r[0].String()+"|"+r[1].String())
				}
				if !slices.Equal(got, c.want) {
					t.Errorf("%s W=%d: %q returned %d rows, the nested loop %d", name, workers, c.q, len(got), len(c.want))
				}
			}
		}
	}
}
