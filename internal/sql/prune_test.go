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

// planShape renders a plan's scans ("table(cols)") and join payloads
// ("join(cols)" or "left(cols)"), bottom-up: probe side, then build
// side, then the join.
func planShape(op exec.Op) []string {
	switch o := op.(type) {
	case *exec.Scan:
		return []string{fmt.Sprintf("%s(%s)", o.Table.Name, strings.Join(o.Columns, ","))}
	case *exec.Filter:
		return planShape(o.Child)
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
// statement references, in table order, and that a join carries only the
// build columns used above it.
func TestPlanPrunesColumns(t *testing.T) {
	sales, chain := testCatalog(), chainCatalog()
	cases := []struct {
		cat  *storage.Catalog
		q    string
		want []string
	}{
		// region only in GROUP BY, qty only in WHERE, price only in HAVING.
		{sales, "SELECT COUNT(*) FROM sales WHERE qty > 3 GROUP BY region HAVING MAX(price) > 10",
			[]string{"sales(region,qty,price)"}},
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
			[]string{"a(ak,ax,ay)", "b(bk,bz)", "left(bz)"}},
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
