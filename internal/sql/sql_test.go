package sql

import (
	"fmt"
	"strings"
	"testing"

	"ocht/internal/core"
	"ocht/internal/exec"
	"ocht/internal/storage"
	"ocht/internal/vec"
)

func testCatalog() *storage.Catalog {
	cat := storage.NewCatalog()

	region := storage.NewColumn("region", vec.Str, false)
	product := storage.NewColumn("product_id", vec.I64, false)
	qty := storage.NewColumn("qty", vec.I64, false)
	price := storage.NewColumn("price", vec.I64, false)
	note := storage.NewColumn("note", vec.Str, true)
	regions := []string{"north", "south", "east", "west"}
	for i := 0; i < 10_000; i++ {
		region.AppendString(regions[i%4])
		product.AppendInt(int64(i % 50))
		qty.AppendInt(int64(i%10) + 1)
		price.AppendInt(int64(i%100) * 10)
		if i%9 == 0 {
			note.AppendNull()
		} else {
			note.AppendString(fmt.Sprintf("note %d here", i%5))
		}
	}
	sales := storage.NewTable("sales", region, product, qty, price, note)
	sales.Seal()
	cat.Add(sales)

	pid := storage.NewColumn("pid", vec.I64, false)
	pname := storage.NewColumn("pname", vec.Str, false)
	cat2 := storage.NewColumn("category", vec.Str, false)
	for i := 0; i < 50; i++ {
		pid.AppendInt(int64(i))
		pname.AppendString(fmt.Sprintf("product-%02d", i))
		cat2.AppendString([]string{"tools", "toys", "food"}[i%3])
	}
	products := storage.NewTable("products", pid, pname, cat2)
	products.Seal()
	cat.Add(products)
	return cat
}

func mustRun(t *testing.T, cat *storage.Catalog, q string) *exec.Result {
	t.Helper()
	res, err := Run(q, cat, exec.NewQCtx(core.All()))
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return res
}

func TestSelectStar(t *testing.T) {
	cat := testCatalog()
	res := mustRun(t, cat, "SELECT * FROM products LIMIT 3")
	if len(res.Rows) != 3 || len(res.Names) != 3 {
		t.Fatalf("shape: %dx%d", len(res.Rows), len(res.Names))
	}
	if res.Names[1] != "pname" {
		t.Error("column names must pass through")
	}
}

func TestWhereAndProjection(t *testing.T) {
	cat := testCatalog()
	res := mustRun(t, cat,
		"SELECT region, qty * price AS revenue FROM sales WHERE qty > 5 AND region = 'north' LIMIT 100000")
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		if row[0].S != "north" {
			t.Fatal("filter violated")
		}
	}
	if res.Names[1] != "revenue" {
		t.Error("alias lost")
	}
}

func TestGroupByAggregates(t *testing.T) {
	cat := testCatalog()
	res := mustRun(t, cat, `
		SELECT region, COUNT(*) AS cnt, SUM(qty) AS total, MIN(price), MAX(price), AVG(qty)
		FROM sales GROUP BY region ORDER BY region`)
	if len(res.Rows) != 4 {
		t.Fatalf("groups: %d", len(res.Rows))
	}
	var cnt int64
	for _, row := range res.Rows {
		cnt += row[1].I
	}
	if cnt != 10_000 {
		t.Fatalf("counts sum to %d", cnt)
	}
	if res.Rows[0][0].S != "east" {
		t.Errorf("order by region: first row %q", res.Rows[0][0].S)
	}
	// AVG of qty (1..10 uniform) is 5.5.
	if res.Rows[0][5].F < 5 || res.Rows[0][5].F > 6 {
		t.Errorf("avg qty %f", res.Rows[0][5].F)
	}
}

func TestHavingAndExpressionOverAggregates(t *testing.T) {
	cat := testCatalog()
	res := mustRun(t, cat, `
		SELECT product_id, SUM(price) * 2 AS dbl
		FROM sales GROUP BY product_id HAVING COUNT(*) > 100 ORDER BY dbl DESC LIMIT 5`)
	if len(res.Rows) != 5 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	if res.Rows[0][1].Less(res.Rows[1][1]) {
		t.Error("descending order violated")
	}
}

func TestJoin(t *testing.T) {
	cat := testCatalog()
	res := mustRun(t, cat, `
		SELECT category, SUM(qty) AS total
		FROM sales JOIN products ON product_id = pid
		GROUP BY category ORDER BY total DESC`)
	if len(res.Rows) != 3 {
		t.Fatalf("categories: %d", len(res.Rows))
	}
	var total int64
	for _, row := range res.Rows {
		total += row[1].I
	}
	// Every sales row joins exactly one product: SUM(qty) over all rows.
	want := int64(0)
	for i := 0; i < 10_000; i++ {
		want += int64(i%10) + 1
	}
	if total != want {
		t.Fatalf("join total %d want %d", total, want)
	}
}

func TestLeftJoinAndIsNull(t *testing.T) {
	cat := storage.NewCatalog()
	a := storage.NewColumn("id", vec.I64, false)
	for i := 0; i < 10; i++ {
		a.AppendInt(int64(i))
	}
	left := storage.NewTable("l", a)
	left.Seal()
	cat.Add(left)
	b := storage.NewColumn("rid", vec.I64, false)
	v := storage.NewColumn("v", vec.I64, false)
	for i := 0; i < 5; i++ {
		b.AppendInt(int64(i * 2))
		v.AppendInt(int64(i * 100))
	}
	right := storage.NewTable("r", b, v)
	right.Seal()
	cat.Add(right)

	res := mustRun(t, cat, "SELECT id, v FROM l LEFT JOIN r ON id = rid ORDER BY id")
	if len(res.Rows) != 10 {
		t.Fatalf("left join rows: %d", len(res.Rows))
	}
	if !res.Rows[1][1].Null || res.Rows[0][1].Null {
		t.Error("NULL padding wrong")
	}

	res2 := mustRun(t, cat, "SELECT COUNT(*) FROM l LEFT JOIN r ON id = rid WHERE v IS NULL")
	if res2.Rows[0][0].I != 5 {
		t.Errorf("IS NULL count %d", res2.Rows[0][0].I)
	}
}

func TestStringPredicates(t *testing.T) {
	cat := testCatalog()
	res := mustRun(t, cat, `
		SELECT COUNT(*) FROM sales
		WHERE region LIKE 'n%' AND note IS NOT NULL AND region IN ('north', 'south')`)
	if res.Rows[0][0].I == 0 {
		t.Fatal("expected matches")
	}
	res2 := mustRun(t, cat, "SELECT COUNT(*) FROM sales WHERE region NOT LIKE 'n%'")
	res3 := mustRun(t, cat, "SELECT COUNT(*) FROM sales WHERE region LIKE 'n%'")
	if res2.Rows[0][0].I+res3.Rows[0][0].I != 10_000 {
		t.Error("LIKE / NOT LIKE must partition")
	}
}

func TestCaseAndBetween(t *testing.T) {
	cat := testCatalog()
	res := mustRun(t, cat, `
		SELECT SUM(CASE WHEN qty BETWEEN 1 AND 3 THEN 1 ELSE 0 END) AS small,
		       SUM(CASE WHEN qty > 3 THEN 1 ELSE 0 END) AS big,
		       COUNT(*) AS all_rows
		FROM sales`)
	row := res.Rows[0]
	if row[0].I+row[1].I != row[2].I {
		t.Fatalf("case partition: %d + %d != %d", row[0].I, row[1].I, row[2].I)
	}
}

func TestMultiWhenCase(t *testing.T) {
	cat := testCatalog()
	res := mustRun(t, cat, `
		SELECT SUM(CASE WHEN qty < 3 THEN 1 WHEN qty < 7 THEN 10 ELSE 100 END) AS score
		FROM sales WHERE product_id = 0`)
	if res.Rows[0][0].I <= 0 {
		t.Fatal("multi-when")
	}
}

func TestCastAndDivision(t *testing.T) {
	cat := testCatalog()
	res := mustRun(t, cat, `
		SELECT CAST(SUM(qty) AS FLOAT) / CAST(COUNT(*) AS FLOAT) AS mean FROM sales`)
	if res.Rows[0][0].F < 5 || res.Rows[0][0].F > 6 {
		t.Fatalf("mean %v", res.Rows[0][0])
	}
}

func TestSubstring(t *testing.T) {
	cat := testCatalog()
	res := mustRun(t, cat, `
		SELECT SUBSTRING(region, 1, 2) AS pre, COUNT(*) FROM sales GROUP BY SUBSTRING(region, 1, 2) ORDER BY pre`)
	if len(res.Rows) != 4 { // no, so, ea, we
		t.Fatalf("prefixes: %d", len(res.Rows))
	}
	if res.Rows[0][0].S != "ea" {
		t.Errorf("first prefix %q", res.Rows[0][0].S)
	}
}

func TestResultsAgreeAcrossFlags(t *testing.T) {
	cat := testCatalog()
	queries := []string{
		"SELECT region, COUNT(*), SUM(price) FROM sales GROUP BY region ORDER BY region",
		"SELECT category, MAX(price) FROM sales JOIN products ON product_id = pid GROUP BY category ORDER BY category",
		"SELECT note, COUNT(*) FROM sales GROUP BY note ORDER BY 2 DESC",
	}
	for _, q := range queries {
		var ref string
		for _, flags := range []core.Flags{core.Vanilla(), core.All()} {
			res, err := Run(q, cat, exec.NewQCtx(flags))
			if err != nil {
				t.Fatal(err)
			}
			got := res.String()
			if ref == "" {
				ref = got
			} else if ref != got {
				t.Errorf("query %q differs across flags:\n%s\nvs\n%s", q, ref, got)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	cat := testCatalog()
	cases := []string{
		"SELEC * FROM sales",
		"SELECT FROM sales",
		"SELECT * FROM",
		"SELECT * FROM sales WHERE",
		"SELECT * FROM sales LIMIT -1",
		"SELECT unknown_col FROM sales",
		"SELECT region FROM sales GROUP BY product_id", // region not grouped
		"SELECT * FROM sales JOIN products ON qty < pid",
		"SELECT 'unterminated FROM sales",
		"SELECT region, SUM(qty) FROM sales GROUP BY region ORDER BY nosuch",
	}
	for _, q := range cases {
		if _, err := Run(q, cat, exec.NewQCtx(core.Vanilla())); err == nil {
			t.Errorf("query %q should fail", q)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	cat := storage.NewCatalog()
	s := storage.NewColumn("s", vec.Str, false)
	s.AppendString("it's")
	s.AppendString("plain")
	tbl := storage.NewTable("t", s)
	tbl.Seal()
	cat.Add(tbl)
	res := mustRun(t, cat, "SELECT COUNT(*) FROM t WHERE s = 'it''s'")
	if res.Rows[0][0].I != 1 {
		t.Error("quote escaping")
	}
}

func TestOrderByOrdinalAndName(t *testing.T) {
	cat := testCatalog()
	byName := mustRun(t, cat, "SELECT region, SUM(qty) AS s FROM sales GROUP BY region ORDER BY s DESC")
	byOrd := mustRun(t, cat, "SELECT region, SUM(qty) AS s FROM sales GROUP BY region ORDER BY 2 DESC")
	if byName.String() != byOrd.String() {
		t.Error("ordinal and name ordering must agree")
	}
}

func TestLexer(t *testing.T) {
	toks, err := lexAll("SELECT a1,b.c FROM t WHERE x >= 10.5 AND y <> 'a''b'")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tk := range toks {
		kinds = append(kinds, fmt.Sprintf("%d:%s", tk.kind, tk.text))
	}
	joined := strings.Join(kinds, " ")
	for _, want := range []string{"6:SELECT", "1:a1", "4:.", "2:10.5", "5:<>", "3:a'b"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing token %q in %s", want, joined)
		}
	}
}

func TestStringMinMax(t *testing.T) {
	cat := testCatalog()
	res := mustRun(t, cat, `
		SELECT category, MIN(pname) AS first, MAX(pname) AS last
		FROM products GROUP BY category ORDER BY category`)
	if len(res.Rows) != 3 {
		t.Fatalf("groups: %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[1].S == "" || row[2].S == "" || row[1].S > row[2].S {
			t.Fatalf("min %q max %q", row[1].S, row[2].S)
		}
	}
	// food = products 2,5,8,..: min product-02, max product-47.
	if res.Rows[0][0].S != "food" || res.Rows[0][1].S != "product-02" || res.Rows[0][2].S != "product-47" {
		t.Errorf("food row: %v", res.Rows[0])
	}
}

// TestLimitStopsScanning: a bare LIMIT is satisfied by the first rows the
// plan produces, so the result sink must stop pulling — the scan never
// reads the table's later blocks — and the first rows are the same at
// every worker count (pipeline workers own contiguous block ranges).
func TestLimitStopsScanning(t *testing.T) {
	id := storage.NewColumn("id", vec.I64, false)
	tag := storage.NewColumn("tag", vec.Str, false)
	for i := 0; i < 2*storage.BlockRows+10; i++ {
		id.AppendInt(int64(i))
		tag.AppendString(fmt.Sprintf("t%d", i%7))
	}
	wide := storage.NewTable("wide", id, tag)
	wide.Seal()
	cat := storage.NewCatalog()
	cat.Add(wide)
	blocks := int64(id.Blocks())
	if blocks < 3 {
		t.Fatalf("fixture sealed into %d blocks, want >= 3", blocks)
	}

	const q = "SELECT id, tag FROM wide WHERE id >= 5 LIMIT 10"
	qc := exec.NewQCtx(core.All())
	serial, err := Run(q, cat, qc)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != 10 || serial.Rows[0][0].I != 5 || serial.Rows[9][0].I != 14 {
		t.Fatalf("LIMIT 10 returned %v", serial)
	}
	if read := qc.Stats.Counter(exec.CtrBlocksRead); read >= blocks {
		t.Errorf("LIMIT 10 read %d of %d blocks; the sink must stop pulling", read, blocks)
	}
	qc = exec.NewQCtx(core.All())
	qc.Workers = 4
	parallel, err := Run(q, cat, qc)
	if err != nil {
		t.Fatal(err)
	}
	if parallel.String() != serial.String() {
		t.Errorf("4 workers returned\n%v\nserial\n%v", parallel, serial)
	}
}
