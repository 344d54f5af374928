package sql

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"ocht/internal/core"
	"ocht/internal/exec"
	"ocht/internal/storage"
	"ocht/internal/vec"
)

// TestFormatRoundTrip pins the unparser: formatting a parsed statement
// and re-parsing it must yield a statement that formats identically and
// executes identically.
func TestFormatRoundTrip(t *testing.T) {
	cat := testCatalog()
	queries := []string{
		"SELECT region, qty * price AS revenue FROM sales WHERE qty > 5 AND region = 'north' LIMIT 100",
		"SELECT region, SUM(qty), COUNT(*), AVG(price) FROM sales WHERE note IS NOT NULL GROUP BY region HAVING SUM(qty) > 10 ORDER BY region",
		"SELECT region, MIN(note), MAX(note) FROM sales GROUP BY region",
		"SELECT category, SUM(qty * price) FROM sales JOIN products ON product_id = pid GROUP BY category ORDER BY 2 DESC",
		"SELECT region FROM sales WHERE region LIKE 'n%' OR qty IN (1, 2, 3) ORDER BY region DESC LIMIT 7",
		"SELECT region, CASE WHEN qty > 5 THEN 1 ELSE 0 END AS big FROM sales WHERE price BETWEEN 10 AND 500 LIMIT 20",
		"SELECT region, COUNT(note) FROM sales WHERE NOT (qty = 4) AND note IS NULL GROUP BY region",
		"SELECT SUM(CASE WHEN region = 'east' THEN price ELSE 0 END) FROM sales",
		"SELECT CAST(SUM(qty) AS FLOAT) / CAST(COUNT(*) AS FLOAT) AS r FROM sales GROUP BY region",
		"SELECT SUBSTRING(note, 1, 4) AS n4, COUNT(*) FROM sales WHERE note IS NOT NULL GROUP BY SUBSTRING(note, 1, 4)",
		"SELECT region, - price AS np FROM sales WHERE qty % 2 = 1 AND price <> 0 LIMIT 5",
	}
	for _, q := range queries {
		p1, err := Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		f1 := FormatSelect(p1)
		p2, err := Parse(f1)
		if err != nil {
			t.Fatalf("re-parse of formatted %q: %v\nformatted: %s", q, err, f1)
		}
		if f2 := FormatSelect(p2); f1 != f2 {
			t.Errorf("format not a fixed point:\n 1: %s\n 2: %s", f1, f2)
		}
		a := mustRun(t, cat, q)
		b := mustRun(t, cat, f1)
		if !sameRows(a, b) {
			t.Errorf("formatted query diverges for %q\nformatted: %s", q, f1)
		}
	}
}

// shardCatalogs hash-partitions the sales fixture across k shards on
// product_id and broadcasts the products dimension to every shard —
// exactly the layout the coordinator's ingest router produces.
func shardCatalogs(k int) []*storage.Catalog {
	cats := make([]*storage.Catalog, k)
	salesCols := make([][]*storage.Column, k)
	for s := range cats {
		cats[s] = storage.NewCatalog()
		salesCols[s] = []*storage.Column{
			storage.NewColumn("region", vec.Str, false),
			storage.NewColumn("product_id", vec.I64, false),
			storage.NewColumn("qty", vec.I64, false),
			storage.NewColumn("price", vec.I64, false),
			storage.NewColumn("note", vec.Str, true),
		}
	}
	regions := []string{"north", "south", "east", "west"}
	for i := 0; i < 10_000; i++ {
		c := salesCols[(i%50)%k] // partition on product_id = i%50
		c[0].AppendString(regions[i%4])
		c[1].AppendInt(int64(i % 50))
		c[2].AppendInt(int64(i%10) + 1)
		c[3].AppendInt(int64(i%100) * 10)
		if i%9 == 0 {
			c[4].AppendNull()
		} else {
			c[4].AppendString(fmt.Sprintf("note %d here", i%5))
		}
	}
	for s := range cats {
		tb := storage.NewTable("sales", salesCols[s]...)
		tb.Seal()
		cats[s].Add(tb)
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
		cats[s].Add(products)
	}
	return cats
}

// runDistributed executes a query through the full split: shard SQL on
// every shard catalog, gathered rows through an Exchange, and the merge
// fragment on the coordinator, with the post-run sort and limit.
func runDistributed(t *testing.T, q string, shards []*storage.Catalog, flags core.Flags) *exec.Result {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	d, err := PlanDistributed(stmt)
	if err != nil {
		t.Fatalf("split %q: %v", q, err)
	}
	var rows [][]exec.Value
	var names []string
	var types []vec.Type
	for _, cat := range shards {
		res, err := Run(d.ShardSQL, cat, exec.NewQCtx(flags))
		if err != nil {
			t.Fatalf("shard subquery %q: %v", d.ShardSQL, err)
		}
		if names == nil {
			names, types = res.Names, res.Types
		}
		rows = append(rows, res.Rows...)
	}
	root, order, limit, err := d.Merge(exec.NewExchange(names, types, rows))
	if err != nil {
		t.Fatalf("merge %q: %v", q, err)
	}
	res, err := exec.RunSortedCtx(nil, exec.NewQCtx(flags), root, order, limit)
	if err != nil {
		t.Fatalf("merge run %q: %v", q, err)
	}
	return res
}

func sameRows(a, b *exec.Result) bool {
	return strings.Join(renderRows(a), "\n") == strings.Join(renderRows(b), "\n")
}

func renderRows(r *exec.Result) []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		var parts []string
		for _, v := range row {
			parts = append(parts, v.String())
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// TestPlanDistributedEquivalence pins distributed-vs-single-node results
// for the aggregate shapes the coordinator serves, at 1, 2 and 4 shards,
// under vanilla and fully optimized flags.
func TestPlanDistributedEquivalence(t *testing.T) {
	whole := testCatalog()
	queries := []string{
		// Grouped aggregates with every merge rule.
		"SELECT region, SUM(price), COUNT(*), MIN(qty), MAX(qty) FROM sales GROUP BY region",
		"SELECT region, AVG(price) FROM sales GROUP BY region",
		"SELECT region, COUNT(note), MIN(note), MAX(note) FROM sales GROUP BY region",
		// Filters below the exchange.
		"SELECT region, SUM(qty) FROM sales WHERE price > 200 AND note IS NOT NULL GROUP BY region",
		// Nullable group key: NULL groups must merge across shards.
		"SELECT note, COUNT(*), SUM(price) FROM sales GROUP BY note",
		// Expression keys and aggregate arguments.
		"SELECT qty % 3, SUM(qty * price) FROM sales GROUP BY qty % 3",
		// HAVING and ORDER BY re-applied above the merge.
		"SELECT region, SUM(qty) AS tq FROM sales GROUP BY region HAVING SUM(qty) > 100 ORDER BY tq DESC",
		// Arithmetic over aggregates in the projection.
		"SELECT region, SUM(price) - MIN(price) AS spread, CAST(SUM(qty) AS FLOAT) / CAST(COUNT(*) AS FLOAT) AS aq FROM sales GROUP BY region",
		// Global aggregate (no GROUP BY).
		"SELECT SUM(price), COUNT(*), MIN(qty), MAX(note), AVG(qty) FROM sales",
		// Co-partitioned-style join below the exchange (products is
		// broadcast to every shard).
		"SELECT category, SUM(qty * price) AS rev FROM sales JOIN products ON product_id = pid GROUP BY category ORDER BY rev DESC",
		// Repeated aggregate dedup across items and HAVING.
		"SELECT region, SUM(qty), SUM(qty) + COUNT(*) FROM sales GROUP BY region HAVING SUM(qty) > 0",
		// Non-aggregate passthrough with top-k pushdown.
		"SELECT product_id, price FROM sales WHERE qty = 3 AND region = 'east' ORDER BY product_id LIMIT 40",
		// Non-aggregate without LIMIT: coordinator-side sort only.
		"SELECT region, qty FROM sales WHERE price = 990",
	}
	for _, flags := range []core.Flags{{}, core.All()} {
		for _, k := range []int{1, 2, 4} {
			shards := shardCatalogs(k)
			for _, q := range queries {
				want, err := Run(q, whole, exec.NewQCtx(flags))
				if err != nil {
					t.Fatalf("single-node %q: %v", q, err)
				}
				got := runDistributed(t, q, shards, flags)
				if !sameRows(want, got) {
					t.Errorf("shards=%d flags=%+v: distributed result differs for %q\n got: %v\nwant: %v",
						k, flags, q, renderRows(got), renderRows(want))
				}
			}
		}
	}
}
