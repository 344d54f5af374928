package tpch

import (
	"context"
	"fmt"

	"ocht/internal/agg"
	"ocht/internal/exec"
	"ocht/internal/sql"
	"ocht/internal/storage"
)

// Q runs TPC-H query n (1..22) against the catalog under the given query
// context and returns its (ordered) result. Q1, Q5, Q6, Q10, Q12, Q14
// and Q19 are SQL text (statements) that the SQL planner plans; the other
// fifteen are operator plans built by hand (handPlans), because they need
// subqueries, semi/anti joins or a bushy join the planner lacks. Monetary
// values are cents and discounts and taxes integer percent, so revenue
// terms like extendedprice*(100-discount) are integer cent-percent, which
// preserves grouping, ordering and relative comparisons across all engine
// configurations.
func Q(n int, cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
	if n < 1 || n > 22 {
		panic(fmt.Sprintf("tpch: no query %d", n))
	}
	stmt, ok := parsed[n]
	if !ok {
		return handPlans[n](cat, qc)
	}
	root, order, limit, err := sql.Plan(stmt, cat)
	if err != nil {
		panic(fmt.Sprintf("tpch: Q%d: %v", n, err))
	}
	return exec.RunSorted(qc, root, order, limit)
}

// QContext runs query n under a cancellable context: when ctx expires or
// is canceled mid-execution the engine unwinds (workers included) and
// QContext returns exec.ErrCanceled instead of a result.
func QContext(ctx context.Context, n int, cat *storage.Catalog, qc *exec.QCtx) (res *exec.Result, err error) {
	qc.AttachContext(ctx)
	defer qc.AttachContext(nil)
	err = exec.CatchCancel(func() { res = Q(n, cat, qc) })
	if err != nil && ctx != nil && ctx.Err() != nil {
		err = fmt.Errorf("%w: %v", exec.ErrCanceled, ctx.Err())
	}
	return res, err
}

// statements are the queries written as SQL, by number. Dates are
// yyyymmdd integers.
var statements = map[int]string{
	// Q1: pricing summary report.
	1: `SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, SUM(l_extendedprice) AS sum_base_price,
		SUM(l_extendedprice * (100 - l_discount)) AS sum_disc_price,
		SUM(l_extendedprice * (100 - l_discount) * (100 + l_tax)) AS sum_charge,
		AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, AVG(l_discount) AS avg_disc,
		COUNT(*) AS count_order
	FROM lineitem
	WHERE l_shipdate <= 19980902
	GROUP BY l_returnflag, l_linestatus
	ORDER BY l_returnflag, l_linestatus`,
	// Q5: local supplier volume.
	5: `SELECT n_name, SUM(l_extendedprice * (100 - l_discount)) AS revenue
	FROM lineitem JOIN orders ON l_orderkey = o_orderkey JOIN customer ON o_custkey = c_custkey
		JOIN supplier ON l_suppkey = s_suppkey JOIN nation ON s_nationkey = n_nationkey
		JOIN region ON n_regionkey = r_regionkey
	WHERE c_nationkey = s_nationkey AND r_name = 'ASIA'
		AND o_orderdate >= 19940101 AND o_orderdate < 19950101
	GROUP BY n_name
	ORDER BY revenue DESC`,
	// Q6: forecasting revenue change.
	6: `SELECT SUM(l_extendedprice * l_discount) AS revenue
	FROM lineitem
	WHERE l_shipdate >= 19940101 AND l_shipdate < 19950101
		AND l_discount BETWEEN 5 AND 7 AND l_quantity < 24`,
	// Q10: returned item reporting. The customer key is grouped from
	// orders, so the customer join does not carry it.
	10: `SELECT o_custkey AS c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment,
		SUM(l_extendedprice * (100 - l_discount)) AS revenue
	FROM lineitem JOIN orders ON l_orderkey = o_orderkey JOIN customer ON o_custkey = c_custkey
		JOIN nation ON c_nationkey = n_nationkey
	WHERE l_returnflag = 'R' AND o_orderdate >= 19931001 AND o_orderdate < 19940101
	GROUP BY o_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment
	ORDER BY revenue DESC
	LIMIT 20`,
	// Q12: shipping modes and order priority.
	12: `SELECT l_shipmode,
		SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END) AS high_line_count,
		SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 0 ELSE 1 END) AS low_line_count
	FROM lineitem JOIN orders ON l_orderkey = o_orderkey
	WHERE l_shipmode IN ('MAIL', 'SHIP') AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
		AND l_receiptdate >= 19940101 AND l_receiptdate < 19950101
	GROUP BY l_shipmode
	ORDER BY l_shipmode`,
	// Q14: promotion effect.
	14: `SELECT 100.0 * CAST(SUM(CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice * (100 - l_discount) ELSE 0 END) AS FLOAT)
		/ CAST(SUM(l_extendedprice * (100 - l_discount)) AS FLOAT) AS promo_revenue
	FROM lineitem JOIN part ON l_partkey = p_partkey
	WHERE l_shipdate >= 19950901 AND l_shipdate < 19951001`,
	// Q19: discounted revenue, the three-way OR of brand, container and
	// quantity.
	19: `SELECT SUM(l_extendedprice * (100 - l_discount)) AS revenue
	FROM lineitem JOIN part ON l_partkey = p_partkey
	WHERE l_shipmode IN ('AIR', 'AIR REG') AND l_shipinstruct = 'DELIVER IN PERSON'
		AND (p_brand = 'Brand#12' AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')
				AND l_quantity BETWEEN 1 AND 11 AND p_size BETWEEN 1 AND 5
			OR p_brand = 'Brand#23' AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK')
				AND l_quantity BETWEEN 10 AND 20 AND p_size BETWEEN 1 AND 10
			OR p_brand = 'Brand#34' AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')
				AND l_quantity BETWEEN 20 AND 30 AND p_size BETWEEN 1 AND 15)`,
}

// parsed holds the statements, parsed once.
var parsed = func() map[int]*sql.SelectStmt {
	out := make(map[int]*sql.SelectStmt, len(statements))
	for n, text := range statements {
		stmt, err := sql.Parse(text)
		if err != nil {
			panic(fmt.Sprintf("tpch: Q%d: %v", n, err))
		}
		out[n] = stmt
	}
	return out
}()

// handPlans are the queries built as operator plans, by number.
var handPlans = map[int]func(*storage.Catalog, *exec.QCtx) *exec.Result{
	2: q2, 3: q3, 4: q4, 7: q7, 8: q8, 9: q9, 11: q11, 13: q13,
	15: q15, 16: q16, 17: q17, 18: q18, 20: q20, 21: q21, 22: q22,
}

// Shorthands.
type e = exec.Expr

var (
	col = exec.Col
	ci  = exec.Int
	cs  = exec.Str
)

// revenue is l_extendedprice * (100 - l_discount), in cent-percent.
func revenue(m []exec.Meta) *e {
	return exec.Mul(col(m, "l_extendedprice"), exec.Sub(ci(100), col(m, "l_discount")))
}

// year extracts the year from a yyyymmdd date column.
func year(d *e) *e { return exec.Div(d, ci(10000)) }

// nationsInRegion narrows a nation scan to one region.
func nationsInRegion(cat *storage.Catalog, region string) exec.Op {
	r := exec.NewScan(cat.Table("region"), "r_regionkey", "r_name")
	rm := r.Meta()
	rf := exec.NewFilter(r, exec.Eq(col(rm, "r_name"), cs(region)))
	n := exec.NewScan(cat.Table("nation"), "n_nationkey", "n_name", "n_regionkey")
	return exec.NewHashJoin(exec.Semi, n, rf, []string{"n_regionkey"}, []string{"r_regionkey"}, nil)
}

// q2: minimum cost supplier.
func q2(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
	// Subquery: min supply cost per part among EUROPE suppliers.
	suppEU := func() exec.Op {
		s := exec.NewScan(cat.Table("supplier"),
			"s_suppkey", "s_name", "s_address", "s_nationkey", "s_phone", "s_acctbal", "s_comment")
		return exec.NewHashJoin(exec.Semi, s, nationsInRegion(cat, "EUROPE"),
			[]string{"s_nationkey"}, []string{"n_nationkey"}, nil)
	}
	ps1 := exec.NewScan(cat.Table("partsupp"), "ps_partkey", "ps_suppkey", "ps_supplycost")
	psEU := exec.NewHashJoin(exec.Semi, ps1, suppEU(),
		[]string{"ps_suppkey"}, []string{"s_suppkey"}, nil)
	pm := psEU.Meta()
	minCost := exec.NewHashAgg(psEU,
		[]string{"mc_partkey"}, []*e{col(pm, "ps_partkey")},
		[]exec.AggExpr{{Func: agg.Min, Arg: col(pm, "ps_supplycost"), Name: "min_cost"}})

	// Main: parts of size 15, type %BRASS, joined with their EUROPE
	// suppliers at exactly the minimum cost.
	p := exec.NewScan(cat.Table("part"), "p_partkey", "p_mfgr", "p_size", "p_type")
	pmm := p.Meta()
	pf := exec.NewFilter(p, exec.And(
		exec.Eq(col(pmm, "p_size"), ci(15)),
		exec.Like(col(pmm, "p_type"), "%BRASS")))
	ps2 := exec.NewScan(cat.Table("partsupp"), "ps_partkey", "ps_suppkey", "ps_supplycost")
	j1 := exec.NewHashJoin(exec.Inner, ps2, pf,
		[]string{"ps_partkey"}, []string{"p_partkey"}, []string{"p_mfgr"})
	j2 := exec.NewHashJoin(exec.Inner, j1, suppEU(),
		[]string{"ps_suppkey"}, []string{"s_suppkey"},
		[]string{"s_acctbal", "s_name", "s_address", "s_nationkey", "s_phone", "s_comment"})
	n := exec.NewScan(cat.Table("nation"), "n_nationkey", "n_name")
	j3 := exec.NewHashJoin(exec.Inner, j2, n,
		[]string{"s_nationkey"}, []string{"n_nationkey"}, []string{"n_name"})
	j4 := exec.NewHashJoin(exec.Semi, j3, minCost,
		[]string{"ps_partkey", "ps_supplycost"}, []string{"mc_partkey", "min_cost"}, nil)
	jm := j4.Meta()
	out := exec.NewProject(j4,
		[]string{"s_acctbal", "s_name", "n_name", "p_partkey", "p_mfgr", "s_address", "s_phone", "s_comment"},
		[]*e{col(jm, "s_acctbal"), col(jm, "s_name"), col(jm, "n_name"), col(jm, "ps_partkey"),
			col(jm, "p_mfgr"), col(jm, "s_address"), col(jm, "s_phone"), col(jm, "s_comment")})
	return exec.RunSorted(qc, out, []exec.SortKey{{Col: 0, Desc: true}, {Col: 2}, {Col: 1}, {Col: 3}}, 100)
}

// q3: shipping priority. A hand plan because it builds orders ⋉ customer
// as one build side; the left-deep SQL plan holds 608 KB more build table.
func q3(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
	c := exec.NewScan(cat.Table("customer"), "c_custkey", "c_mktsegment")
	cm := c.Meta()
	cf := exec.NewFilter(c, exec.Eq(col(cm, "c_mktsegment"), cs("BUILDING")))
	o := exec.NewScan(cat.Table("orders"), "o_orderkey", "o_custkey", "o_orderdate", "o_shippriority")
	om := o.Meta()
	of := exec.NewFilter(o, exec.Lt(col(om, "o_orderdate"), ci(Date(1995, 3, 15))))
	oc := exec.NewHashJoin(exec.Semi, of, cf, []string{"o_custkey"}, []string{"c_custkey"}, nil)
	l := exec.NewScan(cat.Table("lineitem"), "l_orderkey", "l_extendedprice", "l_discount", "l_shipdate")
	lm := l.Meta()
	lf := exec.NewFilter(l, exec.Gt(col(lm, "l_shipdate"), ci(Date(1995, 3, 15))))
	j := exec.NewHashJoin(exec.Inner, lf, oc,
		[]string{"l_orderkey"}, []string{"o_orderkey"}, []string{"o_orderdate", "o_shippriority"})
	jm := j.Meta()
	h := exec.NewHashAgg(j,
		[]string{"l_orderkey", "o_orderdate", "o_shippriority"},
		[]*e{col(jm, "l_orderkey"), col(jm, "o_orderdate"), col(jm, "o_shippriority")},
		[]exec.AggExpr{{Func: agg.Sum, Arg: revenue(jm), Name: "revenue"}})
	return exec.RunSorted(qc, h, []exec.SortKey{{Col: 3, Desc: true}, {Col: 1}}, 10)
}

// q4: order priority checking.
func q4(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
	o := exec.NewScan(cat.Table("orders"), "o_orderkey", "o_orderdate", "o_orderpriority")
	om := o.Meta()
	of := exec.NewFilter(o, exec.And(
		exec.Ge(col(om, "o_orderdate"), ci(Date(1993, 7, 1))),
		exec.Lt(col(om, "o_orderdate"), ci(Date(1993, 10, 1)))))
	l := exec.NewScan(cat.Table("lineitem"), "l_orderkey", "l_commitdate", "l_receiptdate")
	lm := l.Meta()
	lf := exec.NewFilter(l, exec.Lt(col(lm, "l_commitdate"), col(lm, "l_receiptdate")))
	semi := exec.NewHashJoin(exec.Semi, of, lf, []string{"o_orderkey"}, []string{"l_orderkey"}, nil)
	sm := semi.Meta()
	h := exec.NewHashAgg(semi,
		[]string{"o_orderpriority"}, []*e{col(sm, "o_orderpriority")},
		[]exec.AggExpr{{Func: agg.CountStar, Name: "order_count"}})
	return exec.Run(qc, h).OrderBy(exec.SortKey{Col: 0})
}

// q7: volume shipping between FRANCE and GERMANY.
func q7(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
	l := exec.NewScan(cat.Table("lineitem"),
		"l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate")
	lm := l.Meta()
	lf := exec.NewFilter(l, exec.And(
		exec.Ge(col(lm, "l_shipdate"), ci(Date(1995, 1, 1))),
		exec.Le(col(lm, "l_shipdate"), ci(Date(1996, 12, 31)))))
	s := exec.NewScan(cat.Table("supplier"), "s_suppkey", "s_nationkey")
	ls := exec.NewHashJoin(exec.Inner, lf, s,
		[]string{"l_suppkey"}, []string{"s_suppkey"}, []string{"s_nationkey"})
	o := exec.NewScan(cat.Table("orders"), "o_orderkey", "o_custkey")
	lso := exec.NewHashJoin(exec.Inner, ls, o,
		[]string{"l_orderkey"}, []string{"o_orderkey"}, []string{"o_custkey"})
	c := exec.NewScan(cat.Table("customer"), "c_custkey", "c_nationkey")
	lsoc := exec.NewHashJoin(exec.Inner, lso, c,
		[]string{"o_custkey"}, []string{"c_custkey"}, []string{"c_nationkey"})
	n1 := exec.NewScan(cat.Table("nation"), "n_nationkey", "n_name")
	j1 := exec.NewHashJoin(exec.Inner, lsoc, n1,
		[]string{"s_nationkey"}, []string{"n_nationkey"}, []string{"n_name"})
	j1p := exec.NewProject(j1, append(namesOf(j1.Meta()[:len(j1.Meta())-1]), "supp_nation"),
		append(colsOf(j1.Meta()[:len(j1.Meta())-1], j1.Meta()), col(j1.Meta(), "n_name")))
	n2 := exec.NewScan(cat.Table("nation"), "n_nationkey", "n_name")
	j2 := exec.NewHashJoin(exec.Inner, j1p, n2,
		[]string{"c_nationkey"}, []string{"n_nationkey"}, []string{"n_name"})
	j2m := j2.Meta()
	pair := exec.NewFilter(j2, exec.Or(
		exec.And(exec.Eq(col(j2m, "supp_nation"), cs("FRANCE")), exec.Eq(col(j2m, "n_name"), cs("GERMANY"))),
		exec.And(exec.Eq(col(j2m, "supp_nation"), cs("GERMANY")), exec.Eq(col(j2m, "n_name"), cs("FRANCE")))))
	h := exec.NewHashAgg(pair,
		[]string{"supp_nation", "cust_nation", "l_year"},
		[]*e{col(j2m, "supp_nation"), col(j2m, "n_name"), year(col(j2m, "l_shipdate"))},
		[]exec.AggExpr{{Func: agg.Sum, Arg: revenue(j2m), Name: "revenue"}})
	return exec.Run(qc, h).OrderBy(exec.SortKey{Col: 0}, exec.SortKey{Col: 1}, exec.SortKey{Col: 2})
}

func namesOf(meta []exec.Meta) []string {
	out := make([]string, len(meta))
	for i, m := range meta {
		out[i] = m.Name
	}
	return out
}

func colsOf(meta []exec.Meta, full []exec.Meta) []*e {
	out := make([]*e, len(meta))
	for i, m := range meta {
		out[i] = col(full, m.Name)
	}
	return out
}

// q8: national market share.
func q8(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
	p := exec.NewScan(cat.Table("part"), "p_partkey", "p_type")
	pm := p.Meta()
	pf := exec.NewFilter(p, exec.Eq(col(pm, "p_type"), cs("ECONOMY ANODIZED STEEL")))
	l := exec.NewScan(cat.Table("lineitem"),
		"l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount")
	lp := exec.NewHashJoin(exec.Inner, l, pf, []string{"l_partkey"}, []string{"p_partkey"}, nil)
	o := exec.NewScan(cat.Table("orders"), "o_orderkey", "o_custkey", "o_orderdate")
	om := o.Meta()
	of := exec.NewFilter(o, exec.And(
		exec.Ge(col(om, "o_orderdate"), ci(Date(1995, 1, 1))),
		exec.Le(col(om, "o_orderdate"), ci(Date(1996, 12, 31)))))
	lpo := exec.NewHashJoin(exec.Inner, lp, of,
		[]string{"l_orderkey"}, []string{"o_orderkey"}, []string{"o_custkey", "o_orderdate"})
	c := exec.NewScan(cat.Table("customer"), "c_custkey", "c_nationkey")
	lpoc := exec.NewHashJoin(exec.Inner, lpo, c,
		[]string{"o_custkey"}, []string{"c_custkey"}, []string{"c_nationkey"})
	// Customer nation must be in AMERICA.
	am := nationsInRegion(cat, "AMERICA")
	lpocn := exec.NewHashJoin(exec.Semi, lpoc, am,
		[]string{"c_nationkey"}, []string{"n_nationkey"}, nil)
	s := exec.NewScan(cat.Table("supplier"), "s_suppkey", "s_nationkey")
	full := exec.NewHashJoin(exec.Inner, lpocn, s,
		[]string{"l_suppkey"}, []string{"s_suppkey"}, []string{"s_nationkey"})
	n2 := exec.NewScan(cat.Table("nation"), "n_nationkey", "n_name")
	withNation := exec.NewHashJoin(exec.Inner, full, n2,
		[]string{"s_nationkey"}, []string{"n_nationkey"}, []string{"n_name"})
	wm := withNation.Meta()
	vol := revenue(wm)
	brazil := exec.Case(exec.Eq(col(wm, "n_name"), cs("BRAZIL")), vol, ci(0))
	h := exec.NewHashAgg(withNation,
		[]string{"o_year"}, []*e{year(col(wm, "o_orderdate"))},
		[]exec.AggExpr{
			{Func: agg.Sum, Arg: brazil, Name: "brazil_vol"},
			{Func: agg.Sum, Arg: vol, Name: "total_vol"},
		})
	hm := h.Meta()
	share := exec.NewProject(h, []string{"o_year", "mkt_share"},
		[]*e{col(hm, "o_year"),
			exec.Div(exec.ToF64(col(hm, "brazil_vol")), exec.ToF64(col(hm, "total_vol")))})
	return exec.Run(qc, share).OrderBy(exec.SortKey{Col: 0})
}

// q9: product type profit measure.
func q9(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
	p := exec.NewScan(cat.Table("part"), "p_partkey", "p_name")
	pm := p.Meta()
	pf := exec.NewFilter(p, exec.Like(col(pm, "p_name"), "%green%"))
	l := exec.NewScan(cat.Table("lineitem"),
		"l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_extendedprice", "l_discount")
	lp := exec.NewHashJoin(exec.Inner, l, pf, []string{"l_partkey"}, []string{"p_partkey"}, nil)
	ps := exec.NewScan(cat.Table("partsupp"), "ps_partkey", "ps_suppkey", "ps_supplycost")
	lps := exec.NewHashJoin(exec.Inner, lp, ps,
		[]string{"l_partkey", "l_suppkey"}, []string{"ps_partkey", "ps_suppkey"},
		[]string{"ps_supplycost"})
	s := exec.NewScan(cat.Table("supplier"), "s_suppkey", "s_nationkey")
	lpss := exec.NewHashJoin(exec.Inner, lps, s,
		[]string{"l_suppkey"}, []string{"s_suppkey"}, []string{"s_nationkey"})
	o := exec.NewScan(cat.Table("orders"), "o_orderkey", "o_orderdate")
	lpsso := exec.NewHashJoin(exec.Inner, lpss, o,
		[]string{"l_orderkey"}, []string{"o_orderkey"}, []string{"o_orderdate"})
	n := exec.NewScan(cat.Table("nation"), "n_nationkey", "n_name")
	full := exec.NewHashJoin(exec.Inner, lpsso, n,
		[]string{"s_nationkey"}, []string{"n_nationkey"}, []string{"n_name"})
	fm := full.Meta()
	// profit = extprice*(100-disc) - supplycost*qty*100, cent-percent.
	profit := exec.Sub(revenue(fm),
		exec.Mul(exec.Mul(col(fm, "ps_supplycost"), col(fm, "l_quantity")), ci(100)))
	h := exec.NewHashAgg(full,
		[]string{"nation", "o_year"},
		[]*e{col(fm, "n_name"), year(col(fm, "o_orderdate"))},
		[]exec.AggExpr{{Func: agg.Sum, Arg: profit, Name: "sum_profit"}})
	return exec.Run(qc, h).OrderBy(exec.SortKey{Col: 0}, exec.SortKey{Col: 1, Desc: true})
}

// q11: important stock identification.
func q11(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
	german := func() exec.Op {
		n := exec.NewScan(cat.Table("nation"), "n_nationkey", "n_name")
		nm := n.Meta()
		nf := exec.NewFilter(n, exec.Eq(col(nm, "n_name"), cs("GERMANY")))
		s := exec.NewScan(cat.Table("supplier"), "s_suppkey", "s_nationkey")
		sg := exec.NewHashJoin(exec.Semi, s, nf, []string{"s_nationkey"}, []string{"n_nationkey"}, nil)
		ps := exec.NewScan(cat.Table("partsupp"), "ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost")
		return exec.NewHashJoin(exec.Semi, ps, sg, []string{"ps_suppkey"}, []string{"s_suppkey"}, nil)
	}
	g1 := german()
	gm := g1.Meta()
	value := exec.Mul(col(gm, "ps_supplycost"), col(gm, "ps_availqty"))
	perPart := exec.NewHashAgg(g1,
		[]string{"ps_partkey"}, []*e{col(gm, "ps_partkey")},
		[]exec.AggExpr{{Func: agg.Sum, Arg: value, Name: "value"}})
	// Total over another instance of the same subplan.
	g2 := german()
	gm2 := g2.Meta()
	total := exec.NewHashAgg(g2, nil, nil,
		[]exec.AggExpr{{Func: agg.Sum,
			Arg: exec.Mul(col(gm2, "ps_supplycost"), col(gm2, "ps_availqty")), Name: "total"}})
	cross := exec.NewHashJoin(exec.Inner, perPart, total, nil, nil, []string{"total"})
	cm := cross.Meta()
	// value > total * 0.0001 (the SF-scaled fraction).
	f := exec.NewFilter(cross, exec.Gt(
		exec.ToF64(col(cm, "value")),
		exec.Mul(exec.ToF64(col(cm, "total")), exec.F64Const(0.0001))))
	out := exec.NewProject(f, []string{"ps_partkey", "value"},
		[]*e{col(cm, "ps_partkey"), col(cm, "value")})
	return exec.Run(qc, out).OrderBy(exec.SortKey{Col: 1, Desc: true})
}
