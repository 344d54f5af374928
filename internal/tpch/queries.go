package tpch

import (
	"context"
	"fmt"

	"ocht/internal/agg"
	"ocht/internal/exec"
	"ocht/internal/storage"
)

// Q runs TPC-H query n (1..22) against the catalog under the given query
// context and returns its (ordered) result. Each query is expressed as an
// operator plan over the vectorized engine; monetary values are cents,
// revenue terms like extendedprice*(1-discount) are computed in integer
// cent-percent units, which preserves grouping, ordering and relative
// comparisons across all engine configurations.
func Q(n int, cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
	if n < 1 || n > 22 {
		panic(fmt.Sprintf("tpch: no query %d", n))
	}
	return queryFuncs[n-1](cat, qc)
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

var queryFuncs = [22]func(*storage.Catalog, *exec.QCtx) *exec.Result{
	q1, q2, q3, q4, q5, q6, q7, q8, q9, q10, q11,
	q12, q13, q14, q15, q16, q17, q18, q19, q20, q21, q22,
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

// semiRegion narrows a nation scan to one region.
func nationsInRegion(cat *storage.Catalog, qc *exec.QCtx, region string) exec.Op {
	r := exec.NewScan(cat.Table("region"), "r_regionkey", "r_name")
	rm := r.Meta()
	rf := exec.NewFilter(r, exec.Eq(col(rm, "r_name"), cs(region)))
	n := exec.NewScan(cat.Table("nation"), "n_nationkey", "n_name", "n_regionkey")
	return exec.NewHashJoin(exec.Semi, n, rf, []string{"n_regionkey"}, []string{"r_regionkey"}, nil)
}

// q1: pricing summary report.
func q1(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
	l := exec.NewScan(cat.Table("lineitem"),
		"l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
		"l_discount", "l_tax", "l_shipdate")
	m := l.Meta()
	f := exec.NewFilter(l, exec.Le(col(m, "l_shipdate"), ci(DateAdd(Date(1998, 12, 1), -90))))
	disc := revenue(m)
	charge := exec.Mul(disc, exec.Add(ci(100), col(m, "l_tax")))
	h := exec.NewHashAgg(f,
		[]string{"l_returnflag", "l_linestatus"},
		[]*e{col(m, "l_returnflag"), col(m, "l_linestatus")},
		[]exec.AggExpr{
			{Func: agg.Sum, Arg: col(m, "l_quantity"), Name: "sum_qty"},
			{Func: agg.Sum, Arg: col(m, "l_extendedprice"), Name: "sum_base_price"},
			{Func: agg.Sum, Arg: disc, Name: "sum_disc_price"},
			{Func: agg.Sum, Arg: charge, Name: "sum_charge"},
			{Func: exec.Avg, Arg: col(m, "l_quantity"), Name: "avg_qty"},
			{Func: exec.Avg, Arg: col(m, "l_extendedprice"), Name: "avg_price"},
			{Func: exec.Avg, Arg: col(m, "l_discount"), Name: "avg_disc"},
			{Func: agg.CountStar, Name: "count_order"},
		})
	return exec.Run(qc, h).OrderBy(exec.SortKey{Col: 0}, exec.SortKey{Col: 1})
}

// q2: minimum cost supplier.
func q2(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
	// Subquery: min supply cost per part among EUROPE suppliers.
	suppEU := func() exec.Op {
		s := exec.NewScan(cat.Table("supplier"),
			"s_suppkey", "s_name", "s_address", "s_nationkey", "s_phone", "s_acctbal", "s_comment")
		return exec.NewHashJoin(exec.Semi, s, nationsInRegion(cat, qc, "EUROPE"),
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

// q3: shipping priority.
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

// q5: local supplier volume.
func q5(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
	o := exec.NewScan(cat.Table("orders"), "o_orderkey", "o_custkey", "o_orderdate")
	om := o.Meta()
	of := exec.NewFilter(o, exec.And(
		exec.Ge(col(om, "o_orderdate"), ci(Date(1994, 1, 1))),
		exec.Lt(col(om, "o_orderdate"), ci(Date(1995, 1, 1)))))
	c := exec.NewScan(cat.Table("customer"), "c_custkey", "c_nationkey")
	oc := exec.NewHashJoin(exec.Inner, of, c,
		[]string{"o_custkey"}, []string{"c_custkey"}, []string{"c_nationkey"})
	l := exec.NewScan(cat.Table("lineitem"), "l_orderkey", "l_suppkey", "l_extendedprice", "l_discount")
	lo := exec.NewHashJoin(exec.Inner, l, oc,
		[]string{"l_orderkey"}, []string{"o_orderkey"}, []string{"c_nationkey"})
	s := exec.NewScan(cat.Table("supplier"), "s_suppkey", "s_nationkey")
	ls := exec.NewHashJoin(exec.Inner, lo, s,
		[]string{"l_suppkey"}, []string{"s_suppkey"}, []string{"s_nationkey"})
	lsm := ls.Meta()
	same := exec.NewFilter(ls, exec.Eq(col(lsm, "c_nationkey"), col(lsm, "s_nationkey")))
	nAsia := nationsInRegion(cat, qc, "ASIA")
	j := exec.NewHashJoin(exec.Inner, same, nAsia,
		[]string{"s_nationkey"}, []string{"n_nationkey"}, []string{"n_name"})
	jm := j.Meta()
	h := exec.NewHashAgg(j,
		[]string{"n_name"}, []*e{col(jm, "n_name")},
		[]exec.AggExpr{{Func: agg.Sum, Arg: revenue(jm), Name: "revenue"}})
	return exec.Run(qc, h).OrderBy(exec.SortKey{Col: 1, Desc: true})
}

// q6: forecasting revenue change.
func q6(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
	l := exec.NewScan(cat.Table("lineitem"), "l_shipdate", "l_discount", "l_quantity", "l_extendedprice")
	m := l.Meta()
	f := exec.NewFilter(l, exec.And(exec.And(
		exec.And(
			exec.Ge(col(m, "l_shipdate"), ci(Date(1994, 1, 1))),
			exec.Lt(col(m, "l_shipdate"), ci(Date(1995, 1, 1)))),
		exec.And(
			exec.Ge(col(m, "l_discount"), ci(5)),
			exec.Le(col(m, "l_discount"), ci(7)))),
		exec.Lt(col(m, "l_quantity"), ci(24))))
	h := exec.NewHashAgg(f, nil, nil, []exec.AggExpr{
		{Func: agg.Sum, Arg: exec.Mul(col(m, "l_extendedprice"), col(m, "l_discount")), Name: "revenue"},
	})
	return exec.Run(qc, h)
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
	am := nationsInRegion(cat, qc, "AMERICA")
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

// q10: returned item reporting.
func q10(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
	o := exec.NewScan(cat.Table("orders"), "o_orderkey", "o_custkey", "o_orderdate")
	om := o.Meta()
	of := exec.NewFilter(o, exec.And(
		exec.Ge(col(om, "o_orderdate"), ci(Date(1993, 10, 1))),
		exec.Lt(col(om, "o_orderdate"), ci(Date(1994, 1, 1)))))
	l := exec.NewScan(cat.Table("lineitem"),
		"l_orderkey", "l_returnflag", "l_extendedprice", "l_discount")
	lm := l.Meta()
	lf := exec.NewFilter(l, exec.Eq(col(lm, "l_returnflag"), cs("R")))
	lo := exec.NewHashJoin(exec.Inner, lf, of,
		[]string{"l_orderkey"}, []string{"o_orderkey"}, []string{"o_custkey"})
	c := exec.NewScan(cat.Table("customer"),
		"c_custkey", "c_name", "c_acctbal", "c_phone", "c_nationkey", "c_address", "c_comment")
	loc := exec.NewHashJoin(exec.Inner, lo, c,
		[]string{"o_custkey"}, []string{"c_custkey"},
		[]string{"c_name", "c_acctbal", "c_phone", "c_nationkey", "c_address", "c_comment"})
	n := exec.NewScan(cat.Table("nation"), "n_nationkey", "n_name")
	full := exec.NewHashJoin(exec.Inner, loc, n,
		[]string{"c_nationkey"}, []string{"n_nationkey"}, []string{"n_name"})
	fm := full.Meta()
	h := exec.NewHashAgg(full,
		[]string{"c_custkey", "c_name", "c_acctbal", "c_phone", "n_name", "c_address", "c_comment"},
		[]*e{col(fm, "o_custkey"), col(fm, "c_name"), col(fm, "c_acctbal"), col(fm, "c_phone"),
			col(fm, "n_name"), col(fm, "c_address"), col(fm, "c_comment")},
		[]exec.AggExpr{{Func: agg.Sum, Arg: revenue(fm), Name: "revenue"}})
	return exec.RunSorted(qc, h, []exec.SortKey{{Col: 7, Desc: true}}, 20)
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
