package tpch

import (
	"ocht/internal/agg"
	"ocht/internal/exec"
	"ocht/internal/storage"
)

// q13: customer distribution.
func q13(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
	c := exec.NewScan(cat.Table("customer"), "c_custkey")
	o := exec.NewScan(cat.Table("orders"), "o_orderkey", "o_custkey", "o_comment")
	om := o.Meta()
	of := exec.NewFilter(o, exec.NotLike(col(om, "o_comment"), "%special%requests%"))
	lj := exec.NewHashJoin(exec.LeftOuter, c, of,
		[]string{"c_custkey"}, []string{"o_custkey"}, []string{"o_orderkey"})
	ljm := lj.Meta()
	perCust := exec.NewHashAgg(lj,
		[]string{"c_custkey"}, []*e{col(ljm, "c_custkey")},
		[]exec.AggExpr{{Func: agg.Count, Arg: col(ljm, "o_orderkey"), Name: "c_count"}})
	pm := perCust.Meta()
	dist := exec.NewHashAgg(perCust,
		[]string{"c_count"}, []*e{col(pm, "c_count")},
		[]exec.AggExpr{{Func: agg.CountStar, Name: "custdist"}})
	return exec.Run(qc, dist).OrderBy(exec.SortKey{Col: 1, Desc: true}, exec.SortKey{Col: 0, Desc: true})
}

// revenuePerSupplier is Q15's revenue view.
func revenuePerSupplier(cat *storage.Catalog) exec.Op {
	l := exec.NewScan(cat.Table("lineitem"), "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate")
	lm := l.Meta()
	lf := exec.NewFilter(l, exec.And(
		exec.Ge(col(lm, "l_shipdate"), ci(Date(1996, 1, 1))),
		exec.Lt(col(lm, "l_shipdate"), ci(Date(1996, 4, 1)))))
	return exec.NewHashAgg(lf,
		[]string{"supplier_no"}, []*e{col(lm, "l_suppkey")},
		[]exec.AggExpr{{Func: agg.Sum, Arg: revenue(lm), Name: "total_revenue"}})
}

// q15: top supplier.
func q15(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
	rev := revenuePerSupplier(cat)
	rm := rev.Meta()
	maxRev := exec.NewHashAgg(revenuePerSupplier(cat), nil, nil,
		[]exec.AggExpr{{Func: agg.Max, Arg: exec.ColIdx(rm, 1), Name: "max_revenue"}})
	cross := exec.NewHashJoin(exec.Inner, rev, maxRev, nil, nil, []string{"max_revenue"})
	cm := cross.Meta()
	top := exec.NewFilter(cross, exec.Eq(col(cm, "total_revenue"), col(cm, "max_revenue")))
	s := exec.NewScan(cat.Table("supplier"), "s_suppkey", "s_name", "s_address", "s_phone")
	j := exec.NewHashJoin(exec.Inner, top, s,
		[]string{"supplier_no"}, []string{"s_suppkey"},
		[]string{"s_name", "s_address", "s_phone"})
	jm := j.Meta()
	out := exec.NewProject(j,
		[]string{"s_suppkey", "s_name", "s_address", "s_phone", "total_revenue"},
		[]*e{col(jm, "supplier_no"), col(jm, "s_name"), col(jm, "s_address"),
			col(jm, "s_phone"), col(jm, "total_revenue")})
	return exec.Run(qc, out).OrderBy(exec.SortKey{Col: 0})
}

// q16: parts/supplier relationship.
func q16(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
	p := exec.NewScan(cat.Table("part"), "p_partkey", "p_brand", "p_type", "p_size")
	pm := p.Meta()
	pf := exec.NewFilter(p, exec.And(exec.And(
		exec.Ne(col(pm, "p_brand"), cs("Brand#45")),
		exec.NotLike(col(pm, "p_type"), "MEDIUM POLISHED%")),
		exec.In(col(pm, "p_size"), ci(49), ci(14), ci(23), ci(45), ci(19), ci(3), ci(36), ci(9))))
	ps := exec.NewScan(cat.Table("partsupp"), "ps_partkey", "ps_suppkey")
	j := exec.NewHashJoin(exec.Inner, ps, pf,
		[]string{"ps_partkey"}, []string{"p_partkey"}, []string{"p_brand", "p_type", "p_size"})
	s := exec.NewScan(cat.Table("supplier"), "s_suppkey", "s_comment")
	sm := s.Meta()
	sf := exec.NewFilter(s, exec.Like(col(sm, "s_comment"), "%Customer%Complaints%"))
	anti := exec.NewHashJoin(exec.Anti, j, sf, []string{"ps_suppkey"}, []string{"s_suppkey"}, nil)
	am := anti.Meta()
	// COUNT(DISTINCT ps_suppkey): distinct stage, then count.
	distinct := exec.NewHashAgg(anti,
		[]string{"p_brand", "p_type", "p_size", "ps_suppkey"},
		[]*e{col(am, "p_brand"), col(am, "p_type"), col(am, "p_size"), col(am, "ps_suppkey")},
		nil)
	dm := distinct.Meta()
	h := exec.NewHashAgg(distinct,
		[]string{"p_brand", "p_type", "p_size"},
		[]*e{col(dm, "p_brand"), col(dm, "p_type"), col(dm, "p_size")},
		[]exec.AggExpr{{Func: agg.CountStar, Name: "supplier_cnt"}})
	return exec.Run(qc, h).OrderBy(
		exec.SortKey{Col: 3, Desc: true}, exec.SortKey{Col: 0},
		exec.SortKey{Col: 1}, exec.SortKey{Col: 2})
}

// q17: small-quantity-order revenue.
func q17(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
	p := exec.NewScan(cat.Table("part"), "p_partkey", "p_brand", "p_container")
	pm := p.Meta()
	pf := exec.NewFilter(p, exec.And(
		exec.Eq(col(pm, "p_brand"), cs("Brand#23")),
		exec.Eq(col(pm, "p_container"), cs("MED BOX"))))
	l1 := exec.NewScan(cat.Table("lineitem"), "l_partkey", "l_quantity", "l_extendedprice")
	j := exec.NewHashJoin(exec.Inner, l1, pf, []string{"l_partkey"}, []string{"p_partkey"}, nil)
	// Per-part average quantity over all lineitems of those parts.
	l2 := exec.NewScan(cat.Table("lineitem"), "l_partkey", "l_quantity")
	l2m := l2.Meta()
	j2 := exec.NewHashJoin(exec.Semi, l2, pf, []string{"l_partkey"}, []string{"p_partkey"}, nil)
	avgQty := exec.NewHashAgg(j2,
		[]string{"a_partkey"}, []*e{col(l2m, "l_partkey")},
		[]exec.AggExpr{{Func: exec.Avg, Arg: col(l2m, "l_quantity"), Name: "avg_qty"}})
	withAvg := exec.NewHashJoin(exec.Inner, j, avgQty,
		[]string{"l_partkey"}, []string{"a_partkey"}, []string{"avg_qty"})
	wm := withAvg.Meta()
	small := exec.NewFilter(withAvg, exec.Lt(
		exec.ToF64(col(wm, "l_quantity")),
		exec.Mul(exec.F64Const(0.2), col(wm, "avg_qty"))))
	h := exec.NewHashAgg(small, nil, nil,
		[]exec.AggExpr{{Func: agg.Sum, Arg: col(wm, "l_extendedprice"), Name: "sum_price"}})
	hm := h.Meta()
	out := exec.NewProject(h, []string{"avg_yearly"},
		[]*e{exec.Div(exec.ToF64(col(hm, "sum_price")), exec.F64Const(7))})
	return exec.Run(qc, out)
}

// q18: large volume customer.
func q18(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
	l := exec.NewScan(cat.Table("lineitem"), "l_orderkey", "l_quantity")
	lm := l.Meta()
	perOrder := exec.NewHashAgg(l,
		[]string{"g_orderkey"}, []*e{col(lm, "l_orderkey")},
		[]exec.AggExpr{{Func: agg.Sum, Arg: col(lm, "l_quantity"), Name: "sum_qty"}})
	pom := perOrder.Meta()
	big := exec.NewFilter(perOrder, exec.Gt(col(pom, "sum_qty"), ci(300)))
	o := exec.NewScan(cat.Table("orders"), "o_orderkey", "o_custkey", "o_orderdate", "o_totalprice")
	oBig := exec.NewHashJoin(exec.Inner, o, big,
		[]string{"o_orderkey"}, []string{"g_orderkey"}, []string{"sum_qty"})
	c := exec.NewScan(cat.Table("customer"), "c_custkey", "c_name")
	full := exec.NewHashJoin(exec.Inner, oBig, c,
		[]string{"o_custkey"}, []string{"c_custkey"}, []string{"c_name"})
	fm := full.Meta()
	h := exec.NewHashAgg(full,
		[]string{"c_name", "o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"},
		[]*e{col(fm, "c_name"), col(fm, "o_custkey"), col(fm, "o_orderkey"),
			col(fm, "o_orderdate"), col(fm, "o_totalprice")},
		[]exec.AggExpr{{Func: agg.Sum, Arg: col(fm, "sum_qty"), Name: "sum_qty_out"}})
	return exec.RunSorted(qc, h, []exec.SortKey{{Col: 4, Desc: true}, {Col: 3}}, 100)
}

// q20: potential part promotion.
func q20(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
	p := exec.NewScan(cat.Table("part"), "p_partkey", "p_name")
	pm := p.Meta()
	forest := exec.NewFilter(p, exec.Like(col(pm, "p_name"), "forest%"))
	l := exec.NewScan(cat.Table("lineitem"), "l_partkey", "l_suppkey", "l_quantity", "l_shipdate")
	lm := l.Meta()
	lf := exec.NewFilter(l, exec.And(
		exec.Ge(col(lm, "l_shipdate"), ci(Date(1994, 1, 1))),
		exec.Lt(col(lm, "l_shipdate"), ci(Date(1995, 1, 1)))))
	lForest := exec.NewHashJoin(exec.Semi, lf, forest, []string{"l_partkey"}, []string{"p_partkey"}, nil)
	halfQty := exec.NewHashAgg(lForest,
		[]string{"q_partkey", "q_suppkey"},
		[]*e{col(lm, "l_partkey"), col(lm, "l_suppkey")},
		[]exec.AggExpr{{Func: agg.Sum, Arg: col(lm, "l_quantity"), Name: "sum_qty"}})
	ps := exec.NewScan(cat.Table("partsupp"), "ps_partkey", "ps_suppkey", "ps_availqty")
	j := exec.NewHashJoin(exec.Inner, ps, halfQty,
		[]string{"ps_partkey", "ps_suppkey"}, []string{"q_partkey", "q_suppkey"},
		[]string{"sum_qty"})
	jmm := j.Meta()
	enough := exec.NewFilter(j, exec.Gt(
		exec.Mul(col(jmm, "ps_availqty"), ci(2)), col(jmm, "sum_qty")))
	s := exec.NewScan(cat.Table("supplier"), "s_suppkey", "s_name", "s_address", "s_nationkey")
	sSemi := exec.NewHashJoin(exec.Semi, s, enough, []string{"s_suppkey"}, []string{"ps_suppkey"}, nil)
	n := exec.NewScan(cat.Table("nation"), "n_nationkey", "n_name")
	nm := n.Meta()
	nf := exec.NewFilter(n, exec.Eq(col(nm, "n_name"), cs("CANADA")))
	full := exec.NewHashJoin(exec.Semi, sSemi, nf, []string{"s_nationkey"}, []string{"n_nationkey"}, nil)
	fm2 := full.Meta()
	out := exec.NewProject(full, []string{"s_name", "s_address"},
		[]*e{col(fm2, "s_name"), col(fm2, "s_address")})
	return exec.Run(qc, out).OrderBy(exec.SortKey{Col: 0})
}

// q21: suppliers who kept orders waiting.
func q21(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
	late := func() exec.Op {
		l := exec.NewScan(cat.Table("lineitem"), "l_orderkey", "l_suppkey", "l_commitdate", "l_receiptdate")
		lm := l.Meta()
		return exec.NewFilter(l, exec.Gt(col(lm, "l_receiptdate"), col(lm, "l_commitdate")))
	}
	// Distinct supplier counts per order: all suppliers and late ones.
	distinctCount := func(src exec.Op, keyName, cntName string) exec.Op {
		sm := src.Meta()
		d := exec.NewHashAgg(src,
			[]string{"d_orderkey", "d_suppkey"},
			[]*e{col(sm, "l_orderkey"), col(sm, "l_suppkey")}, nil)
		dm := d.Meta()
		return exec.NewHashAgg(d,
			[]string{keyName}, []*e{col(dm, "d_orderkey")},
			[]exec.AggExpr{{Func: agg.CountStar, Name: cntName}})
	}
	allSupp := distinctCount(exec.NewScan(cat.Table("lineitem"), "l_orderkey", "l_suppkey"), "ns_orderkey", "nsupp")
	lateSupp := distinctCount(late(), "nl_orderkey", "nlate")

	l1 := late()
	s := exec.NewScan(cat.Table("supplier"), "s_suppkey", "s_name", "s_nationkey")
	l1s := exec.NewHashJoin(exec.Inner, l1, s,
		[]string{"l_suppkey"}, []string{"s_suppkey"}, []string{"s_name", "s_nationkey"})
	n := exec.NewScan(cat.Table("nation"), "n_nationkey", "n_name")
	nm := n.Meta()
	nf := exec.NewFilter(n, exec.Eq(col(nm, "n_name"), cs("SAUDI ARABIA")))
	l1sn := exec.NewHashJoin(exec.Semi, l1s, nf, []string{"s_nationkey"}, []string{"n_nationkey"}, nil)
	o := exec.NewScan(cat.Table("orders"), "o_orderkey", "o_orderstatus")
	om := o.Meta()
	of := exec.NewFilter(o, exec.Eq(col(om, "o_orderstatus"), cs("F")))
	withO := exec.NewHashJoin(exec.Semi, l1sn, of, []string{"l_orderkey"}, []string{"o_orderkey"}, nil)
	withAll := exec.NewHashJoin(exec.Inner, withO, allSupp,
		[]string{"l_orderkey"}, []string{"ns_orderkey"}, []string{"nsupp"})
	withLate := exec.NewHashJoin(exec.Inner, withAll, lateSupp,
		[]string{"l_orderkey"}, []string{"nl_orderkey"}, []string{"nlate"})
	wm := withLate.Meta()
	// EXISTS other supplier <=> nsupp >= 2; NOT EXISTS other late
	// supplier <=> nlate == 1 (l1's own supplier is late by definition).
	f := exec.NewFilter(withLate, exec.And(
		exec.Ge(col(wm, "nsupp"), ci(2)),
		exec.Eq(col(wm, "nlate"), ci(1))))
	h := exec.NewHashAgg(f,
		[]string{"s_name"}, []*e{col(wm, "s_name")},
		[]exec.AggExpr{{Func: agg.CountStar, Name: "numwait"}})
	return exec.RunSorted(qc, h, []exec.SortKey{{Col: 1, Desc: true}, {Col: 0}}, 100)
}

// q22: global sales opportunity.
func q22(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
	codes := []*e{cs("13"), cs("31"), cs("23"), cs("29"), cs("30"), cs("18"), cs("17")}
	custWithCode := func() (exec.Op, []exec.Meta) {
		c := exec.NewScan(cat.Table("customer"), "c_custkey", "c_phone", "c_acctbal")
		cm := c.Meta()
		proj := exec.NewProject(c,
			[]string{"c_custkey", "c_acctbal", "cntrycode"},
			[]*e{col(cm, "c_custkey"), col(cm, "c_acctbal"),
				exec.Substr(col(cm, "c_phone"), 2)})
		pm := proj.Meta()
		f := exec.NewFilter(proj, exec.In(col(pm, "cntrycode"), codes...))
		return f, pm
	}
	// Average positive balance among those customers.
	sub, sm := custWithCode()
	pos := exec.NewFilter(sub, exec.Gt(col(sm, "c_acctbal"), ci(0)))
	avgBal := exec.NewHashAgg(pos, nil, nil,
		[]exec.AggExpr{{Func: exec.Avg, Arg: col(sm, "c_acctbal"), Name: "avg_bal"}})

	main, _ := custWithCode()
	withAvg := exec.NewHashJoin(exec.Inner, main, avgBal, nil, nil, []string{"avg_bal"})
	wm := withAvg.Meta()
	rich := exec.NewFilter(withAvg, exec.Gt(
		exec.ToF64(col(wm, "c_acctbal")), col(wm, "avg_bal")))
	o := exec.NewScan(cat.Table("orders"), "o_custkey")
	noOrders := exec.NewHashJoin(exec.Anti, rich, o, []string{"c_custkey"}, []string{"o_custkey"}, nil)
	nm := noOrders.Meta()
	h := exec.NewHashAgg(noOrders,
		[]string{"cntrycode"}, []*e{col(nm, "cntrycode")},
		[]exec.AggExpr{
			{Func: agg.CountStar, Name: "numcust"},
			{Func: agg.Sum, Arg: col(nm, "c_acctbal"), Name: "totacctbal"},
		})
	return exec.Run(qc, h).OrderBy(exec.SortKey{Col: 0})
}
