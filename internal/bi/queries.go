package bi

import (
	"fmt"

	"ocht/internal/agg"
	"ocht/internal/exec"
	"ocht/internal/storage"
)

type e = exec.Expr

var (
	col = exec.Col
	ci  = exec.Int
	cs  = exec.Str
)

// Q runs BI workload query n (1..20). The mix follows the paper's
// CommonGovernment profile: almost all queries are aggregations over
// string columns with small results, a few (Q6, Q8, Q20) group on
// very-high-cardinality strings whose dictionaries overflow the USSR.
func Q(n int, cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
	if n < 1 || n > 20 {
		panic(fmt.Sprintf("bi: no query %d", n))
	}
	return biQueries[n-1](cat, qc)
}

// NumQueries is the number of workload queries.
const NumQueries = 20

// groupCount builds SELECT keys..., COUNT(*), SUM(amount) FROM contracts
// [WHERE pred] GROUP BY keys. extra lists additional columns the predicate
// touches.
func groupCount(cat *storage.Catalog, qc *exec.QCtx, keys []string, pred func(m []exec.Meta) *e, extra ...string) *exec.Result {
	cols := append([]string{}, keys...)
	cols = append(cols, "amount")
	for _, x := range extra {
		dup := false
		for _, c := range cols {
			if c == x {
				dup = true
				break
			}
		}
		if !dup {
			cols = append(cols, x)
		}
	}
	s := exec.NewScan(cat.Table("contracts"), cols...)
	m := s.Meta()
	var src exec.Op = s
	if pred != nil {
		src = exec.NewFilter(s, pred(m))
	}
	keyExprs := make([]*e, len(keys))
	for i, k := range keys {
		keyExprs[i] = col(m, k)
	}
	h := exec.NewHashAgg(src, keys, keyExprs, []exec.AggExpr{
		{Func: agg.CountStar, Name: "cnt"},
		{Func: agg.Sum, Arg: col(m, "amount"), Name: "total"},
	})
	return exec.RunSorted(qc, h, []exec.SortKey{{Col: len(keys), Desc: true}}, 1000)
}

var biQueries = [NumQueries]func(*storage.Catalog, *exec.QCtx) *exec.Result{
	// Q1: spend per agency — low-cardinality long strings, the USSR
	// sweet spot.
	func(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
		return groupCount(cat, qc, []string{"agency"}, nil)
	},
	// Q2: contracts per status — tiny dictionary.
	func(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
		return groupCount(cat, qc, []string{"status"}, nil)
	},
	// Q3: agency x status matrix.
	func(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
		return groupCount(cat, qc, []string{"agency", "status"}, nil)
	},
	// Q4: contract types.
	func(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
		return groupCount(cat, qc, []string{"contract_type"}, nil)
	},
	// Q5: spend per vendor — medium cardinality (thousands of strings).
	func(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
		return groupCount(cat, qc, []string{"vendor"}, nil)
	},
	// Q6: count per description — near-unique strings; the dictionary
	// does not fit the USSR (the paper's rejection regime).
	func(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
		return groupCount(cat, qc, []string{"description"}, nil)
	},
	// Q7: spend per product code — large dictionary, partially resident.
	func(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
		return groupCount(cat, qc, []string{"product"}, nil)
	},
	// Q8: award ids of one year — another overflowing dictionary.
	func(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
		return groupCount(cat, qc, []string{"award_id"}, func(m []exec.Meta) *e {
			return exec.Eq(col(m, "year"), ci(2015))
		}, "year")
	},
	// Q9: state x contract type.
	func(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
		return groupCount(cat, qc, []string{"state", "contract_type"}, nil)
	},
	// Q10: departments of active contracts (NULL-able group key).
	func(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
		return groupCount(cat, qc, []string{"dept"}, func(m []exec.Meta) *e {
			return exec.Eq(col(m, "status"), cs("ACTIVE"))
		}, "status")
	},
	// Q11: product x year.
	func(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
		return groupCount(cat, qc, []string{"product", "year"}, nil)
	},
	// Q12: big-ticket agencies.
	func(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
		return groupCount(cat, qc, []string{"agency"}, func(m []exec.Meta) *e {
			return exec.Gt(col(m, "amount"), ci(5_000_000))
		})
	},
	// Q13: agency x year trend.
	func(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
		return groupCount(cat, qc, []string{"agency", "year_str"}, nil)
	},
	// Q14: California vendors.
	func(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
		return groupCount(cat, qc, []string{"vendor"}, func(m []exec.Meta) *e {
			return exec.Eq(col(m, "state"), cs("CALIFORNIA"))
		}, "state")
	},
	// Q15: spend per state, known states only.
	func(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
		return groupCount(cat, qc, []string{"state"}, func(m []exec.Meta) *e {
			return exec.IsNotNull(col(m, "state"))
		})
	},
	// Q16: three-way string group.
	func(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
		return groupCount(cat, qc, []string{"agency", "contract_type", "status"}, nil)
	},
	// Q17: recent expired contracts per agency.
	func(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
		return groupCount(cat, qc, []string{"agency"}, func(m []exec.Meta) *e {
			return exec.And(
				exec.Ge(col(m, "year"), ci(2016)),
				exec.Eq(col(m, "status"), cs("EXPIRED")))
		}, "year", "status")
	},
	// Q18: departments overall.
	func(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
		return groupCount(cat, qc, []string{"dept"}, nil)
	},
	// Q19: the year-stored-as-string column the workload study calls out.
	func(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
		return groupCount(cat, qc, []string{"year_str", "status"}, nil)
	},
	// Q20: vendor join + grouping on award ids — a large unified
	// dictionary plus a join, the paper's third no-benefit query.
	func(cat *storage.Catalog, qc *exec.QCtx) *exec.Result {
		c := exec.NewScan(cat.Table("contracts"), "vendor", "award_id", "amount", "year")
		cm := c.Meta()
		cf := exec.NewFilter(c, exec.Lt(col(cm, "year"), ci(2013)))
		v := exec.NewScan(cat.Table("vendors"), "v_name", "v_state")
		j := exec.NewHashJoin(exec.Inner, cf, v,
			[]string{"vendor"}, []string{"v_name"}, []string{"v_state"})
		jm := j.Meta()
		h := exec.NewHashAgg(j,
			[]string{"award_id", "v_state"},
			[]*e{col(jm, "award_id"), col(jm, "v_state")},
			[]exec.AggExpr{{Func: agg.Sum, Arg: col(jm, "amount"), Name: "total"}})
		return exec.RunSorted(qc, h, []exec.SortKey{{Col: 2, Desc: true}}, 1000)
	},
}
