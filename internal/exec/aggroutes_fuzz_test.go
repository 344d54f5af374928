package exec

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"ocht/internal/agg"
	"ocht/internal/core"
	"ocht/internal/storage"
	"ocht/internal/vec"
)

// fuzzAggRow is one generated row of FuzzAggRoutes; nil pointers are NULLs.
type fuzzAggRow struct {
	k    *int64
	s, t *string
	v, a *int64
}

// FuzzAggRoutes checks the aggregation routes — HashAgg at the given
// worker count and radix width, and Exchange→MergeAgg over the input
// split in two — against a Go-map / math/big reference. The dimensions:
// group count below and above what one flush budget holds, keys in
// clustered or random order (so workers keep pre-aggregating or switch to
// spilling rows), NULL density in keys and arguments, and the flag set.
func FuzzAggRoutes(f *testing.F) {
	seed := int64(0)
	for _, groups := range []uint32{40, 40_000} {
		for _, workers := range []uint8{1, 2, 4} {
			for _, bits := range []uint8{0, 3} {
				nulls := 40 * (workers % 2) // no NULLs at 2 workers
				f.Add(seed, groups, nulls, nulls/2, workers, bits, workers == 2)
				seed++
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, groups uint32, keyNulls, argNulls, workers, bits uint8, clustered bool) {
		const n = 20_000
		groups = 1 + groups%60_000
		w := []int{1, 2, 4}[workers%3]
		b := int(bits%2) * 3
		rng := rand.New(rand.NewSource(seed))
		p := func(x int64) *int64 { return &x }
		str := func(s string) *string { return &s }
		rows := make([]fuzzAggRow, n)
		for i := range rows {
			r := &rows[i]
			k := int64(rng.Intn(int(groups)))
			if clustered {
				k = int64(i) * int64(groups) / n
			}
			if rng.Intn(100) >= int(keyNulls) {
				r.k = p(k)
			}
			if rng.Intn(100) >= int(keyNulls) {
				r.s = str(fmt.Sprintf("s%d", k%7))
			}
			if rng.Intn(100) >= int(argNulls) {
				r.v = p(rng.Int63n(1<<20) - 1<<19)
				if rng.Intn(8) == 0 {
					r.v = p(math.MaxInt64 - rng.Int63n(1<<10)) // SUM carries past 64 bits
				}
				r.a = p(rng.Int63n(1000) - 500)
				r.t = str(fmt.Sprintf("t%03d", rng.Intn(500)))
			}
		}
		want := fuzzAggReference(rows)
		whole := fuzzAggTable(rows)
		halves := []*storage.Table{fuzzAggTable(rows[:n/3]), fuzzAggTable(rows[n/3:])}
		flags := []core.Flags{core.Vanilla(), core.All()}[seed>>1&1]
		check := func(route string, got []string) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d groups, reference %d", flagName(flags), route, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: group %d:\n got  %s\n want %s", flagName(flags), route, i, got[i], want[i])
				}
			}
		}
		qc := NewQCtx(flags)
		qc.Workers = w
		check(fmt.Sprintf("w%d/bits%d", w, b), sortedRows(Run(qc, fuzzAggPlan(whole, b, false))))

		var gathered *Result
		for _, half := range halves {
			r := Run(NewQCtx(flags), fuzzAggPlan(half, b, true))
			if gathered == nil {
				gathered = r
			} else {
				gathered.Rows = append(gathered.Rows, r.Rows...)
			}
		}
		merge := NewMergeAgg(NewExchange(gathered.Names, gathered.Types, gathered.Rows), 2, []MergeSpec{
			{Func: agg.Sum, Col: 2, Cnt: 3, Name: "sum_v"},
			{Func: agg.Count, Col: 3, Cnt: -1, Name: "n_v"},
			{Func: agg.CountStar, Col: 4, Cnt: -1, Name: "n"},
			{Func: agg.Min, Col: 5, Cnt: 3, Name: "min_v"},
			{Func: agg.Max, Col: 6, Cnt: 3, Name: "max_v"},
			{Func: agg.Min, Col: 7, Cnt: 3, Name: "min_t"},
			{Func: agg.Max, Col: 8, Cnt: 3, Name: "max_t"},
			{Func: Avg, Col: 9, Cnt: 10, Name: "avg_a"},
		})
		check("exchange-merge", sortedRows(Run(NewQCtx(flags), merge)))
	})
}

func fuzzAggTable(rows []fuzzAggRow) *storage.Table {
	k := storage.NewColumn("k", vec.I64, true)
	s := storage.NewColumn("s", vec.Str, true)
	v := storage.NewColumn("v", vec.I64, true)
	a := storage.NewColumn("a", vec.I32, true)
	tc := storage.NewColumn("t", vec.Str, true)
	for _, r := range rows {
		for _, c := range []struct {
			col *storage.Column
			x   *int64
		}{{k, r.k}, {v, r.v}, {a, r.a}} {
			if c.x == nil {
				c.col.AppendNull()
			} else {
				c.col.AppendInt(*c.x)
			}
		}
		for _, c := range []struct {
			col *storage.Column
			x   *string
		}{{s, r.s}, {tc, r.t}} {
			if c.x == nil {
				c.col.AppendNull()
			} else {
				c.col.AppendString(*c.x)
			}
		}
	}
	tab := storage.NewTable("fuzzagg", k, s, v, a, tc)
	tab.Seal()
	return tab
}

// fuzzAggPlan groups tab by (k, s). With partials set it is the shard
// fragment of a distributed plan: AVG ships as SUM and COUNT, and the
// COUNT of v ships for SUM, MIN and MAX.
func fuzzAggPlan(tab *storage.Table, bits int, partials bool) *HashAgg {
	sc := NewScan(tab, "k", "s", "v", "a", "t")
	m := sc.Meta()
	aggs := []AggExpr{
		{Func: agg.Sum, Arg: Col(m, "v"), Name: "sum_v"},
		{Func: agg.Count, Arg: Col(m, "v"), Name: "n_v"},
		{Func: agg.CountStar, Name: "n"},
		{Func: agg.Min, Arg: Col(m, "v"), Name: "min_v"},
		{Func: agg.Max, Arg: Col(m, "v"), Name: "max_v"},
		{Func: agg.Min, Arg: Col(m, "t"), Name: "min_t"},
		{Func: agg.Max, Arg: Col(m, "t"), Name: "max_t"},
	}
	if partials {
		aggs = append(aggs,
			AggExpr{Func: agg.Sum, Arg: Col(m, "a"), Name: "avg_sum"},
			AggExpr{Func: agg.Count, Arg: Col(m, "a"), Name: "avg_cnt"})
	} else {
		aggs = append(aggs, AggExpr{Func: Avg, Arg: Col(m, "a"), Name: "avg_a"})
	}
	h := NewHashAgg(sc, []string{"k", "s"}, []*Expr{Col(m, "k"), Col(m, "s")}, aggs)
	h.PartitionBits = bits
	return h
}

// fuzzAggReference renders the groups of rows like sortedRows does.
func fuzzAggReference(rows []fuzzAggRow) []string {
	type group struct {
		key        string
		sum        *big.Int
		cntV, cnt  int64
		minV, maxV int64
		minT, maxT *string
		sumA, cntA int64
	}
	groups := map[string]*group{}
	for _, r := range rows {
		key := "NULL|"
		if r.k != nil {
			key = fmt.Sprintf("%d|", *r.k)
		}
		if r.s != nil {
			key += *r.s + "|"
		} else {
			key += "NULL|"
		}
		gr := groups[key]
		if gr == nil {
			gr = &group{key: key, sum: new(big.Int), minV: math.MaxInt64, maxV: math.MinInt64}
			groups[key] = gr
		}
		gr.cnt++
		if r.v != nil {
			gr.sum.Add(gr.sum, big.NewInt(*r.v))
			gr.cntV++
			gr.minV, gr.maxV = min(gr.minV, *r.v), max(gr.maxV, *r.v)
			gr.sumA += *r.a
			gr.cntA++
			if gr.minT == nil || *r.t < *gr.minT {
				gr.minT = r.t
			}
			if gr.maxT == nil || *r.t > *gr.maxT {
				gr.maxT = r.t
			}
		}
	}
	var out []string
	for _, gr := range groups {
		sum, minV, maxV, minT, maxT, avgA := "NULL", "NULL", "NULL", "NULL", "NULL", "NULL"
		if gr.cntV > 0 {
			sum, minV, maxV = gr.sum.String(), fmt.Sprint(gr.minV), fmt.Sprint(gr.maxV)
			minT, maxT = *gr.minT, *gr.maxT
			avgA = fmt.Sprintf("%.4f", float64(gr.sumA)/float64(gr.cntA))
		}
		out = append(out, fmt.Sprintf("%s%s|%d|%d|%s|%s|%s|%s|%s|", gr.key, sum, gr.cntV, gr.cnt,
			minV, maxV, minT, maxT, avgA))
	}
	sort.Strings(out)
	return out
}
