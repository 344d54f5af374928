package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ocht/internal/agg"
	"ocht/internal/core"
	"ocht/internal/storage"
	"ocht/internal/vec"
)

// shardSales splits the sales fixture into k disjoint storage tables the
// way hash partitioning would, with deliberately skewed shard sizes.
func shardSales(n, k int) []*storage.Table {
	regions := []string{"north", "south", "east", "west"}
	rng := rand.New(rand.NewSource(77)) // same stream as salesTable
	cols := make([][]*storage.Column, k)
	for s := range cols {
		cols[s] = []*storage.Column{
			storage.NewColumn("region", vec.Str, false),
			storage.NewColumn("qty", vec.I32, false),
			storage.NewColumn("price", vec.I64, false),
			storage.NewColumn("note", vec.Str, true),
		}
	}
	for i := 0; i < n; i++ {
		// Skew: shard 0 takes half of everything.
		s := (i * 2) % (2 * k)
		if s >= k {
			s = 0
		}
		c := cols[s]
		c[0].AppendString(regions[i%len(regions)])
		c[1].AppendInt(int64(rng.Intn(50)) + 1)
		c[2].AppendInt(int64(rng.Intn(10000)) + 100)
		if i%7 == 0 {
			c[3].AppendNull()
		} else {
			c[3].AppendString(fmt.Sprintf("note-%d", i%10))
		}
	}
	out := make([]*storage.Table, k)
	for s := range out {
		out[s] = storage.NewTable("sales", cols[s]...)
		out[s].Seal()
	}
	return out
}

// shardAggPlan is the pushed-down shard fragment: group keys plus
// decomposed partial aggregates (AVG shipped as SUM + COUNT).
func shardAggPlan(tbl *storage.Table, keyCol string) *HashAgg {
	scan := NewScan(tbl, "region", "qty", "price", "note")
	meta := scan.Meta()
	col := func(name string) *Expr {
		for i, m := range meta {
			if m.Name == name {
				return ColIdx(meta, i)
			}
		}
		panic("no column " + name)
	}
	return NewHashAgg(scan,
		[]string{keyCol}, []*Expr{col(keyCol)},
		[]AggExpr{
			{Func: agg.Sum, Arg: col("price"), Name: "s_price"},
			{Func: agg.Count, Arg: col("note"), Name: "c_note"},
			{Func: agg.CountStar, Name: "c_star"},
			{Func: agg.Min, Arg: col("qty"), Name: "min_qty"},
			{Func: agg.Max, Arg: col("qty"), Name: "max_qty"},
			{Func: agg.Min, Arg: col("note"), Name: "min_note"},
			{Func: agg.Max, Arg: col("note"), Name: "max_note"},
			{Func: agg.Sum, Arg: col("price"), Name: "a_sum"},
			{Func: agg.Count, Arg: col("price"), Name: "a_cnt"},
		})
}

// TestMergeAggMatchesSingleNode runs the full scatter-gather path
// in-process: per-shard HashAgg fragments produce finalized partials,
// their materialized rows cross a (simulated) exchange boundary, and
// MergeAgg reduces them. The result must match running the equivalent
// single aggregation over the whole data set, for every flag combination
// and shard count, with AVG finalized from shipped SUM/COUNT pairs.
func TestMergeAggMatchesSingleNode(t *testing.T) {
	const n = 4000
	whole := salesTable(n)
	for _, keyCol := range []string{"region", "note"} {
		for _, k := range []int{1, 2, 4} {
			shards := shardSales(n, k)
			for _, f := range allFlags {
				// Single-node oracle (AVG computed natively).
				oc := NewQCtx(f)
				scan := NewScan(whole, "region", "qty", "price", "note")
				meta := scan.Meta()
				col := func(name string) *Expr {
					for i, m := range meta {
						if m.Name == name {
							return ColIdx(meta, i)
						}
					}
					panic("no column " + name)
				}
				oracle := Run(oc, NewHashAgg(scan,
					[]string{keyCol}, []*Expr{col(keyCol)},
					[]AggExpr{
						{Func: agg.Sum, Arg: col("price"), Name: "s_price"},
						{Func: agg.Count, Arg: col("note"), Name: "c_note"},
						{Func: agg.CountStar, Name: "c_star"},
						{Func: agg.Min, Arg: col("qty"), Name: "min_qty"},
						{Func: agg.Max, Arg: col("qty"), Name: "max_qty"},
						{Func: agg.Min, Arg: col("note"), Name: "min_note"},
						{Func: agg.Max, Arg: col("note"), Name: "max_note"},
						{Func: Avg, Arg: col("price"), Name: "avg_price"},
					}))

				// Shard fragments, then the coordinator reduction.
				var rows [][]Value
				var types []vec.Type
				var names []string
				for _, st := range shards {
					sq := NewQCtx(f)
					r := Run(sq, shardAggPlan(st, keyCol))
					if types == nil {
						types, names = r.Types, r.Names
					}
					rows = append(rows, r.Rows...)
				}
				mc := NewQCtx(f)
				merge := NewMergeAgg(NewExchange(names, types, rows), 1, []MergeSpec{
					{Func: agg.Sum, Col: 1, Cnt: -1, Name: "s_price"},
					{Func: agg.Count, Col: 2, Cnt: -1, Name: "c_note"},
					{Func: agg.CountStar, Col: 3, Cnt: -1, Name: "c_star"},
					{Func: agg.Min, Col: 4, Cnt: -1, Name: "min_qty"},
					{Func: agg.Max, Col: 5, Cnt: -1, Name: "max_qty"},
					{Func: agg.Min, Col: 6, Cnt: -1, Name: "min_note"},
					{Func: agg.Max, Col: 7, Cnt: -1, Name: "max_note"},
					{Func: Avg, Col: 8, Cnt: 9, Name: "avg_price"},
				})
				got := Run(mc, merge)

				if len(got.Rows) != len(oracle.Rows) {
					t.Fatalf("key %s shards %d flags %s: %d merged groups, oracle %d",
						keyCol, k, flagName(f), len(got.Rows), len(oracle.Rows))
				}
				// Value.String renders I64 and I128 identically, so textual
				// comparison is numeric comparison here.
				if !reflect.DeepEqual(sortedRows(got), sortedRows(oracle)) {
					t.Errorf("key %s shards %d flags %s: merged result differs\n got: %v\nwant: %v",
						keyCol, k, flagName(f), sortedRows(got), sortedRows(oracle))
				}
			}
		}
	}
}

// TestMergeAggClone checks that a cached distributed merge plan clones
// cleanly and the clone reproduces the original's result.
func TestMergeAggClone(t *testing.T) {
	rows := [][]Value{
		{{Typ: vec.Str, S: "a"}, {Typ: vec.I64, I: 3}},
		{{Typ: vec.Str, S: "a"}, {Typ: vec.I64, I: 4}},
		{{Typ: vec.Str, Null: true}, {Typ: vec.I64, I: 5}},
	}
	mk := func() Op {
		return NewMergeAgg(
			NewExchange([]string{"k", "c"}, []vec.Type{vec.Str, vec.I64}, rows),
			1, []MergeSpec{{Func: agg.Count, Col: 1, Cnt: -1, Name: "c"}})
	}
	base := mk()
	clone := ClonePlan(base)
	f := core.Flags{}
	a := Run(NewQCtx(f), base)
	b := Run(NewQCtx(f), clone)
	if !reflect.DeepEqual(sortedRows(a), sortedRows(b)) {
		t.Errorf("cloned merge plan differs: %v vs %v", sortedRows(a), sortedRows(b))
	}
	want := map[string]int64{"a": 7, "NULL": 5}
	for _, row := range a.Rows {
		if row[1].I != want[row[0].String()] {
			t.Errorf("group %s count %d, want %d", row[0].String(), row[1].I, want[row[0].String()])
		}
	}
}

// TestMergeAggCountDomain merges shard counts whose total exceeds the
// gathered row count: a merged COUNT is a sum of shard counts, so the
// exchange's row count must not be declared as its bound. Every emitted
// value has to lie inside its column's declared domain, and a filter on
// the merged count above the merge has to see the real value.
func TestMergeAggCountDomain(t *testing.T) {
	rows := [][]Value{
		{{Typ: vec.Str, S: "a"}, {Typ: vec.I64, I: 1_000_000}},
		{{Typ: vec.Str, S: "a"}, {Typ: vec.I64, I: 1_000_000}},
	}
	mk := func() *MergeAgg {
		return NewMergeAgg(
			NewExchange([]string{"k", "c"}, []vec.Type{vec.Str, vec.I64}, rows),
			1, []MergeSpec{{Func: agg.Count, Col: 1, Cnt: -1, Name: "c"}})
	}
	for _, f := range allFlags {
		m := mk()
		res := Run(NewQCtx(f), m)
		if len(res.Rows) != 1 || res.Rows[0][1].I != 2_000_000 {
			t.Fatalf("flags %s: merged rows %v, want one group counting 2000000", flagName(f), res.Rows)
		}
		for _, row := range res.Rows {
			for ci, v := range row {
				if d := m.Meta()[ci].Dom; d.Valid && v.Typ != vec.Str && !d.Contains(v.I) {
					t.Errorf("flags %s: column %s emits %d outside its declared domain %s",
						flagName(f), m.Meta()[ci].Name, v.I, d)
				}
			}
		}
		m = mk()
		kept := Run(NewQCtx(f), NewFilter(m, Gt(Col(m.Meta(), "c"), Int(1_500_000))))
		if len(kept.Rows) != 1 {
			t.Errorf("flags %s: filter c > 1500000 above the merge kept %d rows, want 1", flagName(f), len(kept.Rows))
		}
	}
}
