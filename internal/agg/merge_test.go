package agg

import (
	"math"
	"math/rand"
	"testing"

	"ocht/internal/core"
	"ocht/internal/domain"
	"ocht/internal/i128"
	"ocht/internal/vec"
)

// foldRecs folds the partials of records srcRecs of src — the values
// Result emits for them — into records dstRecs of dst, the way the
// parallel owners and the distributed reducer do. Both tables must have
// the layout of ag.
func foldRecs(ag *Aggregator, dst *core.Table, dstRecs []int32, src *core.Table, srcRecs []int32) {
	rows := make([]int32, len(srcRecs))
	for i := range rows {
		rows[i] = int32(i)
	}
	for ai := range ag.Specs {
		out := vec.New(ag.ResultType(ai), len(rows))
		ag.Result(src, ai, srcRecs, out, rows)
		ag.Fold(dst, ai, dstRecs, rows, out)
	}
}

// mergeInto folds every record of src into dst: load the key back,
// find-or-insert it in dst, then fold the record's partials.
func mergeInto(t *testing.T, dstTab *core.Table, dstAg *Aggregator, srcTab *core.Table) {
	t.Helper()
	n := srcTab.Len()
	for base := 0; base < n; base += vec.Size {
		cnt := min(n-base, vec.Size)
		recIdx := make([]int32, cnt)
		rows := make([]int32, cnt)
		for i := range recIdx {
			recIdx[i], rows[i] = int32(base+i), int32(i)
		}
		keys := vec.New(vec.I64, cnt)
		srcTab.LoadKey(0, recIdx, keys, rows)
		p := dstTab.Schema.Prepare([]*vec.Vector{keys}, rows)
		hashes := make([]uint64, cnt)
		dstTab.Schema.Hash(p, rows, hashes)
		recs := make([]int32, cnt)
		_, newRecs := dstTab.FindOrInsert(p, hashes, rows, recs)
		dstAg.Init(dstTab, newRecs)
		foldRecs(dstAg, dstTab, recs, srcTab, recIdx)
	}
}

// TestMergeMatchesSingleTable aggregates a data set whole and in two
// halves (folding the second table's partials into the first) under every flag
// combination, and demands identical per-group results. The value
// distribution forces the optimistic machinery through its exception
// paths: sums carry past 64 bits, per-group counts overflow the 16-bit
// hot counter, min/max values exceed the 32-bit hot bound range.
func TestMergeMatchesSingleTable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 160_000
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = int64(rng.Intn(2)) // few groups: counts overflow 0xFFFF
		switch rng.Intn(3) {
		case 0:
			vals[i] = math.MaxInt64 - int64(rng.Intn(7)) // sum carries
		case 1:
			vals[i] = -(math.MaxInt64 - int64(rng.Intn(7)))
		default:
			vals[i] = rng.Int63n(1<<40) - 1<<39 // beyond 32-bit bounds
		}
	}
	keyDom := domain.New(0, 4)
	valDom := domain.New(math.MinInt64+1, math.MaxInt64)
	specs := []Spec{
		{Func: Sum, InType: vec.I64, InDom: valDom, MaxRows: 1 << 40},
		{Func: Count, InType: vec.I64, InDom: valDom, MaxRows: n},
		{Func: CountStar, MaxRows: n},
		{Func: Min, InType: vec.I64, InDom: valDom, MaxRows: n},
		{Func: Max, InType: vec.I64, InDom: valDom, MaxRows: n},
	}
	for _, flags := range []core.Flags{
		{},
		{Compress: true},
		{Split: true},
		{Compress: true, Split: true},
	} {
		whole, _, _ := aggHarness(t, flags, specs, keys, vals, keyDom)
		_, tabA, agA := aggHarness(t, flags, specs, keys[:n/2], vals[:n/2], keyDom)
		_, tabB, _ := aggHarness(t, flags, specs, keys[n/2:], vals[n/2:], keyDom)
		mergeInto(t, tabA, agA, tabB)

		// Re-extract tabA's merged state and compare per key.
		nG := tabA.Len()
		recIdx := make([]int32, nG)
		rows := make([]int32, nG)
		for i := range recIdx {
			recIdx[i], rows[i] = int32(i), int32(i)
		}
		keyOut := vec.New(vec.I64, nG)
		tabA.LoadKey(0, recIdx, keyOut, rows)
		for ai := range specs {
			out := vec.New(agA.ResultType(ai), nG)
			agA.Result(tabA, ai, recIdx, out, rows)
			for i := 0; i < nG; i++ {
				var got i128.Int
				if out.Typ == vec.I128 {
					got = out.I128[i]
				} else {
					got = i128.FromInt64(out.I64[i])
				}
				want := whole[keyOut.I64[i]][ai]
				if got != want {
					t.Errorf("flags %+v agg %d key %d: merged %v want %v",
						flags, ai, keyOut.I64[i], got, want)
				}
			}
		}
	}
}

// TestMergeDisjointKeys checks that merging tables with non-overlapping
// key sets inserts the source groups unchanged.
func TestMergeDisjointKeys(t *testing.T) {
	keyDom := domain.New(0, 100)
	valDom := domain.New(-1000, 1000)
	specs := []Spec{
		{Func: Sum, InType: vec.I64, InDom: valDom, MaxRows: 10},
		{Func: Min, InType: vec.I64, InDom: valDom, MaxRows: 10},
	}
	flags := core.Flags{Compress: true, Split: true}
	_, tabA, agA := aggHarness(t, flags, specs, []int64{1, 1, 2}, []int64{10, 20, 30}, keyDom)
	_, tabB, _ := aggHarness(t, flags, specs, []int64{7, 7}, []int64{-5, 40}, keyDom)
	mergeInto(t, tabA, agA, tabB)
	if tabA.Len() != 3 {
		t.Fatalf("merged table has %d groups, want 3", tabA.Len())
	}
	recIdx := []int32{0, 1, 2}
	rows := []int32{0, 1, 2}
	keyOut := vec.New(vec.I64, 3)
	tabA.LoadKey(0, recIdx, keyOut, rows)
	sum := vec.New(agA.ResultType(0), 3)
	min := vec.New(agA.ResultType(1), 3)
	agA.Result(tabA, 0, recIdx, sum, rows)
	agA.Result(tabA, 1, recIdx, min, rows)
	want := map[int64][2]int64{1: {30, 10}, 2: {30, 30}, 7: {35, -5}}
	for i := 0; i < 3; i++ {
		w, okKey := want[keyOut.I64[i]]
		if !okKey {
			t.Fatalf("unexpected key %d", keyOut.I64[i])
		}
		var s int64
		if sum.Typ == vec.I128 {
			s = sum.I128[i].Int64()
		} else {
			s = sum.I64[i]
		}
		if s != w[0] || min.I64[i] != w[1] {
			t.Errorf("key %d: sum %d min %d, want %d %d", keyOut.I64[i], s, min.I64[i], w[0], w[1])
		}
	}
}
