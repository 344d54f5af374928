package agg

import (
	"math"
	"testing"

	"ocht/internal/core"
	"ocht/internal/domain"
	"ocht/internal/i128"
	"ocht/internal/strs"
	"ocht/internal/vec"
)

// allFlagCombos are the flag settings a distributed reducer can meet:
// every optimistic layout kind appears under at least one of them.
var allFlagCombos = []core.Flags{
	{},
	{Compress: true},
	{Split: true},
	{Compress: true, Split: true},
}

// TestMergeEmptyPartialIdentity checks that folding the partials of a
// freshly initialized record — a worker or shard that saw zero values for
// the group — into a populated record leaves every aggregate unchanged,
// and that folding an empty record into itself keeps the initial state:
// the Init sentinels (MaxInt64 for MIN, MinInt64 for MAX, zero sums and
// counts) must act as fold identities.
func TestMergeEmptyPartialIdentity(t *testing.T) {
	keyDom := domain.New(0, 4)
	valDom := domain.New(-1000, math.MaxInt64)
	specs := []Spec{
		{Func: Sum, InType: vec.I64, InDom: valDom, MaxRows: 1 << 40},
		{Func: Count, InType: vec.I64, InDom: valDom, MaxRows: 1 << 20},
		{Func: Min, InType: vec.I64, InDom: valDom, MaxRows: 1 << 20},
		{Func: Max, InType: vec.I64, InDom: valDom, MaxRows: 1 << 20},
	}
	for _, flags := range allFlagCombos {
		want, tabA, agA := aggHarness(t, flags, specs,
			[]int64{1, 1, 1}, []int64{7, -3, 1 << 40}, keyDom)

		// An "empty shard": same key inserted, Init run, no updates.
		store := strs.NewStore(flags.UseUSSR)
		schema, err := core.NewKeySchema(flags, []core.KeyCol{{Name: "k", Type: vec.I64, Dom: keyDom}}, store)
		if err != nil {
			t.Fatal(err)
		}
		agB := NewAggregator(flags, specs)
		tabB := core.NewTable(schema, agB.HotBytes, agB.ColdBytes, 4)
		kv := vec.New(vec.I64, 1)
		kv.I64[0] = 1
		rows := []int32{0}
		p := schema.Prepare([]*vec.Vector{kv}, rows)
		hashes := make([]uint64, 1)
		schema.Hash(p, rows, hashes)
		recs := make([]int32, 1)
		_, newRecs := tabB.FindOrInsert(p, hashes, rows, recs)
		agB.Init(tabB, newRecs)

		// empty → populated: no change.
		mergeInto(t, tabA, agA, tabB)
		got := extractByKey(t, tabA, agA, len(specs))
		for ai := range specs {
			if got[1][ai] != want[1][ai] {
				t.Errorf("flags %+v agg %d: empty-partial merge changed %v to %v",
					flags, ai, want[1][ai], got[1][ai])
			}
		}

		// empty → empty: still the identity (MIN sentinel MaxInt64, MAX
		// sentinel MinInt64, zero sum/count).
		foldRecs(agB, tabB, recs, tabB, recs)
		emptied := extractByKey(t, tabB, agB, len(specs))
		wantEmpty := []i128.Int{
			i128.FromInt64(0), i128.FromInt64(0),
			i128.FromInt64(MinInitExcept), i128.FromInt64(MaxInitExcept),
		}
		for ai := range specs {
			if emptied[1][ai] != wantEmpty[ai] {
				t.Errorf("flags %+v agg %d: empty+empty merge = %v, want identity %v",
					flags, ai, emptied[1][ai], wantEmpty[ai])
			}
		}
	}
}

// TestMergeSingleShardOnlyGroups pins the case where hash partitioning
// sends every row of some groups to one shard: after merging, groups
// present on only one side must come through bit-exact under every flag
// combination, alongside groups both shards touched.
func TestMergeSingleShardOnlyGroups(t *testing.T) {
	keyDom := domain.New(0, 10)
	valDom := domain.New(math.MinInt64+1, math.MaxInt64)
	specs := []Spec{
		{Func: Sum, InType: vec.I64, InDom: valDom, MaxRows: 1 << 40},
		{Func: CountStar, MaxRows: 1 << 20},
		{Func: Min, InType: vec.I64, InDom: valDom, MaxRows: 1 << 20},
		{Func: Max, InType: vec.I64, InDom: valDom, MaxRows: 1 << 20},
	}
	// Key 3 lives only on shard A, key 7 only on shard B, key 5 on both.
	keysA := []int64{3, 3, 5}
	valsA := []int64{math.MaxInt64 - 2, -17, 40}
	keysB := []int64{7, 5, 7}
	valsB := []int64{-(math.MaxInt64 - 5), -40, 1 << 45}
	whole, _, _ := aggHarness(t, core.Flags{}, specs,
		append(append([]int64{}, keysA...), keysB...),
		append(append([]int64{}, valsA...), valsB...), keyDom)
	for _, flags := range allFlagCombos {
		_, tabA, agA := aggHarness(t, flags, specs, keysA, valsA, keyDom)
		_, tabB, _ := aggHarness(t, flags, specs, keysB, valsB, keyDom)
		mergeInto(t, tabA, agA, tabB)
		if tabA.Len() != 3 {
			t.Fatalf("flags %+v: merged table has %d groups, want 3", flags, tabA.Len())
		}
		got := extractByKey(t, tabA, agA, len(specs))
		for k, wantAggs := range whole {
			for ai, w := range wantAggs {
				if got[k][ai] != w {
					t.Errorf("flags %+v key %d agg %d: merged %v want %v",
						flags, k, ai, got[k][ai], w)
				}
			}
		}
	}
}

// TestMergeSkewedMinMaxCarries drives the split MIN/MAX layouts through a
// skewed shard split: one shard holds a single extreme row per group, the
// other holds everything else, with values beyond the 32-bit hot bound
// range and below the domain minimum used for bound clamping. The merge
// must carry the exact cold value and the winner's saturating bound in
// both merge directions.
func TestMergeSkewedMinMaxCarries(t *testing.T) {
	keyDom := domain.New(0, 4)
	valDom := domain.New(-50, math.MaxInt64)
	specs := []Spec{
		{Func: Min, InType: vec.I64, InDom: valDom, MaxRows: 1 << 20},
		{Func: Max, InType: vec.I64, InDom: valDom, MaxRows: 1 << 20},
	}
	// Shard A: one row per group, holding the global extreme for key 0
	// (tiny min) but an unremarkable value for key 1. Shard B: bulk rows
	// whose values saturate the 32-bit bound (boundOf → 0xFFFFFFFF).
	keysA := []int64{0, 1}
	valsA := []int64{-50, 12}
	keysB := []int64{0, 0, 1, 1, 1}
	valsB := []int64{math.MaxInt64 - 1, 1 << 40, math.MaxInt64, -49, 3}
	whole, _, _ := aggHarness(t, core.Flags{}, specs,
		append(append([]int64{}, keysA...), keysB...),
		append(append([]int64{}, valsA...), valsB...), keyDom)
	for _, flags := range allFlagCombos {
		// Both directions: skewed-into-bulk and bulk-into-skewed.
		for dir := 0; dir < 2; dir++ {
			ka, va, kb, vb := keysA, valsA, keysB, valsB
			if dir == 1 {
				ka, va, kb, vb = keysB, valsB, keysA, valsA
			}
			_, dst, agD := aggHarness(t, flags, specs, ka, va, keyDom)
			_, src, _ := aggHarness(t, flags, specs, kb, vb, keyDom)
			mergeInto(t, dst, agD, src)
			got := extractByKey(t, dst, agD, len(specs))
			for k, wantAggs := range whole {
				for ai, w := range wantAggs {
					if got[k][ai] != w {
						t.Errorf("flags %+v dir %d key %d agg %d: merged %v want %v",
							flags, dir, k, ai, got[k][ai], w)
					}
				}
			}
		}
	}
}

// TestMergeStringAllNullGroups covers the string MIN/MAX no-value marker
// (reference 0, emitted by Result as the null string reference 1) a fold
// meets when a partial's group was entirely NULL: a null partial is
// skipped, a null destination adopts the partial, and two null sides stay
// null.
func TestMergeStringAllNullGroups(t *testing.T) {
	flags := core.Flags{}
	store := strs.NewStore(false)
	keyDom := domain.New(0, 4)
	schema, err := core.NewKeySchema(flags, []core.KeyCol{{Name: "k", Type: vec.I64, Dom: keyDom}}, store)
	if err != nil {
		t.Fatal(err)
	}
	specs := []Spec{
		{Func: Min, InType: vec.Str, MaxRows: 16},
		{Func: Max, InType: vec.Str, MaxRows: 16},
	}
	ag := NewAggregator(flags, specs)
	if ag.layouts[0].kind != kMinStr || ag.layouts[1].kind != kMaxStr {
		t.Fatalf("string specs resolved to kinds %d/%d", ag.layouts[0].kind, ag.layouts[1].kind)
	}
	newTab := func() *core.Table {
		return core.NewTable(schema, ag.HotBytes, ag.ColdBytes, 4)
	}
	insertKey := func(tab *core.Table, k int64) int32 {
		kv := vec.New(vec.I64, 1)
		kv.I64[0] = k
		rows := []int32{0}
		p := schema.Prepare([]*vec.Vector{kv}, rows)
		hashes := make([]uint64, 1)
		schema.Hash(p, rows, hashes)
		recs := make([]int32, 1)
		_, newRecs := tab.FindOrInsert(p, hashes, rows, recs)
		ag.Init(tab, newRecs)
		return recs[0]
	}
	update := func(tab *core.Table, rec int32, s string) {
		sv := vec.New(vec.Str, 1)
		sv.Str[0] = store.Intern(s)
		for ai := range specs {
			ag.Update(tab, ai, []int32{rec}, []int32{0}, sv)
		}
	}
	result := func(tab *core.Table, rec int32, ai int) vec.StrRef {
		out := vec.New(vec.Str, 1)
		ag.Result(tab, ai, []int32{rec}, out, []int32{0})
		return out.Str[0]
	}

	withVals := newTab()
	rv := insertKey(withVals, 1)
	update(withVals, rv, "melon")
	update(withVals, rv, "apple")
	allNull := newTab()
	rn := insertKey(allNull, 1)

	// Null source skipped: values survive unchanged.
	foldRecs(ag, withVals, []int32{rv}, allNull, []int32{rn})
	if got := store.Get(result(withVals, rv, 0)); got != "apple" {
		t.Errorf("min after null-src merge = %q, want apple", got)
	}
	if got := store.Get(result(withVals, rv, 1)); got != "melon" {
		t.Errorf("max after null-src merge = %q, want melon", got)
	}

	// Null destination adopts the source's value.
	allNull2 := newTab()
	rn2 := insertKey(allNull2, 1)
	foldRecs(ag, allNull2, []int32{rn2}, withVals, []int32{rv})
	if got := store.Get(result(allNull2, rn2, 0)); got != "apple" {
		t.Errorf("min after adopt merge = %q, want apple", got)
	}

	// Null + null stays null: Result must emit the null reference.
	bothA, bothB := newTab(), newTab()
	ra, rb := insertKey(bothA, 1), insertKey(bothB, 1)
	foldRecs(ag, bothA, []int32{ra}, bothB, []int32{rb})
	if got := result(bothA, ra, 0); got != strs.NullRef {
		t.Errorf("null+null min ref = %d, want null ref %d", got, strs.NullRef)
	}
}

// TestFoldRoundTrip checks Fold against Result: folding a finalized value
// into a freshly initialized record and re-finalizing must reproduce it
// exactly for every layout kind, including values past 64-bit sums (given
// as I128 or I64 partials), counts past the 16-bit hot counter, and
// MIN/MAX beyond the 32-bit bound range.
func TestFoldRoundTrip(t *testing.T) {
	keyDom := domain.New(0, 4)
	valDom := domain.New(-50, math.MaxInt64)
	posDom := domain.New(0, math.MaxInt64)
	specs := []Spec{
		{Func: Sum, InType: vec.I64, InDom: valDom, MaxRows: 1 << 40},
		{Func: Sum, InType: vec.I64, InDom: posDom, MaxRows: 1 << 40},
		{Func: Count, InType: vec.I64, InDom: valDom, MaxRows: 1 << 40},
		{Func: Min, InType: vec.I64, InDom: valDom, MaxRows: 1 << 20},
		{Func: Max, InType: vec.I64, InDom: valDom, MaxRows: 1 << 20},
	}
	sums := []i128.Int{
		i128.FromInt64(0),
		i128.FromInt64(-7),
		i128.FromInt64(math.MaxInt64),
		{Hi: 3, Lo: 0xDEADBEEF},       // past 64 bits
		{Hi: -1, Lo: ^uint64(0) - 41}, // negative 128-bit value
	}
	ints := []int64{0, -50, 123456789, 0xFFFF, 3 * 0xFFFF, math.MaxInt64, MinInitExcept, MaxInitExcept}
	rows := []int32{0}
	for _, flags := range allFlagCombos {
		store := strs.NewStore(flags.UseUSSR)
		schema, err := core.NewKeySchema(flags, []core.KeyCol{{Name: "k", Type: vec.I64, Dom: keyDom}}, store)
		if err != nil {
			t.Fatal(err)
		}
		ag := NewAggregator(flags, specs)
		fresh := func() (*core.Table, []int32) {
			tab := core.NewTable(schema, ag.HotBytes, ag.ColdBytes, 4)
			p := schema.Prepare([]*vec.Vector{vec.New(vec.I64, 1)}, rows)
			hashes := make([]uint64, 1)
			schema.Hash(p, rows, hashes)
			recs := make([]int32, 1)
			_, newRecs := tab.FindOrInsert(p, hashes, rows, recs)
			ag.Init(tab, newRecs)
			return tab, recs
		}
		roundTrip := func(ai int, in *vec.Vector) *vec.Vector {
			tab, recs := fresh()
			ag.Fold(tab, ai, recs, rows, in)
			out := vec.New(ag.ResultType(ai), 1)
			ag.Result(tab, ai, recs, out, rows)
			return out
		}

		for ai := 0; ai < 2; ai++ { // the two SUM layouts
			for _, s := range sums {
				// kSumI64 can only represent 64-bit values; skip the wide ones.
				if ag.layouts[ai].kind == kSumI64 && s.Hi != 0 && s.Hi != -1 {
					continue
				}
				in := vec.New(vec.I128, 1)
				in.I128[0] = s
				inputs := []*vec.Vector{in}
				if s.IsInt64() {
					narrow := vec.New(vec.I64, 1)
					narrow.I64[0] = s.Int64()
					inputs = append(inputs, narrow)
				}
				for _, in := range inputs {
					out := roundTrip(ai, in)
					got := i128.FromInt64(0)
					if out.Typ == vec.I128 {
						got = out.I128[0]
					} else {
						got = i128.FromInt64(out.I64[0])
					}
					if got != s {
						t.Errorf("flags %+v sum agg %d from %s: round-trip %v -> %v", flags, ai, in.Typ, s, got)
					}
				}
			}
		}
		for _, ai := range []int{2, 3, 4} { // COUNT, MIN, MAX
			for _, v := range ints {
				if ai == 2 && v < 0 {
					continue // counts are non-negative
				}
				in := vec.New(vec.I64, 1)
				in.I64[0] = v
				if out := roundTrip(ai, in); out.I64[0] != v {
					t.Errorf("flags %+v agg %d: round-trip %d -> %d", flags, ai, v, out.I64[0])
				}
			}
		}
	}
}

// TestFoldPartialsMatchesDirect simulates the scatter-gather reducer end
// to end: three skewed "shards" aggregate disjoint row ranges, and their
// finalized per-group values are folded, a vector at a time, into the
// coordinator's table. The result must match aggregating the whole data
// set directly — including a folded whole count meeting a hot counter
// near its 0xFFFF flush, and sum carries across the (Lo, Hi) words.
func TestFoldPartialsMatchesDirect(t *testing.T) {
	const n = 200_000
	keys := make([]int64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i % 3)
		switch i % 5 {
		case 0:
			vals[i] = math.MaxInt64 - int64(i%9) // force 128-bit sums
		case 1:
			vals[i] = -(math.MaxInt64 - int64(i%7))
		default:
			vals[i] = int64(i)<<18 - 1<<36 // beyond 32-bit bounds
		}
	}
	keyDom := domain.New(0, 4)
	valDom := domain.New(math.MinInt64+1, math.MaxInt64)
	specs := []Spec{
		{Func: Sum, InType: vec.I64, InDom: valDom, MaxRows: 1 << 40},
		{Func: CountStar, MaxRows: 1 << 40},
		{Func: Min, InType: vec.I64, InDom: valDom, MaxRows: 1 << 20},
		{Func: Max, InType: vec.I64, InDom: valDom, MaxRows: 1 << 20},
	}
	// Heavily skewed split: 70% / 29.9% / 0.1%.
	cuts := []int{0, n * 7 / 10, n - n/1000, n}
	for _, flags := range allFlagCombos {
		whole, _, _ := aggHarness(t, flags, specs, keys, vals, keyDom)
		// The coordinator's table starts from the first shard's own
		// aggregation, so later partials meet live hot counters.
		_, dst, ag := aggHarness(t, flags, specs, keys[:cuts[1]], vals[:cuts[1]], keyDom)
		for s := 1; s+1 < len(cuts); s++ {
			_, stab, _ := aggHarness(t, flags, specs,
				keys[cuts[s]:cuts[s+1]], vals[cuts[s]:cuts[s+1]], keyDom)
			mergeInto(t, dst, ag, stab)
		}
		got := extractByKey(t, dst, ag, len(specs))
		for k, wantAggs := range whole {
			for ai, w := range wantAggs {
				if got[k][ai] != w {
					t.Errorf("flags %+v key %d agg %d: reduced %v want %v",
						flags, k, ai, got[k][ai], w)
				}
			}
		}
	}
}

// extractByKey re-finalizes every group of tab into a key → aggregate
// values map, widening 64-bit results to i128 for uniform comparison.
func extractByKey(t *testing.T, tab *core.Table, ag *Aggregator, nSpecs int) map[int64][]i128.Int {
	t.Helper()
	nG := tab.Len()
	recIdx := make([]int32, nG)
	rows := make([]int32, nG)
	for i := range recIdx {
		recIdx[i], rows[i] = int32(i), int32(i)
	}
	keyOut := vec.New(vec.I64, nG)
	tab.LoadKey(0, recIdx, keyOut, rows)
	res := map[int64][]i128.Int{}
	for ai := 0; ai < nSpecs; ai++ {
		out := vec.New(ag.ResultType(ai), nG)
		ag.Result(tab, ai, recIdx, out, rows)
		for i := 0; i < nG; i++ {
			k := keyOut.I64[i]
			for len(res[k]) <= ai {
				res[k] = append(res[k], i128.Int{})
			}
			if out.Typ == vec.I128 {
				res[k][ai] = out.I128[i]
			} else {
				res[k][ai] = i128.FromInt64(out.I64[i])
			}
		}
	}
	return res
}
