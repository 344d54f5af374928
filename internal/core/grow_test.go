package core

import (
	"fmt"
	"slices"
	"testing"

	"ocht/internal/domain"
	"ocht/internal/strs"
	"ocht/internal/ussr"
	"ocht/internal/vec"
)

// denseRows returns the selection 0..n-1.
func denseRows(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// fillRegion inserts filler strings until at most one data slot is free,
// so every string interned afterwards (a hash slot plus at least one data
// slot) is rejected: slot code 0.
func fillRegion(st *strs.Store) {
	for i := 0; ussr.DataSlots-1-st.U.Stats().SizeBytes/8 > 1; i++ {
		st.Intern(fmt.Sprintf("f%07d", i))
	}
}

// TestRejectedStringsChainBound is a work bound, not a stopwatch: strings
// the USSR rejects all carry slot code 0, so unless KeySchema.Hash folds in
// their content they share one chain and grouping them is quadratic. Under
// All() it groups 100 000 distinct rejected strings and counts, through the
// exported Head/Next, the chain steps each inserted row needs to reach its
// own record in the final directory.
func TestRejectedStringsChainBound(t *testing.T) {
	const n = 100_000
	st := strs.NewStore(true)
	fillRegion(st)
	schema, err := NewKeySchema(All(), []KeyCol{{Name: "s", Type: vec.Str}}, st)
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable(schema, 0, 0, 1)
	hashes := make([]uint64, n)
	recs := make([]int32, n)
	v := vec.New(vec.Str, vec.Size)
	for lo := 0; lo < n; lo += vec.Size {
		m := min(vec.Size, n-lo)
		rows := denseRows(m)
		for i := range rows {
			v.Str[i] = st.Intern(fmt.Sprintf("rejected-%07d", lo+i))
			if v.Str[i].InUSSR() {
				t.Fatal("test setup: the region must reject every key")
			}
		}
		p := schema.Prepare([]*vec.Vector{v}, rows)
		schema.Hash(p, rows, hashes[lo:])
		tab.FindOrInsert(p, hashes[lo:], rows, recs[lo:])
	}
	if tab.Len() != n {
		t.Fatalf("%d groups, want %d", tab.Len(), n)
	}
	steps := 0
	for i, h := range hashes {
		rec := tab.Head(h)
		for ; rec >= 0 && rec != recs[i]; rec = tab.Next(rec) {
			steps++
		}
		if rec < 0 {
			t.Fatalf("row %d: record %d is not on its hash chain", i, recs[i])
		}
		steps++
	}
	if steps > 4*n {
		t.Errorf("%d chain steps to reach %d rows' records, want <= %d", steps, n, 4*n)
	}
}

// TestGrowRehashMatchesInsertHash guards Table.resize, which re-hashes every
// stored record through KeySchema.Hash when the directory doubles: each
// record must land in the chain its insert-time hash chose, for every key
// layout. Tables start at capacity hint 1 so every doubling runs; then a
// second FindOrInsert pass must find every group, and ProbeChains, a 0-bit
// and a 3-bit ProbeChainsStaged must all return exactly the key-equal
// (probe row, build row) pairs.
func TestGrowRehashMatchesInsertHash(t *testing.T) {
	key := func(k int) string { return fmt.Sprintf("key-%05d", k) }
	wide := domain.New(0, 1<<40)
	layouts := []struct {
		name  string
		flags Flags
		cols  []KeyCol
		rows  int // input rows; row g carries key g%keys
		keys  int
		words int // expected plan words, or -1 for direct records
		setup func(st *strs.Store)
		fill  func(st *strs.Store, v []*vec.Vector, i, k int)
	}{
		{
			name: "vanilla/direct", flags: Vanilla(), rows: 3000, keys: 1500, words: -1,
			cols: []KeyCol{{Name: "i8", Type: vec.I8}, {Name: "i16", Type: vec.I16}, {Name: "i32", Type: vec.I32},
				{Name: "i64", Type: vec.I64}, {Name: "b", Type: vec.Bool}, {Name: "s", Type: vec.Str}},
			fill: func(st *strs.Store, v []*vec.Vector, i, k int) {
				v[0].I8[i], v[1].I16[i], v[2].I32[i] = int8(k), int16(-7*k), int32(k*k)
				v[3].I64[i], v[4].Bool[i] = int64(k)<<33, k%3 == 0
				v[5].Str[i] = st.Intern(key(k % 40))
			},
		},
		{
			name: "compress/one-word", flags: Flags{Compress: true}, rows: 3000, keys: 1500, words: 1,
			cols: []KeyCol{{Name: "a", Type: vec.I64, Dom: domain.New(0, 1499)}, {Name: "b", Type: vec.I32, Dom: domain.New(-5, 5)}},
			fill: func(_ *strs.Store, v []*vec.Vector, i, k int) {
				v[0].I64[i], v[1].I32[i] = int64(k), int32(k%11-5)
			},
		},
		{
			name: "compress/multi-word", flags: Flags{Compress: true}, rows: 3000, keys: 1500, words: 2,
			cols: []KeyCol{{Name: "a", Type: vec.I64, Dom: wide}, {Name: "b", Type: vec.I64, Dom: wide}, {Name: "c", Type: vec.I64, Dom: wide}},
			fill: func(_ *strs.Store, v []*vec.Vector, i, k int) {
				v[0].I64[i], v[1].I64[i], v[2].I64[i] = int64(k)<<20, int64(3*k), 1<<40-int64(k)
			},
		},
		{
			// Even keys are interned before the region fills (resident
			// slot codes), odd keys after (rejected: code 0).
			name: "split+ussr/slot-codes", flags: All(), rows: 3000, keys: 1500, words: 1,
			cols: []KeyCol{{Name: "s", Type: vec.Str}, {Name: "n", Type: vec.I32, Dom: domain.New(0, 9)}},
			setup: func(st *strs.Store) {
				for k := 0; k < 1500; k += 2 {
					st.Intern(key(k))
				}
				fillRegion(st)
			},
			fill: func(st *strs.Store, v []*vec.Vector, i, k int) {
				v[0].Str[i], v[1].I32[i] = st.Intern(key(k)), int32(k%10)
				if v[0].Str[i].InUSSR() != (k%2 == 0) {
					panic("test setup: even keys must be resident, odd keys rejected")
				}
			},
		},
		{
			// No USSR: every occurrence is a fresh, non-canonical heap copy.
			name: "compress/uncoded-str", flags: Flags{Compress: true}, rows: 3000, keys: 1500, words: 1,
			cols: []KeyCol{{Name: "n", Type: vec.I16, Dom: domain.New(0, 99)}, {Name: "s", Type: vec.Str}},
			fill: func(st *strs.Store, v []*vec.Vector, i, k int) {
				v[0].I16[i], v[1].Str[i] = int16(k%100), st.Intern(key(k))
			},
		},
		{name: "no-keys", flags: All(), rows: 40, keys: 1, words: 0},
	}
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			st := strs.NewStore(l.flags.UseUSSR)
			if l.setup != nil {
				l.setup(st)
			}
			schema, err := NewKeySchema(l.flags, l.cols, st)
			if err != nil {
				t.Fatal(err)
			}
			words := -1
			if schema.Plan() != nil {
				words = schema.Plan().Words
			}
			if words != l.words {
				t.Fatalf("plan packs %d words, want %d", words, l.words)
			}
			type batch struct {
				vecs []*vec.Vector
				rows []int32
				lo   int // global index of row 0
			}
			var batches []batch
			for lo := 0; lo < l.rows; lo += vec.Size {
				b := batch{rows: denseRows(min(vec.Size, l.rows-lo)), lo: lo}
				for _, c := range l.cols {
					b.vecs = append(b.vecs, vec.New(c.Type, len(b.rows)))
				}
				for i := range b.rows {
					if l.fill != nil {
						l.fill(st, b.vecs, i, (lo+i)%l.keys)
					}
				}
				batches = append(batches, b)
			}
			hashes := make([]uint64, vec.Size)
			prepare := func(b batch) *Prepared {
				p := schema.Prepare(b.vecs, b.rows)
				schema.Hash(p, b.rows, hashes)
				return p
			}

			groups := NewTable(schema, 0, 0, 1)
			firstRecs := make([][]int32, len(batches))
			for bi, b := range batches {
				firstRecs[bi] = make([]int32, len(b.rows))
				groups.FindOrInsert(prepare(b), hashes, b.rows, firstRecs[bi])
			}
			if groups.Len() != l.keys {
				t.Fatalf("%d groups, want %d", groups.Len(), l.keys)
			}
			recs := make([]int32, vec.Size)
			for bi, b := range batches {
				if newRows, _ := groups.FindOrInsert(prepare(b), hashes, b.rows, recs); len(newRows) != 0 {
					t.Fatalf("batch %d: %d existing keys inserted again after growth", bi, len(newRows))
				}
				if !slices.Equal(recs[:len(b.rows)], firstRecs[bi]) {
					t.Fatalf("batch %d: keys resolve to other groups after growth", bi)
				}
			}

			// Build one monolithic and two partitioned tables over the same
			// rows, remembering the global build row of every record.
			mono := NewTable(schema, 0, 0, 1)
			parts := []*PartTable{NewPartTable(schema, 0, 0, 1, 0), NewPartTable(schema, 0, 0, 1, 3)}
			monoRow := map[int32]int{}
			partRow := []map[int32]int{{}, {}}
			for _, b := range batches {
				p := prepare(b)
				mono.InsertBatch(p, hashes, b.rows, recs)
				for _, r := range b.rows {
					monoRow[recs[r]] = b.lo + int(r)
				}
				for ti, pt := range parts {
					for pi, prows := range pt.PartitionRows(hashes, b.rows) {
						pt.Part(pi).InsertBatch(p, hashes, prows, recs)
						for _, r := range prows {
							partRow[ti][pt.EncodeRec(uint32(pi), recs[r])] = b.lo + int(r)
						}
					}
				}
			}

			var want [][2]int
			var got [3][][2]int
			heads := make([]int32, vec.Size)
			for _, b := range batches {
				p := prepare(b)
				mr, mc := mono.ProbeChains(p, hashes, b.rows, nil, nil)
				for i := range mr {
					got[0] = append(got[0], [2]int{b.lo + int(mr[i]), monoRow[mc[i]]})
				}
				for ti, pt := range parts {
					mr, mc := pt.ProbeChainsStaged(p, hashes, b.rows, heads, nil, nil)
					for i := range mr {
						got[ti+1] = append(got[ti+1], [2]int{b.lo + int(mr[i]), partRow[ti][mc[i]]})
					}
				}
			}
			for g := 0; g < l.rows; g++ {
				for h := g % l.keys; h < l.rows; h += l.keys {
					want = append(want, [2]int{g, h})
				}
			}
			cmp := func(a, b [2]int) int { return a[0]*l.rows + a[1] - b[0]*l.rows - b[1] }
			slices.SortFunc(want, cmp)
			for i, name := range []string{"ProbeChains", "0-bit ProbeChainsStaged", "3-bit ProbeChainsStaged"} {
				slices.SortFunc(got[i], cmp)
				if !slices.Equal(got[i], want) {
					t.Errorf("%s returned %d pairs, want the %d key-equal pairs", name, len(got[i]), len(want))
				}
			}
		})
	}
}
