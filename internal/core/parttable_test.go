package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ocht/internal/domain"
	"ocht/internal/strs"
	"ocht/internal/vec"
)

func TestChoosePartitionBits(t *testing.T) {
	cases := []struct {
		rows     int64
		hotWidth int
		want     int
	}{
		{0, 16, 0},
		{-1, 16, 0},
		{1000, 16, 0},                      // 24KB fits one partition
		{100_000, 16, 3},                   // 2.4MB -> 8 partitions of ~300KB
		{4 << 20, 16, 6},                   // 100MB saturates the cap
		{int64(1) << 50, 16, 6},            // absurd estimate must not overflow
		{PartitionTargetBytes / 24, 16, 0}, // exactly at the budget edge
	}
	for _, c := range cases {
		if got := ChoosePartitionBits(c.rows, c.hotWidth); got != c.want {
			t.Errorf("ChoosePartitionBits(%d, %d) = %d, want %d", c.rows, c.hotWidth, got, c.want)
		}
	}
}

func TestPartTableRecRoundTrip(t *testing.T) {
	store := strs.NewStore(false)
	schema, err := NewKeySchema(Vanilla(), intKeyCols(), store)
	if err != nil {
		t.Fatal(err)
	}
	for _, bits := range []int{0, 1, 3, 6} {
		pt := NewPartTable(schema, 0, 0, 64, bits)
		if pt.NParts() != 1<<bits {
			t.Fatalf("bits=%d: %d partitions", bits, pt.NParts())
		}
		for _, part := range []uint32{0, uint32(pt.NParts() - 1)} {
			for _, local := range []int32{0, 1, 1 << 20} {
				grec := pt.EncodeRec(part, local)
				gp, gl := pt.DecodeRec(grec)
				if gp != part || gl != local {
					t.Fatalf("bits=%d: (%d,%d) round-trips to (%d,%d)", bits, part, local, gp, gl)
				}
			}
		}
	}
}

// TestPartitionedProbeEquivalence builds the same data into a monolithic
// table and partitioned tables at several radix widths, and checks that
// ProbeChainsStaged returns exactly the matches ProbeChains does.
func TestPartitionedProbeEquivalence(t *testing.T) {
	for _, flags := range []Flags{Vanilla(), {Compress: true}, All()} {
		t.Run(flagName(flags), func(t *testing.T) {
			store := strs.NewStore(flags.UseUSSR)
			schema, err := NewKeySchema(flags, intKeyCols(), store)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			const nb = 2000
			cols, rows := buildIntBatch(nb, rng)
			p := schema.Prepare(cols, rows)
			hashes := make([]uint64, nb)
			schema.Hash(p, rows, hashes)
			recOut := make([]int32, nb)

			mono := NewTable(schema, 0, 0, 16)
			mono.InsertBatch(p, hashes, rows, recOut)

			const np = 512
			pcols, prows := buildIntBatch(np, rng)
			pp := schema.Prepare(pcols, prows)
			phashes := make([]uint64, np)
			schema.Hash(pp, prows, phashes)
			wantRows, _ := mono.ProbeChains(pp, phashes, prows, nil, nil)
			// Order-insensitive oracle: matched probe rows with multiplicity.
			want := append([]int32(nil), wantRows...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

			for _, bits := range []int{0, 3, 6} {
				pt := NewPartTable(schema, 0, 0, 16, bits)
				// Prepare holds per-schema scratch shared with the probe
				// Prepare above, so re-derive the build-side state here.
				p = schema.Prepare(cols, rows)
				groups := pt.PartitionRows(hashes, rows)
				inserted := 0
				for pi, g := range groups {
					if len(g) == 0 {
						continue
					}
					pt.Part(pi).InsertBatch(p, hashes, g, recOut)
					inserted += len(g)
				}
				if inserted != nb || pt.Len() != nb {
					t.Fatalf("bits=%d: inserted %d rows, table holds %d", bits, inserted, pt.Len())
				}

				heads := make([]int32, np)
				pp = schema.Prepare(pcols, prows)
				gotRows, gotRecs := pt.ProbeChainsStaged(pp, phashes, prows, heads, nil, nil)
				if len(gotRows) != len(gotRecs) {
					t.Fatalf("bits=%d: rows/recs length mismatch", bits)
				}
				got := append([]int32(nil), gotRows...)
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				if len(got) != len(want) {
					t.Fatalf("bits=%d: %d matches, monolithic found %d", bits, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("bits=%d: match multiset diverges at %d: %d vs %d", bits, i, got[i], want[i])
					}
				}
				// Every returned record must decode to a valid local record
				// whose key matches the probe row.
				ka := vec.New(vec.I64, 1)
				kb := vec.New(vec.I32, 1)
				one := []int32{0}
				for i, grec := range gotRecs {
					part, local := pt.DecodeRec(grec)
					tab := pt.Part(int(part))
					if local < 0 || int(local) >= tab.Len() {
						t.Fatalf("bits=%d: record %d out of range for partition %d", bits, local, part)
					}
					tab.LoadKey(0, []int32{local}, ka, one)
					tab.LoadKey(1, []int32{local}, kb, one)
					r := gotRows[i]
					if ka.I64[0] != pcols[0].I64[r] || kb.I32[0] != pcols[1].I32[r] {
						t.Fatalf("bits=%d: record key (%d,%d) != probe key (%d,%d)",
							bits, ka.I64[0], kb.I32[0], pcols[0].I64[r], pcols[1].I32[r])
					}
				}
			}
		})
	}
}

// TestSplitRecsRoundTrip checks that SplitRecs inverts EncodeRec: every
// global record lands in its partition as its local record, paired with
// its own row, once, in input order; and refilled scratch keeps no stale
// entries.
func TestSplitRecsRoundTrip(t *testing.T) {
	schema, err := NewKeySchema(Vanilla(), intKeyCols(), strs.NewStore(false))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, bits := range []int{0, 3, 6} {
		pt := NewPartTable(schema, 0, 0, 64, bits)
		recs := make([][]int32, pt.NParts())
		pos := make([][]int32, pt.NParts())
		const n = 3000
		grecs := make([]int32, n)
		rows := make([]int32, n)
		at := make(map[int32]int, n) // row -> input index
		for i := range grecs {
			grecs[i] = pt.EncodeRec(uint32(rng.Intn(pt.NParts())), int32(rng.Intn(1<<20)))
			rows[i] = int32(3*i + 1)
			at[rows[i]] = i
		}
		for _, m := range []int{n, 7} { // the second call reuses the scratch
			pt.SplitRecs(grecs[:m], rows[:m], recs, pos)
			total := 0
			for p := range recs {
				if len(recs[p]) != len(pos[p]) {
					t.Fatalf("bits=%d: partition %d has %d records, %d rows", bits, p, len(recs[p]), len(pos[p]))
				}
				last := -1
				for k, local := range recs[p] {
					i, ok := at[pos[p][k]]
					if !ok || i >= m {
						t.Fatalf("bits=%d: row %d was not an input", bits, pos[p][k])
					}
					if got := pt.EncodeRec(uint32(p), local); got != grecs[i] {
						t.Fatalf("bits=%d: input %d split to (%d,%d), re-encoding %d, want %d", bits, i, p, local, got, grecs[i])
					}
					if i <= last {
						t.Fatalf("bits=%d: partition %d out of input order", bits, p)
					}
					last = i
				}
				total += len(recs[p])
			}
			if total != m {
				t.Fatalf("bits=%d: split %d records, want %d", bits, total, m)
			}
		}
	}
}

// TestProbeChainsNoAlloc pins the chain walk at zero allocations once the
// match lists have capacity, on the generic match path (direct and a
// two-word packed key) and on the single-word fast path at both word
// widths, through the table's own entry point (more than one vector of
// rows) and the partitioned one.
func TestProbeChainsNoAlloc(t *testing.T) {
	cases := []struct {
		name    string
		flags   Flags
		cols    []KeyCol
		oneWord bool
	}{
		{"vanilla", Vanilla(), intKeyCols(), false},
		{"compressed", Flags{Compress: true}, []KeyCol{
			{Name: "a", Type: vec.I64, Dom: domain.New(0, 1<<40)},
			{Name: "b", Type: vec.I64, Dom: domain.New(0, 1<<40)}}, false},
		{"one-word", All(), []KeyCol{{Name: "k", Type: vec.I64, Dom: domain.New(0, 1<<40)}}, true},
		{"one-word-32", Flags{Compress: true}, intKeyCols(), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			schema, err := NewKeySchema(c.flags, c.cols, strs.NewStore(c.flags.UseUSSR))
			if err != nil {
				t.Fatal(err)
			}
			if schema.oneWord != c.oneWord {
				t.Fatalf("oneWord = %v, want %v", schema.oneWord, c.oneWord)
			}
			const n, distinct = 1600, 40 // more than one vector; every key 40 times
			keys := make([]*vec.Vector, len(c.cols))
			for ci, kc := range c.cols {
				keys[ci] = vec.New(kc.Type, n)
				for i := 0; i < n; i++ {
					keys[ci].SetInt64(i, kc.Dom.Min+int64(i%distinct))
				}
			}
			rows := make([]int32, n)
			for i := range rows {
				rows[i] = int32(i)
			}
			hashes := make([]uint64, n)
			recOut := make([]int32, n)
			p := schema.Prepare(keys, rows)
			schema.Hash(p, rows, hashes)
			mono := NewTable(schema, 0, 0, 16)
			mono.InsertBatch(p, hashes, rows, recOut)
			pt := NewPartTable(schema, 0, 0, 16, 3)
			for pi, g := range pt.PartitionRows(hashes, rows) {
				pt.Part(pi).InsertBatch(p, hashes, g, recOut)
			}

			heads := make([]int32, n)
			outRows, outRecs := mono.ProbeChains(p, hashes, rows, nil, nil)
			if want := n * n / distinct; len(outRows) != want {
				t.Fatalf("ProbeChains found %d matches, want %d", len(outRows), want)
			}
			if a := testing.AllocsPerRun(20, func() {
				outRows, outRecs = mono.ProbeChains(p, hashes, rows, outRows[:0], outRecs[:0])
			}); a != 0 {
				t.Errorf("ProbeChains: %v allocations per call", a)
			}
			if a := testing.AllocsPerRun(20, func() {
				outRows, outRecs = pt.ProbeChainsStaged(p, hashes, rows, heads, outRows[:0], outRecs[:0])
			}); a != 0 {
				t.Errorf("ProbeChainsStaged: %v allocations per call", a)
			}
		})
	}
}

func TestPartitionRowsGrouping(t *testing.T) {
	store := strs.NewStore(false)
	schema, _ := NewKeySchema(Vanilla(), intKeyCols(), store)
	pt := NewPartTable(schema, 0, 0, 16, 4)
	const n = 4096
	hashes := make([]uint64, n)
	rng := rand.New(rand.NewSource(2))
	for i := range hashes {
		hashes[i] = rng.Uint64()
	}
	rows := make([]int32, 0, n/2)
	for i := 0; i < n; i += 2 { // selective: even rows only
		rows = append(rows, int32(i))
	}
	groups := pt.PartitionRows(hashes, rows)
	total := 0
	for pi, g := range groups {
		for _, r := range g {
			if r%2 != 0 {
				t.Fatalf("row %d not in the selection vector", r)
			}
			if got := pt.PartOf(hashes[r]); got != uint32(pi) {
				t.Fatalf("row %d routed to partition %d, hash says %d", r, pi, got)
			}
		}
		total += len(g)
	}
	if total != len(rows) {
		t.Fatalf("grouping lost rows: %d of %d", total, len(rows))
	}
	// The scratch is reused: a second call with fewer rows must not leak
	// stale entries.
	groups = pt.PartitionRows(hashes, rows[:4])
	total = 0
	for _, g := range groups {
		total += len(g)
	}
	if total != 4 {
		t.Fatalf("stale scratch rows: %d", total)
	}
}

// TestOneWordPathsAgree checks the single-word fast paths of FindOrInsert
// and ProbeChainsStaged, at 32-bit and 64-bit words, against the generic
// matchOne loop of the same schema, with some grouped and probe rows
// outside the key domain: their packed words may equal an inside key's,
// and only the domain check keeps them from matching. Probe matches are
// also counted against a nested loop over the key values; the join's
// build side is inside the domain, which is derived from it.
func TestOneWordPathsAgree(t *testing.T) {
	for _, c := range []struct {
		cols     []KeyCol
		wordBits int
	}{
		{intKeyCols(), 32},
		{[]KeyCol{{Name: "k", Type: vec.I64, Dom: domain.New(-5, 1<<40)}}, 64},
	} {
		t.Run(fmt.Sprint(c.wordBits), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.wordBits)))
			// keys draws n rows of every column inside its domain, except,
			// when outside is set, every seventh row, which lies a domain
			// width above it.
			keys := func(n int, outside bool) []*vec.Vector {
				vs := make([]*vec.Vector, len(c.cols))
				for ci, kc := range c.cols {
					vs[ci] = vec.New(kc.Type, n)
					width := kc.Dom.Max - kc.Dom.Min + 1
					for i := 0; i < n; i++ {
						v := kc.Dom.Min + rng.Int63n(min(width, 60))
						if outside && i%7 == 3 {
							v += width
						}
						vs[ci].SetInt64(i, v)
					}
				}
				return vs
			}
			const nb, np = 3000, 1000
			grouped, build, probe := keys(nb, true), keys(nb, false), keys(np, true)
			var groups [2][]int32 // per path: FindOrInsert's record of every row
			var pairs [2][]int32  // per path: probe rows and records, interleaved
			for path, oneWord := range []bool{true, false} {
				schema, err := NewKeySchema(Flags{Compress: true}, c.cols, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !schema.oneWord || schema.plan.WordBits != c.wordBits {
					t.Fatalf("schema: oneWord %v, %d-bit words; want one %d-bit word", schema.oneWord, schema.plan.WordBits, c.wordBits)
				}
				schema.oneWord = oneWord
				rows := seq(nb)
				p := schema.Prepare(grouped, rows)
				hashes := make([]uint64, nb)
				schema.Hash(p, rows, hashes)
				groups[path] = make([]int32, nb)
				NewTable(schema, 0, 0, 16).FindOrInsert(p, hashes, rows, groups[path])

				p = schema.Prepare(build, rows)
				schema.Hash(p, rows, hashes)
				recOut := make([]int32, nb)

				pt := NewPartTable(schema, 0, 0, 16, 3)
				for pi, g := range pt.PartitionRows(hashes, rows) {
					pt.Part(pi).InsertBatch(p, hashes, g, recOut)
				}
				prows := seq(np)
				pp := schema.Prepare(probe, prows)
				phashes := make([]uint64, np)
				schema.Hash(pp, prows, phashes)
				mr, mc := pt.ProbeChainsStaged(pp, phashes, prows, make([]int32, np), nil, nil)
				for i := range mr {
					pairs[path] = append(pairs[path], mr[i], mc[i])
				}
			}
			if fmt.Sprint(groups[0]) != fmt.Sprint(groups[1]) {
				t.Fatal("FindOrInsert: the one-word path and matchOne group rows differently")
			}
			if fmt.Sprint(pairs[0]) != fmt.Sprint(pairs[1]) {
				t.Fatalf("ProbeChainsStaged: the one-word path finds %d matches, matchOne %d", len(pairs[0])/2, len(pairs[1])/2)
			}
			// Probe rows outside the domain never match; the others match
			// every build row with equal values.
			inDom := func(vs []*vec.Vector, i int) bool {
				for ci, kc := range c.cols {
					if !kc.Dom.Contains(vs[ci].Int64At(i)) {
						return false
					}
				}
				return true
			}
			want := 0
			for j := 0; j < np; j++ {
				for i := 0; i < nb; i++ {
					eq := inDom(probe, j)
					for ci := range c.cols {
						eq = eq && probe[ci].Int64At(j) == build[ci].Int64At(i)
					}
					if eq {
						want++
					}
				}
			}
			if want == 0 || len(pairs[0])/2 != want {
				t.Fatalf("%d matches, nested loop %d", len(pairs[0])/2, want)
			}
		})
	}
}

// seq returns the rows 0..n-1.
func seq(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}
