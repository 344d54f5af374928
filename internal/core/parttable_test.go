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

func TestOwnerPartitionBits(t *testing.T) {
	cases := []struct{ owners, want int }{
		{-1, 0}, // no owners: one table
		{0, 0},
		{1, 2}, // four partitions for a lone owner
		{2, 3},
		{3, 4}, // 12 partitions round up to 16
		{4, 4},
		{8, 5},
		{16, 6},
		{17, MaxPartitionBits}, // capped
		{1 << 20, MaxPartitionBits},
	}
	for _, c := range cases {
		if got := OwnerPartitionBits(c.owners); got != c.want {
			t.Errorf("OwnerPartitionBits(%d) = %d, want %d", c.owners, got, c.want)
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

// TestProbeChainsNoAlloc pins the candidate loop at zero allocations once
// its scratch and the match lists have capacity, on every key layout it
// checks (direct, a two-word packed key, one packed word of either width,
// and slot-coded strings): through the table's probe entry point (more
// than one vector of rows), the partitioned one, and FindOrInsert over
// groups that all exist.
func TestProbeChainsNoAlloc(t *testing.T) {
	cases := []struct {
		name  string
		flags Flags
		cols  []KeyCol
	}{
		{"vanilla", Vanilla(), intKeyCols()},
		{"compressed", Flags{Compress: true}, []KeyCol{
			{Name: "a", Type: vec.I64, Dom: domain.New(0, 1<<40)},
			{Name: "b", Type: vec.I64, Dom: domain.New(0, 1<<40)}}},
		{"one-word", All(), []KeyCol{{Name: "k", Type: vec.I64, Dom: domain.New(0, 1<<40)}}},
		{"one-word-32", Flags{Compress: true}, intKeyCols()},
		{"slot-coded", All(), []KeyCol{{Name: "a", Type: vec.I16, Dom: domain.New(0, 99)}, {Name: "s", Type: vec.Str}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := strs.NewStore(c.flags.UseUSSR)
			schema, err := NewKeySchema(c.flags, c.cols, st)
			if err != nil {
				t.Fatal(err)
			}
			const n, distinct = 1600, 40 // more than one vector; every key 40 times
			keys := make([]*vec.Vector, len(c.cols))
			for ci, kc := range c.cols {
				keys[ci] = vec.New(kc.Type, n)
				for i := 0; i < n; i++ {
					if kc.Type == vec.Str {
						keys[ci].Str[i] = st.Intern(fmt.Sprintf("k%d", i%distinct))
					} else {
						keys[ci].SetInt64(i, kc.Dom.Min+int64(i%distinct))
					}
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
			groups := NewTable(schema, 0, 0, 16)
			if newRows, _ := groups.FindOrInsert(p, hashes, rows, recOut); len(newRows) != distinct {
				t.Fatalf("FindOrInsert made %d groups, want %d", len(newRows), distinct)
			}
			if a := testing.AllocsPerRun(20, func() {
				if newRows, _ := groups.FindOrInsert(p, hashes, rows, recOut); len(newRows) != 0 {
					t.Fatalf("FindOrInsert made %d groups on the second pass", len(newRows))
				}
			}); a != 0 {
				t.Errorf("FindOrInsert over existing groups: %v allocations per call", a)
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

// seq returns the rows 0..n-1.
func seq(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}
