package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ocht/internal/domain"
	"ocht/internal/strs"
	"ocht/internal/vec"
)

// walkLayout is one key layout FuzzChainWalk drives the candidate loop
// through; is checks that the schema really has that layout.
type walkLayout struct {
	name   string
	flags  Flags
	cols   []KeyCol
	reject bool // fill the USSR first: strings of odd values get slot code 0
	is     func(s *KeySchema) bool
}

var walkLayouts = []walkLayout{
	{"word32", Flags{Compress: true}, intKeyCols(), false,
		func(s *KeySchema) bool { return s.plan.Words == 1 && s.plan.WordBits == 32 }},
	{"word64", Flags{Compress: true}, []KeyCol{{Name: "k", Type: vec.I64, Dom: domain.New(-5, 1<<40)}}, false,
		func(s *KeySchema) bool { return s.plan.Words == 1 && s.plan.WordBits == 64 }},
	{"two-words", Flags{Compress: true}, []KeyCol{
		{Name: "a", Type: vec.I64, Dom: domain.New(0, 1<<40)},
		{Name: "b", Type: vec.I64, Dom: domain.New(-1<<40, 0)}}, false,
		func(s *KeySchema) bool { return s.plan.Words == 2 }},
	{"slot-coded", All(), []KeyCol{{Name: "a", Type: vec.I16, Dom: domain.New(0, 999)}, {Name: "s", Type: vec.Str}}, true,
		func(s *KeySchema) bool { return s.codeCol[1] >= 0 && s.strCold[1] >= 0 }},
	{"direct-str", Flags{Compress: true}, []KeyCol{{Name: "a", Type: vec.I32, Dom: domain.New(0, 999)}, {Name: "s", Type: vec.Str}}, false,
		func(s *KeySchema) bool { return s.plan != nil && s.directOff[1] >= 0 }},
	{"vanilla", Vanilla(), []KeyCol{
		{Name: "i8", Type: vec.I8}, {Name: "i16", Type: vec.I16}, {Name: "i32", Type: vec.I32},
		{Name: "i64", Type: vec.I64}, {Name: "b", Type: vec.Bool}, {Name: "s", Type: vec.Str}}, false,
		func(s *KeySchema) bool { return s.plan == nil }},
}

// walkBatch is a batch of key rows: the key vectors, each row's key as
// text, and whether each row lies inside every domain.
type walkBatch struct {
	cols  []*vec.Vector
	text  []string
	inDom []bool
}

// Rows outside the key domain, in walkKeys: none, one past the first
// column's maximum (its packed code is one no inside key has), or above
// the drawn value by the range the column's packed bits hold, so that its
// packed words, hence its hash, equal an inside key's and only the domain
// check keeps it from matching. FindOrInsert stores the words of a row
// outside as they pack, and an inside row whose words they alias would
// join that group (a stored key outside the domain cannot be told apart),
// so only probes get aliasing rows.
const (
	inside = iota
	pastMax
	aliasing
)

// walkKeys draws n key rows of layout l, each from one value in
// [0, distinct) that fixes every column; with outside, every seventh row
// lies outside the first column's domain.
func walkKeys(t *testing.T, l walkLayout, st *strs.Store, rng *rand.Rand, n, distinct, outside int) walkBatch {
	cols := make([]*vec.Vector, len(l.cols))
	for ci, kc := range l.cols {
		cols[ci] = vec.New(kc.Type, n)
	}
	text, inDom := make([]string, n), make([]bool, n)
	var b strings.Builder
	for i := 0; i < n; i++ {
		v := rng.Intn(distinct)
		b.Reset()
		inDom[i] = true
		for ci, kc := range l.cols {
			base := int64(v / (ci + 1))
			switch {
			case kc.Type == vec.Str:
				s := fmt.Sprintf("s%d", v%23)
				ref := st.Intern(s)
				if l.reject && v%23%2 == 1 && ref.InUSSR() {
					t.Fatalf("%s: %q is USSR-resident; the region was not full", l.name, s)
				}
				cols[ci].Str[i] = ref
				fmt.Fprintf(&b, "%q,", s)
				continue
			case kc.Type == vec.Bool:
				cols[ci].Bool[i] = base%2 == 1
				fmt.Fprintf(&b, "%v,", base%2 == 1)
				continue
			}
			x := base%13 - 6
			if kc.Dom.Valid {
				width := kc.Dom.Max - kc.Dom.Min + 1
				x = kc.Dom.Min + base%min(width, 61)
				if outside > 0 && i%7 == 3 && ci == 0 {
					x = kc.Dom.Max + 1 // packs to a code no inside key has
					if outside == aliasing {
						x = kc.Dom.Min + base%min(width, 61) + 1<<bits.Len64(uint64(width-1))
					}
					inDom[i] = false
				}
			} else {
				x <<= uint(8*kc.Type.Width() - 5) // spread over the type's range, negatives included
			}
			cols[ci].SetInt64(i, x)
			fmt.Fprintf(&b, "%d,", x)
		}
		text[i] = b.String()
	}
	return walkBatch{cols, text, inDom}
}

// FuzzChainWalk checks the candidate loop on every key layout against Go
// maps: FindOrInsert's group records (first-occurrence order, every row
// outside the key domain a group of its own) and, batch by batch, its
// directory, chains and hot and cold bytes against a record-by-record
// build; and the exact (probe row, record) pairs of ProbeChains and of a
// partitioned ProbeChainsStaged, in probe-row order and each row's in
// chain order (descending record: every record is linked at its chain's
// head). Small value counts give duplicate keys inside one vector and long
// chains; the directory starts at 16 buckets.
func FuzzChainWalk(f *testing.F) {
	// The one-word cases of the former one-word path agreement test: 3000
	// grouped rows, 3000 build rows, 1000 probe rows, every seventh grouped
	// and probe row outside the domain.
	f.Add(int64(32), uint8(0), uint16(60), uint16(3000), uint16(3000), uint16(1000), true, uint8(3))
	f.Add(int64(64), uint8(1), uint16(60), uint16(3000), uint16(3000), uint16(1000), true, uint8(3))
	for l := range walkLayouts {
		f.Add(int64(l), uint8(l), uint16(3), uint16(2500), uint16(300), uint16(1500), true, uint8(0))
		f.Add(int64(l+10), uint8(l), uint16(2000), uint16(1200), uint16(1500), uint16(700), false, uint8(2))
	}
	f.Fuzz(func(t *testing.T, seed int64, layout uint8, distinct, ng, nb, np uint16, outside bool, radix uint8) {
		l := walkLayouts[int(layout)%len(walkLayouts)]
		rng := rand.New(rand.NewSource(seed))
		st := strs.NewStore(l.flags.UseUSSR)
		if l.reject {
			for v := 0; v < 23; v += 2 {
				st.Intern(fmt.Sprintf("s%d", v))
			}
			fillRegion(st)
		}
		schema, err := NewKeySchema(l.flags, l.cols, st)
		if err != nil {
			t.Fatal(err)
		}
		if !l.is(schema) {
			t.Fatalf("%s: the schema does not have the layout", l.name)
		}
		d := 1 + int(distinct)%3000
		grouped, probed := inside, inside
		if outside && l.flags.Compress {
			grouped, probed = pastMax, aliasing
		}
		checkFindOrInsert(t, schema, walkKeys(t, l, st, rng, 1+int(ng)%3000, d, grouped))
		build := walkKeys(t, l, st, rng, 1+int(nb)%2000, d, inside)
		checkProbes(t, schema, build, walkKeys(t, l, st, rng, 1+int(np)%2000, d, probed), int(radix)%4)
	})
}

// checkFindOrInsert groups b a vector at a time and checks every row's
// record, the new groups, and the table against a record-by-record build.
func checkFindOrInsert(t *testing.T, schema *KeySchema, b walkBatch) {
	n := len(b.text)
	tab, ref := NewTable(schema, 8, 0, 16), NewTable(schema, 8, 0, 16)
	hashes, recOut := make([]uint64, n), make([]int32, n)
	groups := map[string]int32{}
	for lo := 0; lo < n; lo += vec.Size {
		rows := denseRows(min(lo+vec.Size, n))[lo:]
		p := schema.Prepare(b.cols, rows)
		schema.Hash(p, rows, hashes)
		newRows, newRecs := tab.FindOrInsert(p, hashes, rows, recOut)
		var wantRows, wantRecs []int32
		for _, r := range rows {
			g, ok := groups[b.text[r]]
			if !ok || !b.inDom[r] {
				g = int32(ref.Len() + len(wantRows))
				wantRows, wantRecs = append(wantRows, r), append(wantRecs, g)
				if b.inDom[r] {
					groups[b.text[r]] = g
				}
			}
			if recOut[r] != g {
				t.Fatalf("FindOrInsert: row %d (key %s, in domain %v) got record %d, want %d", r, b.text[r], b.inDom[r], recOut[r], g)
			}
		}
		if !slices.Equal(newRows, wantRows) || !slices.Equal(newRecs, wantRecs) {
			t.Fatalf("FindOrInsert: new groups %v at rows %v, want %v at %v", newRecs, newRows, wantRecs, wantRows)
		}
		insertOneByOne(ref, p, hashes, wantRows)
		if !slices.Equal(tab.heads, ref.heads) || !slices.Equal(tab.next, ref.next) ||
			!slices.Equal(tab.hot, ref.hot) || !slices.Equal(tab.cold, ref.cold) || tab.HotAreaBytes() != ref.HotAreaBytes() {
			t.Fatal("FindOrInsert: directory, chains or records differ from the record-by-record build")
		}
	}
}

// checkProbes builds a join table from build (one table, and a 2^bits
// partitioned one) and checks the pairs the probes return for every other
// row of probe against the key-equal build rows in chain order.
func checkProbes(t *testing.T, schema *KeySchema, build, probe walkBatch, bits int) {
	nb := len(build.text)
	brows := denseRows(nb)
	bh, monoRecs, partRecs := make([]uint64, nb), make([]int32, nb), make([]int32, nb)
	p := schema.Prepare(build.cols, brows)
	schema.Hash(p, brows, bh)
	mono := NewTable(schema, 0, 0, 16)
	mono.InsertBatch(p, bh, brows, monoRecs)
	pt := NewPartTable(schema, 0, 0, 16, bits)
	for part, g := range pt.PartitionRows(bh, brows) {
		pt.Part(part).InsertBatch(p, bh, g, partRecs)
	}
	byKey := map[string][]int32{} // build rows of each key, in row order
	for i, k := range build.text {
		byKey[k] = append(byKey[k], int32(i))
	}

	np := len(probe.text)
	var prows []int32
	for j := 0; j < np; j++ {
		if j%5 != 4 { // a selection with gaps
			prows = append(prows, int32(j))
		}
	}
	ph := make([]uint64, np)
	pp := schema.Prepare(probe.cols, prows)
	schema.Hash(pp, prows, ph)
	for _, c := range []struct {
		name string
		enc  func(i int32) int32 // build row -> the record a probe returns
	}{
		{"ProbeChains", func(i int32) int32 { return monoRecs[i] }},
		{fmt.Sprintf("%d-bit ProbeChainsStaged", bits), func(i int32) int32 {
			return pt.EncodeRec(pt.PartOf(bh[i]), partRecs[i])
		}},
	} {
		var wantRows, wantRecs []int32
		for _, j := range prows {
			if !probe.inDom[j] {
				continue
			}
			match := byKey[probe.text[j]]
			for k := len(match) - 1; k >= 0; k-- { // descending record in one chain
				wantRows, wantRecs = append(wantRows, j), append(wantRecs, c.enc(match[k]))
			}
		}
		var gotRows, gotRecs []int32
		if c.name == "ProbeChains" {
			gotRows, gotRecs = mono.ProbeChains(pp, ph, prows, nil, nil)
		} else {
			gotRows, gotRecs = pt.ProbeChainsStaged(pp, ph, prows, make([]int32, len(prows)), nil, nil)
		}
		if !slices.Equal(gotRows, wantRows) || !slices.Equal(gotRecs, wantRecs) {
			t.Fatalf("%s: %d pairs, want %d (the key-equal build rows in chain order)", c.name, len(gotRows), len(wantRows))
		}
	}
}
