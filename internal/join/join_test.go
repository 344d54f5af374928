package join

import (
	"fmt"
	"math/rand"
	"testing"

	"ocht/internal/core"
	"ocht/internal/domain"
	"ocht/internal/hashtab"
	"ocht/internal/i128"
	"ocht/internal/strs"
	"ocht/internal/vec"
)

var flagCombos = []core.Flags{
	{},
	{Compress: true},
	{Compress: true, Split: true},
	core.All(),
}

func flagName(f core.Flags) string {
	return fmt.Sprintf("compress=%v,split=%v,ussr=%v", f.Compress, f.Split, f.UseUSSR)
}

func batchRows(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

func TestJoinEndToEnd(t *testing.T) {
	for _, flags := range flagCombos {
		for _, selective := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/selective=%v", flagName(flags), selective), func(t *testing.T) {
				store := strs.NewStore(flags.UseUSSR)
				keys := []core.KeyCol{
					{Name: "k1", Type: vec.I64, Dom: domain.New(0, 999)},
					{Name: "k2", Type: vec.I64, Dom: domain.New(0, 99)},
				}
				payload := []PayloadCol{
					{Name: "p1", Type: vec.I64, Dom: domain.New(0, 10)},
					{Name: "p2", Type: vec.I32, Dom: domain.New(-5, 5)},
				}
				j, err := New(flags, keys, payload, store, Options{Selective: selective})
				if err != nil {
					t.Fatal(err)
				}
				// Build 2000 rows; key (i%1000, i%100), payload (i%11, i%11-5).
				const nb = 2000
				k1 := vec.New(vec.I64, nb)
				k2 := vec.New(vec.I64, nb)
				p1 := vec.New(vec.I64, nb)
				p2 := vec.New(vec.I32, nb)
				for i := 0; i < nb; i++ {
					k1.I64[i] = int64(i % 1000)
					k2.I64[i] = int64(i % 100)
					p1.I64[i] = int64(i % 11)
					p2.I32[i] = int32(i%11) - 5
				}
				j.Build([]*vec.Vector{k1, k2}, []*vec.Vector{p1, p2}, batchRows(nb))
				if j.Table().Len() != nb {
					t.Fatalf("build stored %d", j.Table().Len())
				}

				// Probe: keys (x, x%100) for x in 0..999; each matches the
				// 2 build rows i=x and i=x+1000.
				const np = 1000
				q1 := vec.New(vec.I64, np)
				q2 := vec.New(vec.I64, np)
				for i := 0; i < np; i++ {
					q1.I64[i] = int64(i)
					q2.I64[i] = int64(i % 100)
				}
				mrows, mrecs := j.Probe([]*vec.Vector{q1, q2}, batchRows(np))
				if len(mrows) != 2*np {
					t.Fatalf("got %d matches, want %d", len(mrows), 2*np)
				}
				// Fetch payloads and validate against the build function.
				out1 := vec.New(vec.I64, len(mrecs))
				out2 := vec.New(vec.I32, len(mrecs))
				outRows := batchRows(len(mrecs))
				j.FetchPayload(0, mrecs, out1, outRows)
				j.FetchPayload(1, mrecs, out2, outRows)
				for i := range mrecs {
					x := q1.I64[mrows[i]]
					// Build row was either x or x+1000; both have payload
					// derived from i%11 — validate consistency.
					v := out1.I64[i]
					if v != x%11 && v != (x+1000)%11 {
						t.Fatalf("match %d: payload p1=%d for key %d", i, v, x)
					}
					if int64(out2.I32[i]) != v-5 {
						t.Fatalf("match %d: p2=%d, want %d", i, out2.I32[i], v-5)
					}
				}
			})
		}
	}
}

func TestSelectiveJoinHotAreaThin(t *testing.T) {
	store := strs.NewStore(false)
	keys := []core.KeyCol{{Name: "k", Type: vec.I64, Dom: domain.New(0, 1<<20)}}
	payload := []PayloadCol{
		{Name: "p1", Type: vec.I64, Dom: domain.Unknown},
		{Name: "p2", Type: vec.I64, Dom: domain.Unknown},
		{Name: "p3", Type: vec.I64, Dom: domain.Unknown},
		{Name: "p4", Type: vec.I64, Dom: domain.Unknown},
	}
	flags := core.Flags{Compress: true, Split: true}
	sel, err := New(flags, keys, payload, store, Options{Selective: true})
	if err != nil {
		t.Fatal(err)
	}
	non, err := New(flags, keys, payload, store, Options{Selective: false})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Table().HotWidth() >= non.Table().HotWidth() {
		t.Errorf("selective hot record %dB must be thinner than %dB",
			sel.Table().HotWidth(), non.Table().HotWidth())
	}
	if sel.Table().ColdWidth() <= non.Table().ColdWidth() {
		t.Error("selective join must move payload to the cold area")
	}
}

func TestStringPayload(t *testing.T) {
	for _, flags := range flagCombos {
		t.Run(flagName(flags), func(t *testing.T) {
			store := strs.NewStore(flags.UseUSSR)
			keys := []core.KeyCol{{Name: "k", Type: vec.I64, Dom: domain.New(0, 99)}}
			payload := []PayloadCol{
				{Name: "name", Type: vec.Str},
				{Name: "v", Type: vec.I64, Dom: domain.New(0, 1000)},
			}
			j, err := New(flags, keys, payload, store, Options{})
			if err != nil {
				t.Fatal(err)
			}
			const nb = 100
			k := vec.New(vec.I64, nb)
			name := vec.New(vec.Str, nb)
			v := vec.New(vec.I64, nb)
			for i := 0; i < nb; i++ {
				k.I64[i] = int64(i)
				name.Str[i] = store.Intern(fmt.Sprintf("name-%03d", i))
				v.I64[i] = int64(i * 10)
			}
			j.Build([]*vec.Vector{k}, []*vec.Vector{name, v}, batchRows(nb))

			q := vec.New(vec.I64, nb)
			for i := 0; i < nb; i++ {
				q.I64[i] = int64(i)
			}
			mrows, mrecs := j.Probe([]*vec.Vector{q}, batchRows(nb))
			if len(mrows) != nb {
				t.Fatalf("matches: %d", len(mrows))
			}
			outName := vec.New(vec.Str, nb)
			outV := vec.New(vec.I64, nb)
			j.FetchPayload(0, mrecs, outName, batchRows(nb))
			j.FetchPayload(1, mrecs, outV, batchRows(nb))
			for i := range mrecs {
				kk := q.I64[mrows[i]]
				want := fmt.Sprintf("name-%03d", kk)
				if got := store.Get(outName.Str[i]); got != want {
					t.Fatalf("payload string %q, want %q", got, want)
				}
				if outV.I64[i] != kk*10 {
					t.Fatalf("payload int %d, want %d", outV.I64[i], kk*10)
				}
			}
		})
	}
}

// TestI128Payload carries 128-bit payloads (SUM results joined back) next
// to a DOUBLE that is stored directly after them, so a payload slot
// narrower than 16 bytes would also corrupt its neighbour.
func TestI128Payload(t *testing.T) {
	vals := []i128.Int{
		i128.FromInt64(7),
		i128.FromInt64(-3),
		{Hi: 1, Lo: 5},
		{Hi: -2, Lo: 1 << 63},
	}
	for _, flags := range flagCombos {
		for _, selective := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/selective=%v", flagName(flags), selective), func(t *testing.T) {
				keys := []core.KeyCol{{Name: "k", Type: vec.I64, Dom: domain.New(0, 99)}}
				payload := []PayloadCol{
					{Name: "sum", Type: vec.I128},
					{Name: "f", Type: vec.F64},
				}
				j, err := New(flags, keys, payload, strs.NewStore(flags.UseUSSR), Options{Selective: selective})
				if err != nil {
					t.Fatal(err)
				}
				nb := len(vals)
				k := vec.New(vec.I64, nb)
				sum := vec.New(vec.I128, nb)
				f := vec.New(vec.F64, nb)
				for i := range vals {
					k.I64[i] = int64(i)
					sum.I128[i] = vals[i]
					f.F64[i] = float64(i) + 0.5
				}
				j.Build([]*vec.Vector{k}, []*vec.Vector{sum, f}, batchRows(nb))
				mrows, mrecs := j.Probe([]*vec.Vector{k}, batchRows(nb))
				if len(mrows) != nb {
					t.Fatalf("%d matches, want %d", len(mrows), nb)
				}
				outSum := vec.New(vec.I128, nb)
				outF := vec.New(vec.F64, nb)
				j.FetchPayload(0, mrecs, outSum, batchRows(nb))
				j.FetchPayload(1, mrecs, outF, batchRows(nb))
				for i, r := range mrows {
					if outSum.I128[i] != vals[r] {
						t.Errorf("row %d: I128 payload %v, want %v", r, outSum.I128[i], vals[r])
					}
					if want := float64(r) + 0.5; outF.F64[i] != want {
						t.Errorf("row %d: DOUBLE payload %v, want %v", r, outF.F64[i], want)
					}
				}
			})
		}
	}
}

func TestStringKeyJoin(t *testing.T) {
	for _, flags := range flagCombos {
		t.Run(flagName(flags), func(t *testing.T) {
			store := strs.NewStore(flags.UseUSSR)
			keys := []core.KeyCol{{Name: "s", Type: vec.Str}}
			payload := []PayloadCol{{Name: "v", Type: vec.I64, Dom: domain.New(0, 100)}}
			j, err := New(flags, keys, payload, store, Options{})
			if err != nil {
				t.Fatal(err)
			}
			const nb = 50
			s := vec.New(vec.Str, nb)
			v := vec.New(vec.I64, nb)
			for i := 0; i < nb; i++ {
				s.Str[i] = store.Intern(fmt.Sprintf("key-%02d", i))
				v.I64[i] = int64(i)
			}
			j.Build([]*vec.Vector{s}, []*vec.Vector{v}, batchRows(nb))

			// Probe with freshly interned strings (new refs in vanilla
			// mode: content comparison must still match).
			q := vec.New(vec.Str, nb)
			for i := 0; i < nb; i++ {
				q.Str[i] = store.Intern(fmt.Sprintf("key-%02d", i))
			}
			mrows, mrecs := j.Probe([]*vec.Vector{q}, batchRows(nb))
			if len(mrows) != nb {
				t.Fatalf("matches: %d, want %d", len(mrows), nb)
			}
			out := vec.New(vec.I64, nb)
			j.FetchPayload(0, mrecs, out, batchRows(nb))
			for i := range mrecs {
				if out.I64[i] != int64(mrows[i]) {
					t.Fatalf("payload mismatch at %d", i)
				}
			}
			// Probing with unseen strings must miss.
			for i := 0; i < nb; i++ {
				q.Str[i] = store.Intern(fmt.Sprintf("miss-%02d", i))
			}
			mrows, _ = j.Probe([]*vec.Vector{q}, batchRows(nb))
			if len(mrows) != 0 {
				t.Fatalf("unexpected matches: %d", len(mrows))
			}
		})
	}
}

func TestProbeMissesOnly(t *testing.T) {
	store := strs.NewStore(false)
	keys := []core.KeyCol{{Name: "k", Type: vec.I64, Dom: domain.New(0, 1000)}}
	j, err := New(core.All(), keys, nil, store, Options{Selective: true})
	if err != nil {
		t.Fatal(err)
	}
	k := vec.New(vec.I64, 100)
	for i := range k.I64 {
		k.I64[i] = int64(i)
	}
	j.Build([]*vec.Vector{k}, nil, batchRows(100))
	rng := rand.New(rand.NewSource(1))
	q := vec.New(vec.I64, 100)
	for i := range q.I64 {
		q.I64[i] = 500 + rng.Int63n(400) // all misses
	}
	mrows, _ := j.Probe([]*vec.Vector{q}, batchRows(100))
	if len(mrows) != 0 {
		t.Errorf("%d false matches", len(mrows))
	}
}

func TestCompressedJoinFootprint(t *testing.T) {
	build := func(flags core.Flags) *Join {
		store := strs.NewStore(flags.UseUSSR)
		keys := []core.KeyCol{
			{Name: "k1", Type: vec.I64, Dom: domain.New(0, 1000)},
			{Name: "k2", Type: vec.I64, Dom: domain.New(0, 1000)},
		}
		payload := []PayloadCol{
			{Name: "p1", Type: vec.I64, Dom: domain.New(0, 10)},
			{Name: "p2", Type: vec.I64, Dom: domain.New(0, 10)},
			{Name: "p3", Type: vec.I64, Dom: domain.New(0, 10)},
			{Name: "p4", Type: vec.I64, Dom: domain.New(0, 10)},
		}
		j, err := New(flags, keys, payload, store, Options{CapacityHint: 1 << 14})
		if err != nil {
			t.Fatal(err)
		}
		const nb = 10_000
		k1, k2 := vec.New(vec.I64, vec.Size), vec.New(vec.I64, vec.Size)
		ps := make([]*vec.Vector, 4)
		for i := range ps {
			ps[i] = vec.New(vec.I64, vec.Size)
		}
		rng := rand.New(rand.NewSource(2))
		for done := 0; done < nb; done += vec.Size {
			for i := 0; i < vec.Size; i++ {
				k1.I64[i] = rng.Int63n(1001)
				k2.I64[i] = rng.Int63n(1001)
				for _, p := range ps {
					p.I64[i] = rng.Int63n(11)
				}
			}
			j.Build([]*vec.Vector{k1, k2}, ps, batchRows(vec.Size))
		}
		return j
	}
	vanilla := build(core.Vanilla())
	comp := build(core.Flags{Compress: true})
	ratio := float64(vanilla.Table().MemoryBytes()) / float64(comp.Table().MemoryBytes())
	// 2 keys (10 bits each) + 4 payloads (4 bits each) = 36 bits -> one
	// 64-bit word + overhead, vs 48 bytes vanilla: expect >= 2x.
	if ratio < 2 {
		t.Errorf("compression ratio %.2f, want >= 2 (vanilla %dB, compressed %dB)",
			ratio, vanilla.Table().MemoryBytes(), comp.Table().MemoryBytes())
	}
}

func TestSampleGuidedPayload(t *testing.T) {
	// A payload whose global domain is ruined by outliers: 99% of values
	// in [0,1000], 1% at 2^40. Sample-guided coding keeps the hot record
	// narrow and still reconstructs outliers exactly from the cold area.
	store := strs.NewStore(false)
	keys := []core.KeyCol{{Name: "k", Type: vec.I64, Dom: domain.New(0, 1<<20)}}
	flags := core.Flags{Compress: true, Split: true}

	mk := func(sample domain.D) *Join {
		payload := []PayloadCol{{
			Name: "v", Type: vec.I64,
			Dom:       domain.New(0, 1<<40), // global bounds include outliers
			SampleDom: sample,
		}}
		j, err := New(flags, keys, payload, store, Options{CapacityHint: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	guided := mk(domain.New(0, 1000))
	global := mk(domain.Unknown)

	const n = 4096
	k := vec.New(vec.I64, vec.Size)
	v := vec.New(vec.I64, vec.Size)
	rows := batchRows(vec.Size)
	vals := make(map[int64]int64, n)
	rng := rand.New(rand.NewSource(8))
	for done := 0; done < n; done += vec.Size {
		for i := 0; i < vec.Size; i++ {
			key := int64(done + i)
			k.I64[i] = key
			if rng.Intn(100) == 0 {
				v.I64[i] = 1<<40 - int64(rng.Intn(5)) // outlier
			} else {
				v.I64[i] = int64(rng.Intn(1001))
			}
			vals[key] = v.I64[i]
		}
		guided.Build([]*vec.Vector{k}, []*vec.Vector{v}, rows)
		global.Build([]*vec.Vector{k}, []*vec.Vector{v}, rows)
	}

	// The sample-guided hot record must be thinner than the global-domain
	// one (11 bits + exception code vs 41 bits).
	if guided.Table().HotWidth() >= global.Table().HotWidth() {
		t.Errorf("sample-guided hot record %dB should undercut global %dB",
			guided.Table().HotWidth(), global.Table().HotWidth())
	}

	// Every value, including outliers, must reconstruct exactly.
	for done := 0; done < n; done += vec.Size {
		for i := 0; i < vec.Size; i++ {
			k.I64[i] = int64(done + i)
		}
		mr, mc := guided.Probe([]*vec.Vector{k}, rows)
		if len(mr) != vec.Size {
			t.Fatalf("probe matched %d", len(mr))
		}
		out := vec.New(vec.I64, len(mr))
		outRows := batchRows(len(mr))
		guided.FetchPayload(0, mc, out, outRows)
		for i, r := range mr {
			key := k.I64[r]
			if out.I64[i] != vals[key] {
				t.Fatalf("key %d: payload %d want %d", key, out.I64[i], vals[key])
			}
		}
	}
}

// TestSerialBloomSizedByBuild: a selective join built without owners
// sizes its Bloom filter by the records it built, whatever bound EstRows
// claims, once the build links or, failing that, once the first probe
// arrives; until then it holds no filter memory.
func TestSerialBloomSizedByBuild(t *testing.T) {
	keys := []core.KeyCol{{Name: "k", Type: vec.I64, Dom: domain.New(0, 1<<20)}}
	const nb = 100
	k := vec.New(vec.I64, nb)
	for i := range k.I64 {
		k.I64[i] = int64(i) * 7
	}
	want := hashtab.NewBloom(nb).MemoryBytes()
	for _, linkFirst := range []bool{true, false} {
		j, err := New(core.Flags{}, keys, nil, strs.NewStore(false), Options{Selective: true, EstRows: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		j.Build([]*vec.Vector{k}, nil, batchRows(nb))
		if got := j.MemoryBytes() - j.pt.MemoryBytes(); got != 0 {
			t.Fatalf("filter holds %d bytes before the build links", got)
		}
		if linkFirst {
			j.Link()
		}
		q := vec.New(vec.I64, 2*nb)
		for i := range q.I64 {
			q.I64[i] = int64(i) * 7 // the first nb hit
		}
		if mrows, _ := j.Probe([]*vec.Vector{q}, batchRows(2*nb)); len(mrows) != nb {
			t.Fatalf("link first %v: %d matches, want %d", linkFirst, len(mrows), nb)
		}
		if got := j.MemoryBytes() - j.pt.MemoryBytes(); got != want {
			t.Errorf("link first %v: filter of %d bytes, want %d (sized for %d keys)", linkFirst, got, want, nb)
		}
		if checked, _ := j.BloomStats(); checked != 2*nb {
			t.Errorf("link first %v: pre-pass checked %d rows, want %d", linkFirst, checked, 2*nb)
		}
	}
}
