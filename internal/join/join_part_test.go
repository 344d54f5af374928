package join

import (
	"fmt"
	"sort"
	"testing"

	"ocht/internal/core"
	"ocht/internal/domain"
	"ocht/internal/hashtab"
	"ocht/internal/strs"
	"ocht/internal/vec"
)

// matchTuple is one (probe row, build row, payload) observation, the unit
// of the order-insensitive equivalence check. The build row comes back
// through payload p1, which stores it.
type matchTuple struct {
	row   int32
	build int64
	p2    int32
}

// partJoinData is the build and probe side of the partitioned-join
// fixture: build row i has key (i%1000, i%100) and payload (i, i%11-5);
// probe row x has key (x, x%100), so x < 1000 matches build rows x and
// x+1000 and the rest miss.
const partJoinBuild, partJoinProbe = 2000, 1500

func sortTuples(ts []matchTuple) {
	sort.Slice(ts, func(a, b int) bool {
		x, y := ts[a], ts[b]
		if x.row != y.row {
			return x.row < y.row
		}
		return x.build < y.build
	})
}

// Bloom pre-pass settings runPartJoin forces on the new join, by index:
// the filter New chose (exactly when Selective), always one, never one.
const (
	bloomAsBuilt = iota
	bloomForced
	bloomDropped
)

func runPartJoin(t *testing.T, flags core.Flags, opts Options, bloom int) []matchTuple {
	t.Helper()
	store := strs.NewStore(flags.UseUSSR)
	keys := []core.KeyCol{
		{Name: "k1", Type: vec.I64, Dom: domain.New(0, 999)},
		{Name: "k2", Type: vec.I64, Dom: domain.New(0, 99)},
	}
	payload := []PayloadCol{
		{Name: "p1", Type: vec.I64, Dom: domain.New(0, partJoinBuild-1)},
		{Name: "p2", Type: vec.I32, Dom: domain.New(-5, 5)},
	}
	j, err := New(flags, keys, payload, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	switch bloom {
	case bloomForced:
		j.bloom = hashtab.NewBloom(partJoinBuild)
	case bloomDropped:
		j.bloom = nil
	}
	const nb = partJoinBuild
	k1 := vec.New(vec.I64, nb)
	k2 := vec.New(vec.I64, nb)
	p1 := vec.New(vec.I64, nb)
	p2 := vec.New(vec.I32, nb)
	for i := 0; i < nb; i++ {
		k1.I64[i] = int64(i % 1000)
		k2.I64[i] = int64(i % 100)
		p1.I64[i] = int64(i)
		p2.I32[i] = int32(i%11) - 5
	}
	// Build in two batches so partition scratch reuse is exercised.
	j.Build([]*vec.Vector{k1, k2}, []*vec.Vector{p1, p2}, batchRows(nb)[:nb/2])
	j.Build([]*vec.Vector{k1, k2}, []*vec.Vector{p1, p2}, batchRows(nb)[nb/2:])
	if j.Len() != nb {
		t.Fatalf("build stored %d", j.Len())
	}

	const np = partJoinProbe
	q1 := vec.New(vec.I64, np)
	q2 := vec.New(vec.I64, np)
	for i := 0; i < np; i++ {
		q1.I64[i] = int64(i)
		q2.I64[i] = int64(i % 100)
	}
	mrows, mrecs := j.Probe([]*vec.Vector{q1, q2}, batchRows(np))
	wantBloom := bloom == bloomForced || bloom == bloomAsBuilt && opts.Selective
	if checked, _ := j.BloomStats(); (checked > 0) != wantBloom {
		t.Fatalf("Bloom pre-pass checked %d rows, want a pre-pass: %v", checked, wantBloom)
	}
	out1 := vec.New(vec.I64, len(mrecs))
	out2 := vec.New(vec.I32, len(mrecs))
	outRows := batchRows(len(mrecs))
	j.FetchPayload(0, mrecs, out1, outRows)
	j.FetchPayload(1, mrecs, out2, outRows)
	tuples := make([]matchTuple, len(mrows))
	for i := range mrows {
		tuples[i] = matchTuple{row: mrows[i], build: out1.I64[i], p2: out2.I32[i]}
	}
	sortTuples(tuples)
	return tuples
}

// nestedLoopJoin is runPartJoin's reference: every (probe, build) pair of
// the fixture's arrays whose keys are equal, found by a nested loop.
func nestedLoopJoin() []matchTuple {
	var out []matchTuple
	for x := 0; x < partJoinProbe; x++ {
		for i := 0; i < partJoinBuild; i++ {
			if i%1000 == x && i%100 == x%100 {
				out = append(out, matchTuple{row: int32(x), build: int64(i), p2: int32(i%11) - 5})
			}
		}
	}
	sortTuples(out)
	return out
}

// TestPartitionedJoinEquivalence checks that no radix width, Bloom
// pre-pass or payload layout changes the match multiset or the
// reconstructed payloads, against a nested-loop join over the generated
// arrays.
func TestPartitionedJoinEquivalence(t *testing.T) {
	want := nestedLoopJoin()
	if len(want) != 2000 {
		t.Fatalf("reference found %d matches, want 2000", len(want))
	}
	for _, flags := range flagCombos {
		for _, selective := range []bool{false, true} {
			for _, bits := range []int{0, 3, 6, -1} {
				for _, bloom := range []int{bloomAsBuilt, bloomForced, bloomDropped} {
					name := fmt.Sprintf("%s/selective=%v/bits=%d/bloom=%d", flagName(flags), selective, bits, bloom)
					t.Run(name, func(t *testing.T) {
						got := runPartJoin(t, flags, Options{Selective: selective, PartitionBits: bits}, bloom)
						if len(got) != len(want) {
							t.Fatalf("%d matches, reference found %d", len(got), len(want))
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("tuple %d diverges: %+v vs %+v", i, got[i], want[i])
							}
						}
					})
				}
			}
		}
	}
}

// TestBloomShedsMisses drives an intentionally miss-heavy probe and
// checks the pre-pass sheds the bulk of it before any table access.
func TestBloomShedsMisses(t *testing.T) {
	store := strs.NewStore(false)
	keys := []core.KeyCol{{Name: "k", Type: vec.I64, Dom: domain.New(0, 1<<30)}}
	j, err := New(core.Flags{Compress: true}, keys, nil, store, Options{Selective: true, EstRows: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const nb = 4096
	k := vec.New(vec.I64, nb)
	for i := range k.I64 {
		k.I64[i] = int64(i) * 1024 // sparse keys: probes mostly miss
	}
	j.Build([]*vec.Vector{k}, nil, batchRows(nb))

	q := vec.New(vec.I64, vec.Size)
	hits := 0
	for base := 0; base < 1<<16; base += vec.Size {
		for i := range q.I64 {
			q.I64[i] = int64(base + i) // dense probe: 1/1024 hit rate
		}
		mrows, _ := j.Probe([]*vec.Vector{q}, batchRows(vec.Size))
		hits += len(mrows)
	}
	if want := 1 << 6; hits != want { // multiples of 1024 below 2^16
		t.Fatalf("probe found %d matches, want %d", hits, want)
	}
	checked, dropped := j.BloomStats()
	if checked == 0 {
		t.Fatal("Bloom pre-pass never ran")
	}
	misses := checked - int64(hits)
	if float64(dropped) < 0.9*float64(misses) {
		t.Errorf("Bloom shed %d of %d misses (%.1f%%), want > 90%%",
			dropped, misses, 100*float64(dropped)/float64(misses))
	}
}
