package core

import (
	"fmt"
	"slices"
	"testing"

	"ocht/internal/domain"
	"ocht/internal/strs"
	"ocht/internal/vec"
)

// linkFixture is a join build side of n rows whose row i carries the key
// (i%keys, a string of it), prepared and hashed once.
type linkFixture struct {
	schema *KeySchema
	cols   []*vec.Vector
	hashes []uint64
	p      *Prepared
}

func newLinkFixture(t *testing.T, flags Flags, n, keys int) *linkFixture {
	t.Helper()
	st := strs.NewStore(flags.UseUSSR)
	schema, err := NewKeySchema(flags, []KeyCol{
		{Name: "a", Type: vec.I64, Dom: domain.New(0, 1<<20)},
		{Name: "s", Type: vec.Str},
	}, st)
	if err != nil {
		t.Fatal(err)
	}
	a, s := vec.New(vec.I64, n), vec.New(vec.Str, n)
	for i := 0; i < n; i++ {
		a.I64[i] = int64(i % keys)
		s.Str[i] = st.Intern(fmt.Sprintf("k%d", i%keys%7))
	}
	f := &linkFixture{schema: schema, cols: []*vec.Vector{a, s}, hashes: make([]uint64, n)}
	rows := denseRows(n)
	f.p = schema.Prepare(f.cols, rows)
	schema.Hash(f.p, rows, f.hashes)
	return f
}

// insertOneByOne is the reference build: every record linked as it is
// allocated, the directory doubling (and rehashing) on every overflow.
func insertOneByOne(t *Table, p *Prepared, hashes []uint64, rows []int32) {
	for _, r := range rows {
		rec := t.alloc(1)
		t.storeKeyOne(p, int(r), rec)
		t.link(rec, hashes[r])
	}
}

// probeAll probes every key of the fixture and returns the pairs in the
// order the chains yield them.
func (f *linkFixture) probeAll(t *Table) (rows, recs []int32) {
	return t.ProbeChains(f.p, f.hashes, denseRows(len(f.hashes)), nil, nil)
}

// TestLinkOnceMatchesGrowReference checks that batch inserts linked once
// leave the directory, every chain's order, the hot-area footprint and
// every probe's pairs exactly as inserting record by record with doubling
// does, for builds that cross 0, 1 and 5 doublings of a 16-bucket
// directory, with a probe (hence a link) between batches or not.
func TestLinkOnceMatchesGrowReference(t *testing.T) {
	for _, flags := range []Flags{Vanilla(), {Compress: true}, All()} {
		for _, n := range []int{10, 20, 400} {
			for _, probeBetween := range []bool{false, true} {
				name := fmt.Sprintf("%s/n%d/probeBetween=%v", flagName(flags), n, probeBetween)
				t.Run(name, func(t *testing.T) {
					f := newLinkFixture(t, flags, n, n/3+1)
					ref := NewTable(f.schema, 8, 0, 16)
					insertOneByOne(ref, f.p, f.hashes, denseRows(n))

					got := NewTable(f.schema, 8, 0, 16)
					recOut := make([]int32, n)
					for lo := 0; lo < n; lo += 7 {
						rows := denseRows(min(lo+7, n))[lo:]
						got.InsertBatch(f.p, f.hashes, rows, recOut)
						if probeBetween {
							got.Link()
						}
					}
					if got.HotAreaBytes() != ref.HotAreaBytes() {
						t.Fatalf("HotAreaBytes before linking %d, reference %d", got.HotAreaBytes(), ref.HotAreaBytes())
					}
					gr, gc := f.probeAll(got)
					rr, rc := f.probeAll(ref)
					if !slices.Equal(got.heads, ref.heads) || !slices.Equal(got.next, ref.next) {
						t.Fatal("directory or chains differ from the one-by-one build")
					}
					if !slices.Equal(gr, rr) || !slices.Equal(gc, rc) {
						t.Fatal("probe pairs differ from the one-by-one build")
					}
					if got.HotAreaBytes() != ref.HotAreaBytes() || got.Unlinked() != 0 {
						t.Fatalf("HotAreaBytes %d, reference %d, %d unlinked", got.HotAreaBytes(), ref.HotAreaBytes(), got.Unlinked())
					}
					mult := map[int]int{}
					for i := 0; i < n; i++ {
						mult[i%(n/3+1)]++
					}
					want := 0
					for i := 0; i < n; i++ {
						want += mult[i%(n/3+1)]
					}
					if len(gr) != want {
						t.Fatalf("%d pairs, want %d", len(gr), want)
					}
				})
			}
		}
	}
}

// TestInsertBatchThenProbeFindsAll probes straight after InsertBatch,
// through ProbeChains and through a partitioned ProbeChainsStaged, with
// no explicit Link: the probes link first and find every record.
func TestInsertBatchThenProbeFindsAll(t *testing.T) {
	const n = 3000
	f := newLinkFixture(t, All(), n, n)
	rows := denseRows(n)
	recOut := make([]int32, n)

	mono := NewTable(f.schema, 0, 0, 16)
	mono.InsertBatch(f.p, f.hashes, rows, recOut)
	if mono.Unlinked() != n {
		t.Fatalf("%d records pending, want %d", mono.Unlinked(), n)
	}
	pr, pc := f.probeAll(mono)
	for i := range pr {
		if pc[i] != pr[i] {
			t.Fatalf("row %d matched record %d", pr[i], pc[i])
		}
	}
	if len(pr) != n {
		t.Fatalf("ProbeChains found %d of %d records", len(pr), n)
	}

	pt := NewPartTable(f.schema, 0, 0, 16, 3)
	for pi, g := range pt.PartitionRows(f.hashes, rows) {
		pt.Part(pi).InsertBatch(f.p, f.hashes, g, recOut)
	}
	heads := make([]int32, n)
	sr, _ := pt.ProbeChainsStaged(f.p, f.hashes, rows, heads, nil, nil)
	if !slices.Equal(sr, rows) {
		t.Fatalf("ProbeChainsStaged found %d of %d records", len(sr), n)
	}
}
