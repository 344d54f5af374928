package exec

import (
	"fmt"
	"testing"

	"ocht/internal/core"
	"ocht/internal/storage"
	"ocht/internal/strs"
	"ocht/internal/vec"
)

// namesTable builds blocks*BlockRows rows of a key k = i % 1000 and a
// string name unique to each row, sealed under the given compression mode,
// so a filter on k keeps one row in a thousand and every kept row reads a
// dictionary entry no other row uses.
func namesTable(t *testing.T, blocks int, mode storage.CompressMode) *storage.Table {
	t.Helper()
	defer storage.SetSealCompression(storage.SealCompression())
	storage.SetSealCompression(mode)
	k := storage.NewColumn("k", vec.I64, false)
	name := storage.NewColumn("name", vec.Str, false)
	for i := 0; i < blocks*storage.BlockRows; i++ {
		k.AppendInt(int64(i % 1000))
		name.AppendString(fmt.Sprintf("name-%07d", i))
	}
	tab := storage.NewTable("names", k, name)
	tab.Seal()
	if got := name.Block(0).DictCompressed(); got != (mode == storage.CompressOn) {
		t.Fatalf("block 0 compressed = %v under %v", got, mode)
	}
	return tab
}

// TestFilteredScanInternsOnlySurvivors: a filtered scan of a multi-block,
// seal-compressed string column interns the dictionary entries of the rows
// the filter keeps and no others — counted as USSR insert attempts, and
// without the USSR as bytes on the string heap.
func TestFilteredScanInternsOnlySurvivors(t *testing.T) {
	const blocks = 3
	tab := namesTable(t, blocks, storage.CompressOn)
	build := func() Op {
		scan := NewScan(tab, "k", "name")
		m := scan.Meta()
		f := NewFilter(scan, Eq(Col(m, "k"), Int(7)))
		return NewProject(f, []string{"name"}, []*Expr{Col(m, "name")})
	}
	survivors := 0
	for i := 0; i < blocks*storage.BlockRows; i++ {
		if i%1000 == 7 {
			survivors++
		}
	}

	qc := NewQCtx(core.Flags{UseUSSR: true})
	if res := Run(qc, build()); len(res.Rows) != survivors {
		t.Fatalf("%d rows, want %d", len(res.Rows), survivors)
	}
	if got := qc.Store.U.Stats().Candidates; got != survivors {
		t.Errorf("USSR insert attempts = %d, want one per surviving row (%d), not one per dictionary entry (%d)",
			got, survivors, blocks*storage.BlockRows)
	}

	vanilla := NewQCtx(core.Vanilla())
	if res := Run(vanilla, build()); len(res.Rows) != survivors {
		t.Fatalf("vanilla: %d rows, want %d", len(res.Rows), survivors)
	}
	// Every surviving name is 12 bytes; a heap string is a 12-byte header
	// plus its bytes, after the heap's 4 reserved bytes.
	if got, want := vanilla.Store.MemoryBytes(), 4+survivors*(12+len("name-0000007")); got != want {
		t.Errorf("heap bytes = %d, want %d", got, want)
	}
}

// TestViewBlockAllocsConstant: viewing a compressed string block costs a
// constant number of allocations — the fresh code table when the caller
// passes none, nothing when it passes one back — however many entries the
// dictionary has; decoding reuses the view's scratch and interns nothing.
func TestViewBlockAllocsConstant(t *testing.T) {
	tab := namesTable(t, 1, storage.CompressOn)
	c := tab.Col("name")
	st := strs.NewStore(true)
	var view vec.Vector
	_, refs, _ := c.ViewBlock(0, &view, st, nil) // grow the decode scratch
	if len(refs) != storage.BlockRows {
		t.Fatalf("code table has %d entries, want %d", len(refs), storage.BlockRows)
	}
	if n := testing.AllocsPerRun(10, func() { c.ViewBlock(0, &view, st, nil) }); n > 1 {
		t.Errorf("ViewBlock with a fresh code table allocates %v times, want at most 1", n)
	}
	if n := testing.AllocsPerRun(10, func() { _, refs, _ = c.ViewBlock(0, &view, st, refs) }); n != 0 {
		t.Errorf("ViewBlock reusing its code table allocates %v times, want 0", n)
	}
	if st.U.Stats().Candidates != 0 {
		t.Errorf("viewing a block interned %d strings, want 0", st.U.Stats().Candidates)
	}
	if got := string(view.DictEntry(42)); got != "name-0000042" {
		t.Errorf("entry 42 = %q", got)
	}
	if r := view.StrRefAt(42); st.Get(r) != "name-0000042" || refs[42] != r {
		t.Errorf("first read of row 42 must intern its entry into the shared code table")
	}
}

// TestPeakMemoryCountsWorkerHeaps: at Workers=2 the strings a query
// interns land on the workers' private heaps, and PeakMemoryBytes must
// count them as it counts the single heap of a serial run.
func TestPeakMemoryCountsWorkerHeaps(t *testing.T) {
	tab := namesTable(t, 2, storage.CompressOn)
	build := func() Op {
		scan := NewScan(tab, "k", "name")
		m := scan.Meta()
		return NewFilter(scan, Lt(Col(m, "k"), Int(100)))
	}
	serial := NewQCtx(core.Vanilla())
	want := len(Run(serial, build()).Rows)
	par := NewQCtx(core.Vanilla())
	par.Workers = 2
	if got := len(Run(par, build()).Rows); got != want {
		t.Fatalf("Workers=2: %d rows, want %d", got, want)
	}
	if par.WorkerFootprints() == nil {
		t.Fatal("the plan ran serially; the test needs the parallel driver")
	}
	ser, p := serial.Store.MemoryBytes(), par.Store.MemoryBytes()
	// The same entries are interned either way; the parallel run only
	// adds each worker heap's 4 reserved bytes.
	if p < ser || p > ser+2*4 {
		t.Errorf("Workers=2 string memory = %d bytes, serial = %d: worker heaps must be counted", p, ser)
	}
	if par.PeakMemoryBytes() < p {
		t.Errorf("PeakMemoryBytes %d leaves out string memory %d", par.PeakMemoryBytes(), p)
	}
}
