package exec

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"ocht/internal/agg"
	"ocht/internal/core"
	"ocht/internal/storage"
	"ocht/internal/vec"
)

// memoKey yields key column c of row i: its string, or ok false for NULL.
type memoKey func(i, c int) (s string, ok bool)

// memoTable seals n rows of len(names) string key columns drawn from key,
// nullable where nullable says, and an integer v = i%7 + 1, under the given
// seal compression mode.
func memoTable(t *testing.T, mode storage.CompressMode, n int, names []string, nullable []bool, key memoKey) *storage.Table {
	t.Helper()
	defer storage.SetSealCompression(storage.SealCompression())
	storage.SetSealCompression(mode)
	cols := make([]*storage.Column, len(names))
	for c, name := range names {
		cols[c] = storage.NewColumn(name, vec.Str, nullable[c])
	}
	v := storage.NewColumn("v", vec.I64, false)
	for i := 0; i < n; i++ {
		for c, col := range cols {
			if s, ok := key(i, c); ok {
				col.AppendString(s)
			} else {
				col.AppendNull()
			}
		}
		v.AppendInt(int64(i%7 + 1))
	}
	tab := storage.NewTable("memo", append(cols, v)...)
	tab.Seal()
	if got := cols[0].Block(0).DictCompressed(); got != (mode == storage.CompressOn) {
		t.Fatalf("block 0 dictionary compressed = %v under %v", got, mode)
	}
	return tab
}

// memoAgg groups tab by the named key columns with COUNT(*), SUM, MIN and
// AVG over v.
func memoAgg(tab *storage.Table, names []string) Op {
	scan := NewScan(tab, append(append([]string{}, names...), "v")...)
	m := scan.Meta()
	keys := make([]*Expr, len(names))
	for i, name := range names {
		keys[i] = Col(m, name)
	}
	return NewHashAgg(scan, names, keys, []AggExpr{
		{Func: agg.CountStar, Name: "n"},
		{Func: agg.Sum, Arg: Col(m, "v"), Name: "s"},
		{Func: agg.Min, Arg: Col(m, "v"), Name: "lo"},
		{Func: Avg, Arg: Col(m, "v"), Name: "mean"},
	})
}

var memoModes = []storage.CompressMode{storage.CompressOff, storage.CompressOn}

// runMemo runs plan at W=workers over encoded views and returns the
// result and the rows the code memo resolved.
func runMemo(plan Op, flags core.Flags, workers int) (*Result, int64) {
	qc := NewQCtx(flags)
	qc.Workers = workers
	res := Run(qc, plan)
	return res, qc.Stats.Counter(CtrAggCodeHits)
}

// eagerRun runs plan serially over plain vectors, which never take the
// memo: the reference answer, groups in first-occurrence order.
func eagerRun(t *testing.T, plan Op, flags core.Flags) *Result {
	t.Helper()
	qc := NewQCtx(flags)
	qc.EagerMaterialize = true
	res := Run(qc, plan)
	if hits := qc.Stats.Counter(CtrAggCodeHits); hits != 0 {
		t.Fatalf("eager run resolved %d rows through the code memo", hits)
	}
	return res
}

// checkMemoMatchesEager runs the group-by over tab serially with and
// without encoded views and requires the same rows in the same order, and
// that the memo resolved at least wantHits rows.
func checkMemoMatchesEager(t *testing.T, tab *storage.Table, names []string, wantHits int64) {
	t.Helper()
	for _, flags := range []core.Flags{core.Vanilla(), {UseUSSR: true}, core.All()} {
		want := eagerRun(t, memoAgg(tab, names), flags).String()
		got, hits := runMemo(memoAgg(tab, names), flags, 1)
		if got.String() != want {
			t.Fatalf("flags %+v: code memo answer (groups in order)\n%s\nwant\n%s", flags, got, want)
		}
		if hits < wantHits {
			t.Errorf("flags %+v: code memo resolved %d rows, want at least %d", flags, hits, wantHits)
		}
	}
}

// TestCodeMemoStaleDictionary: block 0 codes "a" as 0 and "x" as 1, block
// 1 codes "x" as 0 and "y" as 1, so one code names different strings and
// one string has two codes across the blocks. A memo that outlived its
// view would fold block 1's rows into block 0's groups.
func TestCodeMemoStaleDictionary(t *testing.T) {
	for _, mode := range memoModes {
		t.Run(mode.String(), func(t *testing.T) {
			n := 2 * storage.BlockRows
			tab := memoTable(t, mode, n, []string{"k"}, []bool{false}, func(i, c int) (string, bool) {
				if i < storage.BlockRows {
					return []string{"a", "x"}[i%2], true
				}
				return []string{"x", "y", "y"}[i%3], true
			})
			checkMemoMatchesEager(t, tab, []string{"k"}, int64(n-4)) // two codes a block
		})
	}
}

// TestCodeMemoNullKeys: NULLs take their own slot in one nullable key and
// across two, beside a non-nullable one.
func TestCodeMemoNullKeys(t *testing.T) {
	key := func(i, c int) (string, bool) {
		switch c {
		case 0:
			return fmt.Sprintf("dept-%d", i%5), i%4 != 1
		case 1:
			return fmt.Sprintf("state-%d", i%3), i%6 != 2
		}
		return fmt.Sprintf("type-%d", i%2), true
	}
	for _, mode := range memoModes {
		t.Run(mode.String(), func(t *testing.T) {
			tab := memoTable(t, mode, storage.BlockRows+5000, []string{"dept", "state", "type"},
				[]bool{true, true, false}, key)
			t.Run("one", func(t *testing.T) { checkMemoMatchesEager(t, tab, []string{"dept"}, 1) })
			t.Run("several", func(t *testing.T) {
				checkMemoMatchesEager(t, tab, []string{"dept", "type", "state"}, 1)
			})
		})
	}
}

// TestCodeMemoOverBoundTakesOldPath: two keys of 300 entries each combine
// to 90 000 codes, past memoMaxSlots, so no row is memoised and the answer
// still matches; either key alone fits.
func TestCodeMemoOverBoundTakesOldPath(t *testing.T) {
	tab := memoTable(t, storage.CompressOn, storage.BlockRows, []string{"a", "b"}, []bool{false, false},
		func(i, c int) (string, bool) {
			if c == 0 {
				return fmt.Sprintf("a%03d", i%300), true
			}
			return fmt.Sprintf("b%03d", i/300%300), true
		})
	if 300*300 <= memoMaxSlots {
		t.Fatal("the two keys fit the memo bound")
	}
	for _, names := range [][]string{{"a", "b"}, {"a"}} {
		want := eagerRun(t, memoAgg(tab, names), core.All()).String()
		got, hits := runMemo(memoAgg(tab, names), core.All(), 1)
		if got.String() != want {
			t.Fatalf("%v: answer differs from the eager run", names)
		}
		if over := len(names) == 2; over != (hits == 0) {
			t.Errorf("%v: code memo resolved %d rows", names, hits)
		}
	}
}

// TestCodeMemoHitsQ1Shape pins the counter on a Q1-shaped group-by (two
// small dictionary keys, every combination in each block's first batch):
// a view's first batch misses once per combination, its later rows with a
// combination copy that row's record, and every later row hits, so hits =
// rows − misses with misses six per block.
func TestCodeMemoHitsQ1Shape(t *testing.T) {
	const blocks = 3
	n := blocks*storage.BlockRows - 1000
	for _, mode := range memoModes {
		tab := memoTable(t, mode, n, []string{"returnflag", "linestatus"}, []bool{false, false},
			func(i, c int) (string, bool) {
				if c == 0 {
					return []string{"A", "N", "R"}[i%3], true
				}
				return []string{"F", "O"}[i%2], true
			})
		for _, flags := range []core.Flags{core.Vanilla(), core.All()} {
			want := eagerRun(t, memoAgg(tab, []string{"returnflag", "linestatus"}), flags).String()
			got, hits := runMemo(memoAgg(tab, []string{"returnflag", "linestatus"}), flags, 1)
			if got.String() != want {
				t.Fatalf("%v %+v: answer differs from the eager run", mode, flags)
			}
			if misses := int64(blocks * 6); hits != int64(n)-misses {
				t.Errorf("%v %+v: %d hits, want rows − misses = %d − %d", mode, flags, hits, n, misses)
			}
		}
	}
}

// TestCodeMemoNearUniqueCutOff: a view of unique keys stops using the
// memo once its misses pass memoMissFloor beyond four times its hits.
func TestCodeMemoNearUniqueCutOff(t *testing.T) {
	tab := memoTable(t, storage.CompressOn, storage.BlockRows, []string{"id"}, []bool{false},
		func(i, c int) (string, bool) { return fmt.Sprintf("id-%06d", i), true })
	h := memoAgg(tab, []string{"id"}).(*HashAgg)
	h.Open(NewQCtx(core.All()))
	if m := &h.g.memo; !m.off || m.misses > memoMissFloor+vec.Size || m.hits != 0 {
		t.Errorf("unique view: off=%v after %d misses, %d hits", m.off, m.misses, m.hits)
	}
	if h.Len() != storage.BlockRows {
		t.Errorf("%d groups, want %d", h.Len(), storage.BlockRows)
	}
}

// TestParallelPreAggMemoDropsAtFlush: at W=2 over one partition, workers
// pre-aggregate into private tables that flush mid-view (each block brings
// 8 192 new groups and repeats them); a memo that survived Table.Reset
// would fold later rows into records of the emptied table.
func TestParallelPreAggMemoDropsAtFlush(t *testing.T) {
	const blocks = 4
	n := blocks * storage.BlockRows
	names := []string{"g1", "g2"}
	tab := memoTable(t, storage.CompressOn, n, names, []bool{false, true}, func(i, c int) (string, bool) {
		b, j := i/storage.BlockRows, i%storage.BlockRows
		k := j%1024 + 1024*(j/4096%8) // 4 batches per 1 024 keys, 8 192 keys twice a block
		if c == 0 {
			return fmt.Sprintf("grp-%d-%05d", b, k/2), true
		}
		return fmt.Sprintf("half-%d", k%2), k%5 != 0 || b == 0
	})
	sorted := func(r *Result) string {
		lines := strings.Split(r.String(), "\n")
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	want := sorted(eagerRun(t, memoAgg(tab, names), core.All()))
	plan := memoAgg(tab, names).(*HashAgg)
	plan.PartitionBits = 0 // one owner partition: workers never spill row by row
	qc := NewQCtx(core.All())
	qc.Workers = 2
	res := Run(qc, plan)
	if got := sorted(res); got != want {
		t.Fatal("W=2 pre-aggregation answer differs from the eager run")
	}
	groups := int64(len(res.Rows))
	spilled := qc.Stats.Counter(CtrAggRowsSpilled)
	if spilled <= groups {
		t.Fatalf("%d partial records for %d groups: no worker flushed mid-view", spilled, groups)
	}
	if hits := qc.Stats.Counter(CtrAggCodeHits); hits == 0 {
		t.Error("workers never resolved a row through the code memo")
	}
}
