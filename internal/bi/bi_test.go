package bi

import (
	"sort"
	"strings"
	"testing"

	"ocht/internal/core"
	"ocht/internal/exec"
	"ocht/internal/storage"
)

var testCat *storage.Catalog

func catFor(t testing.TB) *storage.Catalog {
	if testCat == nil {
		testCat = Gen(20_000, 9)
	}
	return testCat
}

func resKey(r *exec.Result) []string {
	rows := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		var parts []string
		for _, v := range row {
			parts = append(parts, v.String())
		}
		rows[i] = strings.Join(parts, "|")
	}
	sort.Strings(rows)
	return rows
}

func TestGen(t *testing.T) {
	cat := catFor(t)
	c := cat.Table("contracts")
	if c.Rows() != 20_000 {
		t.Fatalf("rows %d", c.Rows())
	}
	// String-dominant schema: at least half the columns are strings.
	strCols := 0
	for _, colm := range c.Cols {
		if colm.Type.String() == "str" {
			strCols++
		}
	}
	if strCols*2 < len(c.Cols) {
		t.Errorf("only %d/%d string columns", strCols, len(c.Cols))
	}
	// description is near-unique, agency is low-cardinality.
	if d := c.Col("description").DictStats(); d < c.Rows()/2 {
		t.Errorf("description dictionary too small: %d", d)
	}
	if a := c.Col("agency").DictStats(); a > nAgencies*c.Col("agency").Blocks() {
		t.Errorf("agency dictionary too large: %d", a)
	}
}

func TestAllQueriesAgreeAcrossFlags(t *testing.T) {
	cat := catFor(t)
	combos := []core.Flags{
		core.Vanilla(),
		{UseUSSR: true},
		core.All(),
	}
	for q := 1; q <= NumQueries; q++ {
		var ref []string
		for _, flags := range combos {
			qc := exec.NewQCtx(flags)
			got := resKey(Q(q, cat, qc))
			if ref == nil {
				ref = got
				continue
			}
			if len(ref) != len(got) {
				t.Errorf("Q%d: row count %d vs %d under %+v", q, len(ref), len(got), flags)
				continue
			}
			for i := range ref {
				if ref[i] != got[i] {
					t.Errorf("Q%d row %d differs under %+v:\n%s\nvs\n%s", q, i, flags, ref[i], got[i])
					break
				}
			}
		}
	}
}

func TestUSSRRegimes(t *testing.T) {
	cat := catFor(t)
	// Q1 (agency): dictionary fits, no rejections.
	qc := exec.NewQCtx(core.All())
	Q(1, cat, qc)
	s1 := qc.Store.U.Stats()
	if s1.Rejected != 0 {
		t.Errorf("Q1 should have no rejections, got %d", s1.Rejected)
	}
	if s1.Count == 0 || s1.Count > 200 {
		t.Errorf("Q1 resident strings: %d", s1.Count)
	}
	// Q6 (description): dictionary overflows, rejections appear.
	qc6 := exec.NewQCtx(core.All())
	Q(6, cat, qc6)
	s6 := qc6.Store.U.Stats()
	if s6.Rejected == 0 {
		t.Error("Q6 must overflow the USSR")
	}
	if s6.SizeBytes < 400*1024 {
		t.Errorf("Q6 USSR usage only %d bytes", s6.SizeBytes)
	}
	if s6.AvgLen() <= 0 {
		t.Error("avg length")
	}
}

func TestNullsGroupTogether(t *testing.T) {
	cat := catFor(t)
	qc := exec.NewQCtx(core.All())
	r := Q(10, cat, qc) // dept has ~5% NULLs
	nullRows := 0
	for _, row := range r.Rows {
		if row[0].Null {
			nullRows++
		}
	}
	if nullRows != 1 {
		t.Errorf("expected exactly one NULL dept group, got %d", nullRows)
	}
}

// BenchmarkRound times one pass over all 20 queries the way the
// repository benchmark's bi-strings workload runs them (200 000 rows,
// USSR-only flags, seal compression on, one worker), so a round can be
// profiled: go test -run '^$' -bench Round -cpuprofile cpu.out ./internal/bi
// (the benchmark directory's main package cannot be).
func BenchmarkRound(b *testing.B) {
	storage.SetSealCompression(storage.CompressOn)
	cat := Gen(200_000, 42)
	storage.SetSealCompression(storage.CompressAuto)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for q := 1; q <= NumQueries; q++ {
			Q(q, cat, exec.NewQCtx(core.Flags{UseUSSR: true}))
		}
	}
}
