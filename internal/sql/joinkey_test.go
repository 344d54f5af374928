package sql

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"ocht/internal/core"
	"ocht/internal/exec"
	"ocht/internal/storage"
	"ocht/internal/vec"
)

var keyTestFlags = map[string]core.Flags{
	"vanilla": core.Vanilla(),
	"ussr":    {UseUSSR: true},
	"all":     core.All(),
}

// TestJoinOnIncomparableTypesIsAnError: a key pair that is not two
// integers, two DOUBLEs or two VARCHARs is a positioned plan error, not a
// panic inside the hash table.
func TestJoinOnIncomparableTypesIsAnError(t *testing.T) {
	cat := testCatalog()
	for _, q := range []string{
		"SELECT COUNT(*) FROM sales JOIN products ON region = pid",
		"SELECT COUNT(*) FROM sales JOIN products ON product_id = pname",
		"SELECT COUNT(*) FROM sales JOIN products ON pid = product_id AND pname = qty",
	} {
		for name, flags := range keyTestFlags {
			_, err := Run(q, cat, exec.NewQCtx(flags))
			if err == nil || !strings.Contains(err.Error(), "join keys must be both integer, both DOUBLE or both VARCHAR") {
				t.Errorf("%s: %q returned %v, want the key-type error", name, q, err)
			}
		}
	}
}

// TestJoinKeysMatchNestedLoop joins on DOUBLE keys (±0 and NULLs
// included) and on integer keys of different widths, inner and left outer,
// and checks every answer against a nested-loop reference.
func TestJoinKeysMatchNestedLoop(t *testing.T) {
	const nl, nr = 3000, 2500 // the build side is large enough to compress under All()
	// k/4 for k in [-200, 200]; k = 0 alternates between -0 and +0.
	double := func(k, i int) float64 {
		if k == 0 && i%2 == 1 {
			return math.Copysign(0, -1)
		}
		return float64(k) / 4
	}
	type row struct {
		key  int      // id (left) or tag number (right)
		x    *float64 // nil = NULL
		n    int64
		name string
	}
	var left, right []row
	id, x, n := storage.NewColumn("id", vec.I64, false), storage.NewColumn("x", vec.F64, true), storage.NewColumn("n", vec.I32, false)
	for i := 0; i < nl; i++ {
		r := row{key: i, n: int64(i % 50)}
		id.AppendInt(int64(i))
		n.AppendInt(r.n)
		if i%7 == 0 {
			x.AppendNull()
		} else {
			f := double(i%401-200, i)
			r.x = &f
			x.AppendFloat(f)
		}
		left = append(left, r)
	}
	tag, y, m := storage.NewColumn("tag", vec.Str, false), storage.NewColumn("y", vec.F64, true), storage.NewColumn("m", vec.I64, false)
	for j := 0; j < nr; j++ {
		r := row{key: j, n: int64(j % 40), name: fmt.Sprintf("t%04d", j)}
		tag.AppendString(r.name)
		m.AppendInt(r.n)
		if j%11 == 0 {
			y.AppendNull()
		} else {
			f := double((j*7)%401-200, j+1)
			r.x = &f
			y.AppendFloat(f)
		}
		right = append(right, r)
	}
	cat := storage.NewCatalog()
	for _, tb := range []*storage.Table{storage.NewTable("l", id, x, n), storage.NewTable("r", tag, y, m)} {
		tb.Seal()
		cat.Add(tb)
	}

	// reference renders "id|tag" for every pair the predicate accepts,
	// plus "id|NULL" for unmatched left rows of an outer join.
	reference := func(match func(a, b row) bool, outer bool) []string {
		var out []string
		for _, a := range left {
			hit := false
			for _, b := range right {
				if match(a, b) {
					out = append(out, fmt.Sprintf("%d|%s", a.key, b.name))
					hit = true
				}
			}
			if outer && !hit {
				out = append(out, fmt.Sprintf("%d|NULL", a.key))
			}
		}
		slices.Sort(out)
		return out
	}
	doubleEq := func(a, b row) bool { return a.x != nil && b.x != nil && *a.x == *b.x }
	intEq := func(a, b row) bool { return a.n == b.n }
	cases := []struct {
		q    string
		want []string
	}{
		{"SELECT id, tag FROM l JOIN r ON x = y", reference(doubleEq, false)},
		{"SELECT id, tag FROM l LEFT JOIN r ON y = x", reference(doubleEq, true)},
		{"SELECT id, tag FROM l JOIN r ON n = m", reference(intEq, false)},
		{"SELECT id, tag FROM r JOIN l ON m = n", reference(intEq, false)},
		{"SELECT id, tag FROM l JOIN r ON x = y AND n = m", reference(func(a, b row) bool { return doubleEq(a, b) && intEq(a, b) }, false)},
	}
	for name, flags := range keyTestFlags {
		for _, c := range cases {
			res, err := Run(c.q, cat, exec.NewQCtx(flags))
			if err != nil {
				t.Fatalf("%s: %q: %v", name, c.q, err)
			}
			var got []string
			for _, r := range res.Rows {
				got = append(got, r[0].String()+"|"+r[1].String())
			}
			slices.Sort(got)
			if !slices.Equal(got, c.want) {
				t.Errorf("%s: %q returned %d rows, the nested loop %d", name, c.q, len(got), len(c.want))
			}
		}
	}
}

// TestManyDistinctStringKeys groups and joins on more distinct strings
// than the USSR holds, so under All() most keys are rejected (slot code 0)
// and must hash by content. The answers must equal the USSR-only ones.
func TestManyDistinctStringKeys(t *testing.T) {
	const rows = 70_000
	s, v := storage.NewColumn("s", vec.Str, false), storage.NewColumn("v", vec.I64, false)
	s2, w := storage.NewColumn("s2", vec.Str, false), storage.NewColumn("w", vec.I64, false)
	for i := 0; i < rows; i++ {
		s.AppendString(fmt.Sprintf("customer-%06d-of-the-string-key-test", i))
		v.AppendInt(int64(i % 13))
		s2.AppendString(fmt.Sprintf("customer-%06d-of-the-string-key-test", (i*3)%(rows+rows/10)))
		w.AppendInt(int64(i % 5))
	}
	cat := storage.NewCatalog()
	for _, tb := range []*storage.Table{storage.NewTable("a", s, v), storage.NewTable("b", s2, w)} {
		tb.Seal()
		cat.Add(tb)
	}
	for _, q := range []string{
		"SELECT s, COUNT(*), SUM(v) FROM a GROUP BY s ORDER BY s",
		"SELECT COUNT(*), SUM(v * w), MIN(s), MAX(s2) FROM a JOIN b ON s = s2",
		"SELECT w, COUNT(*) FROM a JOIN b ON s2 = s GROUP BY w ORDER BY w",
	} {
		var ref string
		for _, name := range []string{"ussr", "all"} {
			res, err := Run(q, cat, exec.NewQCtx(keyTestFlags[name]))
			if err != nil {
				t.Fatalf("%s: %q: %v", name, q, err)
			}
			if strings.Contains(q, "GROUP BY s") && len(res.Rows) != rows {
				t.Fatalf("%s: %d groups, want %d", name, len(res.Rows), rows)
			}
			if got := res.String(); ref == "" {
				ref = got
			} else if got != ref {
				t.Errorf("%q differs between USSR-only and All()", q)
			}
		}
	}
}

// TestJoinPayloadNulls carries nullable build columns — int, narrow int
// (its NULL code needs a wider type), string and DOUBLE (-0 included) —
// through inner and left outer joins: a NULL payload must come back as
// NULL, every other value unchanged.
func TestJoinPayloadNulls(t *testing.T) {
	const nl, nr = 4000, 3000 // ids >= nr miss; the build side compresses under All()
	id := storage.NewColumn("id", vec.I64, false)
	for i := 0; i < nl; i++ {
		id.AppendInt(int64(i))
	}
	rid := storage.NewColumn("rid", vec.I64, false)
	nv := storage.NewColumn("nv", vec.I32, true)
	nb := storage.NewColumn("nb", vec.I8, true)
	nt := storage.NewColumn("nt", vec.Str, true)
	nd := storage.NewColumn("nd", vec.F64, true)
	cells := make([]string, nr) // the payload cells of build row j
	for j := 0; j < nr; j++ {
		rid.AppendInt(int64(j))
		var c []string
		if j%7 == 0 {
			nv.AppendNull()
			c = append(c, "NULL")
		} else {
			nv.AppendInt(int64(j % 100))
			c = append(c, fmt.Sprint(j%100))
		}
		if j%3 == 0 {
			nb.AppendNull()
			c = append(c, "NULL")
		} else {
			nb.AppendInt(int64(j % 128))
			c = append(c, fmt.Sprint(j%128))
		}
		if j%5 == 0 {
			nt.AppendNull()
			c = append(c, "NULL")
		} else {
			nt.AppendString(fmt.Sprintf("t%02d", j%40))
			c = append(c, fmt.Sprintf("t%02d", j%40))
		}
		switch {
		case j%4 == 1:
			nd.AppendNull()
			c = append(c, "NULL")
		case j%8 == 0:
			nd.AppendFloat(math.Copysign(0, -1))
			c = append(c, "-0.0000")
		default:
			nd.AppendFloat(float64(j) / 8)
			c = append(c, fmt.Sprintf("%.4f", float64(j)/8))
		}
		cells[j] = strings.Join(c, "|")
	}
	cat := storage.NewCatalog()
	for _, tb := range []*storage.Table{storage.NewTable("l", id), storage.NewTable("r", rid, nv, nb, nt, nd)} {
		tb.Seal()
		cat.Add(tb)
	}
	for _, left := range []bool{false, true} {
		var want []string
		for i := 0; i < nl; i++ {
			switch {
			case i < nr:
				want = append(want, fmt.Sprintf("%d|%s", i, cells[i]))
			case left:
				want = append(want, fmt.Sprintf("%d|NULL|NULL|NULL|NULL", i))
			}
		}
		q := "SELECT id, nv, nb, nt, nd FROM l JOIN r ON id = rid ORDER BY id"
		if left {
			q = strings.Replace(q, "JOIN", "LEFT JOIN", 1)
		}
		for name, flags := range keyTestFlags {
			res, err := Run(q, cat, exec.NewQCtx(flags))
			if err != nil {
				t.Fatalf("%s: %q: %v", name, q, err)
			}
			var got []string
			for _, r := range res.Rows {
				var c []string
				for _, v := range r {
					c = append(c, v.String())
				}
				got = append(got, strings.Join(c, "|"))
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %q returned %d rows, want %d", name, q, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: %q row %d: got %s, want %s", name, q, i, got[i], want[i])
				}
			}
		}
	}
}
