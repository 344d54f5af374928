package sql

import (
	"sort"
	"strings"
	"testing"

	"ocht/internal/core"
	"ocht/internal/exec"
	"ocht/internal/storage"
	"ocht/internal/vec"
)

// divZeroCatalog holds z(k, a, d, x, y): integer divisors d and DOUBLE
// divisors y that are 0 on some rows and NULL on others.
func divZeroCatalog() *storage.Catalog {
	k := storage.NewColumn("k", vec.I64, false)
	a := storage.NewColumn("a", vec.I64, false)
	d := storage.NewColumn("d", vec.I64, true)
	x := storage.NewColumn("x", vec.F64, false)
	y := storage.NewColumn("y", vec.F64, true)
	as := []int64{10, 11, 12, 13, 14, 15, 16, -17}
	ds := []int64{0, 1, 2, 3, -1, 1, 2, 3} // -1 = NULL
	ys := []float64{0, 1, 2, 0, 1, 2, -1, 0}
	for i := range as {
		k.AppendInt(int64(i))
		a.AppendInt(as[i])
		if ds[i] < 0 {
			d.AppendNull()
		} else {
			d.AppendInt(ds[i])
		}
		x.AppendFloat(float64(i) + 0.5)
		if ys[i] < 0 {
			y.AppendNull()
		} else {
			y.AppendFloat(ys[i])
		}
	}
	tab := storage.NewTable("z", k, a, d, x, y)
	tab.Seal()
	cat := storage.NewCatalog()
	cat.Add(tab)
	return cat
}

// TestDivisionByZeroIsNull pins x / 0 and x % 0 to NULL for integers and
// DOUBLEs — by a column that holds 0, by a zero constant and by a NULL
// divisor — in a projection, as a GROUP BY key and as an aggregate
// argument.
func TestDivisionByZeroIsNull(t *testing.T) {
	cases := []struct {
		q    string
		want []string
	}{
		{"SELECT k, a / d, a % d, x / y, x % y FROM z",
			[]string{
				"0|NULL|NULL|NULL|NULL",
				"1|11|0|1.5000|0.5000",
				"2|6|0|1.2500|0.5000",
				"3|4|1|NULL|NULL",
				"4|NULL|NULL|4.5000|0.5000",
				"5|15|0|2.7500|1.5000",
				"6|8|0|NULL|NULL",
				"7|-5|-2|NULL|NULL",
			}},
		{"SELECT k, a / 0, a % 0, x / 0, x / 0.0, x % 0.0 FROM z WHERE k < 2",
			[]string{"0|NULL|NULL|NULL|NULL|NULL", "1|NULL|NULL|NULL|NULL|NULL"}},
		{"SELECT a / d AS q, COUNT(*) FROM z GROUP BY a / d",
			[]string{"-5|1", "11|1", "15|1", "4|1", "6|1", "8|1", "NULL|2"}},
		{"SELECT x / y AS q, COUNT(*) FROM z GROUP BY x / y",
			[]string{"1.2500|1", "1.5000|1", "2.7500|1", "4.5000|1", "NULL|4"}},
		{"SELECT SUM(a / d), SUM(a % d), COUNT(a / d), COUNT(x / y), COUNT(*) FROM z",
			[]string{"39|-1|6|4|8"}},
	}
	cat := divZeroCatalog()
	for _, flags := range []core.Flags{core.Vanilla(), core.All()} {
		for _, c := range cases {
			res, err := Run(c.q, cat, exec.NewQCtx(flags))
			if err != nil {
				t.Fatalf("%q: %v", c.q, err)
			}
			got := make([]string, len(res.Rows))
			for i, row := range res.Rows {
				cells := make([]string, len(row))
				for j, v := range row {
					cells[j] = v.String()
				}
				got[i] = strings.Join(cells, "|")
			}
			sort.Strings(got)
			if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
				t.Errorf("flags %+v %q:\n got  %v\n want %v", flags, c.q, got, c.want)
			}
		}
	}
}
