package sql

import (
	"fmt"
	"strings"
	"testing"

	"ocht/internal/core"
	"ocht/internal/exec"
	"ocht/internal/storage"
	"ocht/internal/vec"
)

// nullArgCatalogs spreads t(k, v, s) over the given number of shards by
// k: groups k = 0, 2 and 3 mix values and NULLs, every v and s of group
// k = 1 is NULL, and no row has k = 5.
func nullArgCatalogs(shards int) []*storage.Catalog {
	cols := make([][]*storage.Column, shards)
	for i := range cols {
		cols[i] = []*storage.Column{
			storage.NewColumn("k", vec.I64, false),
			storage.NewColumn("v", vec.I64, true),
			storage.NewColumn("s", vec.Str, true),
		}
	}
	for i := 0; i < 4000; i++ {
		k := int64(i % 4)
		c := cols[int(k)%shards]
		c[0].AppendInt(k)
		if k == 1 || i%3 == 0 {
			c[1].AppendNull()
			c[2].AppendNull()
		} else {
			c[1].AppendInt(int64(i%100) - 30)
			c[2].AppendString(fmt.Sprintf("s%03d", i%200))
		}
	}
	cats := make([]*storage.Catalog, shards)
	for i := range cats {
		tab := storage.NewTable("t", cols[i]...)
		tab.Seal()
		cats[i] = storage.NewCatalog()
		cats[i].Add(tab)
	}
	return cats
}

// TestAggregatesOverNoValues pins SQL's answers for aggregates that see
// no non-NULL input: SUM, AVG, MIN and MAX are NULL, COUNT is 0, and a
// scalar aggregate over no rows still returns its one row — on a single
// node under every flag set and through the distributed split.
func TestAggregatesOverNoValues(t *testing.T) {
	cases := []struct {
		q    string
		want []string
	}{
		{"SELECT k, SUM(v), AVG(v), MIN(v), MAX(v), COUNT(v), MIN(s), MAX(s), COUNT(*) FROM t WHERE k < 2 GROUP BY k ORDER BY k",
			[]string{"0|11988|18.0000|-30|66|666|s000|s196|1000", "1|NULL|NULL|NULL|NULL|0|NULL|NULL|1000"}},
		{"SELECT SUM(v), COUNT(v) FROM t WHERE k = 5", []string{"NULL|0"}},
		{"SELECT SUM(v), AVG(v), MIN(v), MAX(s), COUNT(*) FROM t WHERE k = 1", []string{"NULL|NULL|NULL|NULL|1000"}},
		{"SELECT COUNT(*), MIN(k), SUM(k) FROM t WHERE k > 7", []string{"0|NULL|NULL"}},
	}
	whole := nullArgCatalogs(1)[0]
	for _, flags := range []core.Flags{core.Vanilla(), {Compress: true}, {Split: true}, core.All()} {
		for _, c := range cases {
			res, err := Run(c.q, whole, exec.NewQCtx(flags))
			if err != nil {
				t.Fatalf("%q: %v", c.q, err)
			}
			got := make([]string, len(res.Rows))
			for i, row := range res.Rows {
				var cells []string
				for _, v := range row {
					cells = append(cells, v.String())
				}
				got[i] = strings.Join(cells, "|")
			}
			if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
				t.Errorf("flags %+v: %q\n got  %v\n want %v", flags, c.q, got, c.want)
			}
			for _, shards := range []int{2, 4} {
				if d := runDistributed(t, c.q, nullArgCatalogs(shards), flags); !sameRows(res, d) {
					t.Errorf("flags %+v, %d shards: %q\n distributed %v\n single node %v",
						flags, shards, c.q, renderRows(d), renderRows(res))
				}
			}
		}
	}
}
