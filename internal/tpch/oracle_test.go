package tpch

import (
	"fmt"
	"sort"
	"testing"

	"ocht/internal/core"
	"ocht/internal/exec"
	"ocht/internal/i128"
	"ocht/internal/storage"
	"ocht/internal/strs"
	"ocht/internal/vec"
)

// columnInts reads an integer column straight from storage, bypassing the
// engine.
func columnInts(t *testing.T, table, col string) []int64 {
	t.Helper()
	return catInts(catFor(t), table, col)
}

func columnStrs(t *testing.T, table, col string) []string {
	t.Helper()
	return catStrs(catFor(t), table, col)
}

// catInts reads an integer column of cat straight from storage.
func catInts(cat *storage.Catalog, table, col string) []int64 {
	c := cat.Table(table).Col(col)
	st := strs.NewStore(false)
	out := vec.New(c.Type, 1<<16)
	var vals []int64
	for b := 0; b < c.Blocks(); b++ {
		n := c.ScanBlock(b, out, st)
		for i := 0; i < n; i++ {
			vals = append(vals, out.Int64At(i))
		}
	}
	return vals
}

// catStrs reads a string column of cat straight from storage.
func catStrs(cat *storage.Catalog, table, col string) []string {
	c := cat.Table(table).Col(col)
	st := strs.NewStore(false)
	out := vec.New(vec.Str, 1<<16)
	var vals []string
	for b := 0; b < c.Blocks(); b++ {
		n := c.ScanBlock(b, out, st)
		for i := 0; i < n; i++ {
			vals = append(vals, st.Get(out.Str[i]))
		}
	}
	return vals
}

// TestQ6Oracle recomputes Q6 with a direct scalar loop over storage and
// compares against the engine under full optimization.
func TestQ6Oracle(t *testing.T) {
	ship := columnInts(t, "lineitem", "l_shipdate")
	disc := columnInts(t, "lineitem", "l_discount")
	qty := columnInts(t, "lineitem", "l_quantity")
	price := columnInts(t, "lineitem", "l_extendedprice")
	var want int64
	for i := range ship {
		if ship[i] >= 19940101 && ship[i] < 19950101 &&
			disc[i] >= 5 && disc[i] <= 7 && qty[i] < 24 {
			want += price[i] * disc[i]
		}
	}
	res := Q(6, catFor(t), exec.NewQCtx(core.All()))
	got := res.Rows[0][0]
	var gotV int64
	if got.Typ == vec.I128 {
		gotV = got.I128.Int64()
	} else {
		gotV = got.I
	}
	if gotV != want {
		t.Fatalf("Q6 = %d, oracle %d", gotV, want)
	}
}

// TestQ1Oracle recomputes the Q1 sums per (returnflag, linestatus) group.
func TestQ1Oracle(t *testing.T) {
	ship := columnInts(t, "lineitem", "l_shipdate")
	qty := columnInts(t, "lineitem", "l_quantity")
	price := columnInts(t, "lineitem", "l_extendedprice")
	disc := columnInts(t, "lineitem", "l_discount")
	tax := columnInts(t, "lineitem", "l_tax")
	rf := columnStrs(t, "lineitem", "l_returnflag")
	ls := columnStrs(t, "lineitem", "l_linestatus")

	cutoff := DateAdd(Date(1998, 12, 1), -90)
	type acc struct {
		qty, base i128.Int
		disc, chg i128.Int
		cnt       int64
	}
	oracle := map[string]*acc{}
	for i := range ship {
		if ship[i] > cutoff {
			continue
		}
		k := rf[i] + "|" + ls[i]
		a := oracle[k]
		if a == nil {
			a = &acc{}
			oracle[k] = a
		}
		a.qty = i128.AddInt64(a.qty, qty[i])
		a.base = i128.AddInt64(a.base, price[i])
		dp := price[i] * (100 - disc[i])
		a.disc = i128.AddInt64(a.disc, dp)
		a.chg = i128.AddInt64(a.chg, dp*(100+tax[i]))
		a.cnt++
	}

	res := Q(1, catFor(t), exec.NewQCtx(core.All()))
	if len(res.Rows) != len(oracle) {
		t.Fatalf("groups: %d vs oracle %d", len(res.Rows), len(oracle))
	}
	asI128 := func(v exec.Value) i128.Int {
		if v.Typ == vec.I128 {
			return v.I128
		}
		return i128.FromInt64(v.I)
	}
	for _, row := range res.Rows {
		k := row[0].S + "|" + row[1].S
		a := oracle[k]
		if a == nil {
			t.Fatalf("unknown group %q", k)
		}
		if asI128(row[2]) != a.qty || asI128(row[3]) != a.base ||
			asI128(row[4]) != a.disc || asI128(row[5]) != a.chg {
			t.Fatalf("group %q sums differ", k)
		}
		if row[9].I != a.cnt {
			t.Fatalf("group %q count %d want %d", k, row[9].I, a.cnt)
		}
	}
}

// TestQ21Oracle recomputes Q21 with scalar loops over storage: a late line
// of a Saudi Arabian supplier on an order with status F counts when another
// supplier has a line on the order and no other supplier has a late one.
func TestQ21Oracle(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		cat := Gen(0.01, seed)
		ok := catInts(cat, "lineitem", "l_orderkey")
		sk := catInts(cat, "lineitem", "l_suppkey")
		commit := catInts(cat, "lineitem", "l_commitdate")
		receipt := catInts(cat, "lineitem", "l_receiptdate")
		saudi := map[int64]bool{}
		nKeys, nNames := catInts(cat, "nation", "n_nationkey"), catStrs(cat, "nation", "n_name")
		for i, n := range nNames {
			saudi[nKeys[i]] = n == "SAUDI ARABIA"
		}
		name := map[int64]string{} // Saudi suppliers only
		sKeys, sNames, sNations := catInts(cat, "supplier", "s_suppkey"), catStrs(cat, "supplier", "s_name"), catInts(cat, "supplier", "s_nationkey")
		for i, k := range sKeys {
			if saudi[sNations[i]] {
				name[k] = sNames[i]
			}
		}
		finished := map[int64]bool{}
		oKeys, oStatus := catInts(cat, "orders", "o_orderkey"), catStrs(cat, "orders", "o_orderstatus")
		for i, k := range oKeys {
			finished[k] = oStatus[i] == "F"
		}
		lines := map[int64][]int{} // order key -> its lines
		for i, k := range ok {
			lines[k] = append(lines[k], i)
		}
		numwait := map[string]int64{}
		for i := range ok {
			s, isSaudi := name[sk[i]]
			if receipt[i] <= commit[i] || !isSaudi || !finished[ok[i]] {
				continue
			}
			other, otherLate := false, false
			for _, j := range lines[ok[i]] {
				if sk[j] != sk[i] {
					other = true
					otherLate = otherLate || receipt[j] > commit[j]
				}
			}
			if other && !otherLate {
				numwait[s]++
			}
		}
		type waiting struct {
			name string
			n    int64
		}
		var ws []waiting
		for s, n := range numwait {
			ws = append(ws, waiting{s, n})
		}
		sort.Slice(ws, func(a, b int) bool {
			if ws[a].n != ws[b].n {
				return ws[a].n > ws[b].n
			}
			return ws[a].name < ws[b].name
		})
		var want []string
		for _, w := range ws {
			want = append(want, fmt.Sprintf("%s|%d", w.name, w.n))
		}
		if len(want) > 100 {
			want = want[:100]
		}
		if len(want) == 0 {
			t.Fatalf("seed %d: the oracle finds no supplier; the check needs some", seed)
		}
		for _, flags := range []core.Flags{core.Vanilla(), core.All()} {
			res := Q(21, cat, exec.NewQCtx(flags))
			var got []string
			for _, row := range res.Rows {
				got = append(got, fmt.Sprintf("%s|%d", row[0].S, row[1].I))
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d flags %+v:\n got    %v\n oracle %v", seed, flags, got, want)
			}
		}
	}
}
