package exec

import (
	"fmt"
	"math"
	"math/big"
	"runtime"
	"sort"
	"strings"
	"testing"

	"ocht/internal/agg"
	"ocht/internal/core"
	"ocht/internal/storage"
	"ocht/internal/vec"
)

// nullableFixture spans several blocks and exercises every spill column
// shape: a nullable int key, a nullable string key and a nullable int
// argument.
func nullableFixture(rows int) *storage.Table {
	g := storage.NewColumn("g", vec.I32, true)
	s := storage.NewColumn("s", vec.Str, true)
	v := storage.NewColumn("v", vec.I64, true)
	for i := 0; i < rows; i++ {
		if i%11 == 3 {
			g.AppendNull()
		} else {
			g.AppendInt(int64(i*2654435761) % 500)
		}
		if i%13 == 5 {
			s.AppendNull()
		} else {
			s.AppendString(fmt.Sprintf("tag-%04d", (i*40503)%1500))
		}
		if i%7 == 2 {
			v.AppendNull()
		} else {
			v.AppendInt(int64(i%9000) - 4500)
		}
	}
	tab := storage.NewTable("nfact", g, s, v)
	tab.Seal()
	return tab
}

func nullableAggPlan(tab *storage.Table, bits int) *HashAgg {
	sc := NewScan(tab, "g", "s", "v")
	m := sc.Meta()
	h := NewHashAgg(sc,
		[]string{"g", "s"},
		[]*Expr{Col(m, "g"), Col(m, "s")},
		[]AggExpr{
			{Func: agg.Sum, Arg: Col(m, "v"), Name: "sum_v"},
			{Func: agg.Count, Arg: Col(m, "v"), Name: "n_v"},
			{Func: agg.CountStar, Name: "n"},
			{Func: agg.Min, Arg: Col(m, "v"), Name: "min_v"},
			{Func: agg.Max, Arg: Col(m, "s"), Name: "max_s"},
			{Func: Avg, Arg: Col(m, "v"), Name: "avg_v"},
		})
	h.PartitionBits = bits
	return h
}

// TestPartitionWiseAggMatchesSerial pins the many-partition owner step against
// serial execution across forced radix widths, worker counts and flag
// sets, on a fixture with NULLs in both keys and arguments.
func TestPartitionWiseAggMatchesSerial(t *testing.T) {
	tab := nullableFixture(200_000)
	for fi, flags := range flagSets() {
		serial := sortedRows(Run(NewQCtx(flags), nullableAggPlan(tab, DefaultPartitionBits)))
		for _, bits := range []int{1, 3, 6} {
			for _, workers := range []int{2, 4, 8} {
				t.Run(fmt.Sprintf("flags%d/bits%d/w%d", fi, bits, workers), func(t *testing.T) {
					qc := NewQCtx(flags)
					qc.Workers = workers
					got := sortedRows(Run(qc, nullableAggPlan(tab, bits)))
					if qc.Stats.Counter(CtrPartitionWiseAggs) != 1 {
						t.Fatalf("forced bits=%d must take the partition-wise path", bits)
					}
					// Workers flush partial records, at most one per input row.
					if spilled := qc.Stats.Counter(CtrAggRowsSpilled); spilled <= 0 || spilled > int64(tab.Rows()) {
						t.Fatalf("spilled %d partial records, want 1..%d", spilled, tab.Rows())
					}
					if len(got) != len(serial) {
						t.Fatalf("%d rows, serial %d", len(got), len(serial))
					}
					for i := range got {
						if got[i] != serial[i] {
							t.Fatalf("row %d:\n partition-wise %s\n serial         %s", i, got[i], serial[i])
						}
					}
				})
			}
		}
	}
}

// TestPartitionWiseGate pins the radix width of a parallel fill: forced
// radix tables run the owner step over several partitions, and the owner
// width keeps one partition below partitionMinGroups.
func TestPartitionWiseGate(t *testing.T) {
	fact, _ := buildFixture(150_000)
	run := func(bits, workers int) (*QCtx, []string) {
		sc := NewScan(fact, "d", "v")
		m := sc.Meta()
		h := NewHashAgg(sc, []string{"d"}, []*Expr{Col(m, "d")}, []AggExpr{
			{Func: agg.Sum, Arg: Col(m, "v"), Name: "sum_v"},
		})
		h.PartitionBits = bits
		qc := NewQCtx(core.All())
		qc.Workers = workers
		return qc, sortedRows(Run(qc, h))
	}

	_, serial := run(DefaultPartitionBits, 1)

	// d has 100 distinct values: far below partitionMinGroups, so the
	// parallel plan at the default width must keep one partition.
	qc, got := run(DefaultPartitionBits, 4)
	if qc.Stats.Counter(CtrPartitionWiseAggs) != 0 {
		t.Fatal("low-cardinality plan at the default width must not partition")
	}
	for i := range got {
		if got[i] != serial[i] {
			t.Fatalf("one-partition row %d: %s vs %s", i, got[i], serial[i])
		}
	}

	// Forcing a radix width spreads the same plan over 16 owners'
	// partitions.
	qc, got = run(4, 4)
	if qc.Stats.Counter(CtrPartitionWiseAggs) != 1 {
		t.Fatal("forced bits=4 must take the partition-wise path")
	}
	for i := range got {
		if got[i] != serial[i] {
			t.Fatalf("partition-wise row %d: %s vs %s", i, got[i], serial[i])
		}
	}
}

// TestPartitionWiseJoinAgg runs the many-partition owner step with a shared
// read-only join build side below the spill frontier.
func TestPartitionWiseJoinAgg(t *testing.T) {
	fact, dim := buildFixture(150_000)
	plan := func() Op {
		h := joinAggPlan(fact, dim).(*HashAgg)
		h.PartitionBits = 3
		return h
	}
	for fi, flags := range flagSets() {
		serial := sortedRows(Run(NewQCtx(flags), plan()))
		t.Run(fmt.Sprintf("flags%d", fi), func(t *testing.T) {
			qc := NewQCtx(flags)
			qc.Workers = 4
			got := sortedRows(Run(qc, plan()))
			if qc.Stats.Counter(CtrPartitionWiseAggs) != 1 {
				t.Fatal("forced bits must take the partition-wise path")
			}
			if len(got) != len(serial) {
				t.Fatalf("%d rows, serial %d", len(got), len(serial))
			}
			for i := range got {
				if got[i] != serial[i] {
					t.Fatalf("row %d:\n partition-wise %s\n serial         %s", i, got[i], serial[i])
				}
			}
		})
	}
}

// TestPartitionWiseFootprint checks the installed partitions are accounted
// to the query context: after a partition-wise run the frontier's table
// bytes must appear in HashTableBytes.
func TestPartitionWiseFootprint(t *testing.T) {
	fact, _ := buildFixture(150_000)
	h := aggPlan(fact).(*HashAgg)
	h.PartitionBits = 3
	qc := NewQCtx(core.All())
	qc.Workers = 2
	Run(qc, h)
	if qc.Stats.Counter(CtrPartitionWiseAggs) != 1 {
		t.Fatal("expected the partition-wise path")
	}
	if got, want := qc.HashTableBytes(), h.Tables(); true {
		sum := 0
		for _, tab := range want {
			sum += tab.MemoryBytes()
		}
		if got < sum || sum == 0 {
			t.Fatalf("HashTableBytes %d, frontier partitions hold %d", got, sum)
		}
	}
}

// routeRow is one generated input row of the route-agreement fixture; nil
// pointers are SQL NULLs.
type routeRow struct {
	g, u, c *int64   // int keys: few groups (nullable), more groups than one flush holds, and those clustered
	s       *string  // nullable string key
	f       *float64 // nullable DOUBLE key
	v, a    *int64   // nullable arguments: wide (SUM/MIN/MAX) and small (AVG)
	t       *string  // nullable string argument
}

// routeRowAt generates row i. Every 997th row belongs to the void group
// (9, "void", 9.5), whose arguments are all NULL. 60% of the rows share one
// hot key triple (1, "hot", 1.5) the other rows never use, so under every
// key subset the hot group holds > 65 535 rows (the 16-bit hot COUNT
// flushes), its v values of 2^62 carry SUM past 64 bits, and its t values
// are all NULL (string MIN stays NULL). Key u has about 20 000 groups in
// random order, key c 40 000 groups of 5 consecutive rows.
func routeRowAt(i int) routeRow {
	p := func(x int64) *int64 { return &x }
	r := routeRow{c: p(int64(i / 5))}
	if i%17 != 4 {
		r.u = p(int64(i*7919) % 20_000)
	}
	if i%997 == 0 {
		void, f := "void", 9.5
		r.g, r.s, r.f = p(9), &void, &f
		return r
	}
	if i%7 != 2 {
		r.v = p(int64(i%9000) - 4500)
	}
	if i%5 != 1 {
		r.a = p(int64(i%1000) - 500)
	}
	if i%5 < 3 {
		hot, f := "hot", 1.5
		r.g, r.s, r.f = p(1), &hot, &f
		if r.v != nil {
			r.v = p(1 << 62)
		}
		return r
	}
	h := i * 40503
	if h%11 != 3 {
		r.g = p(int64(2 + h%7))
	}
	if h%13 != 5 {
		s := fmt.Sprintf("tag-%d", h%6)
		r.s = &s
	}
	if h%9 != 4 {
		f := 2.5 + float64(h%5)
		r.f = &f
	}
	if i%3 != 0 {
		t := fmt.Sprintf("note-%03d", h%500)
		r.t = &t
	}
	return r
}

func routeFixture(lo, hi int) *storage.Table {
	names := []string{"g", "u", "c", "s", "f", "v", "a", "t"}
	types := []vec.Type{vec.I32, vec.I64, vec.I64, vec.Str, vec.F64, vec.I64, vec.I32, vec.Str}
	cols := make([]*storage.Column, len(names))
	for ci := range cols {
		cols[ci] = storage.NewColumn(names[ci], types[ci], true)
	}
	appendInt := func(c *storage.Column, x *int64) {
		if x == nil {
			c.AppendNull()
		} else {
			c.AppendInt(*x)
		}
	}
	appendStr := func(c *storage.Column, x *string) {
		if x == nil {
			c.AppendNull()
		} else {
			c.AppendString(*x)
		}
	}
	for i := lo; i < hi; i++ {
		r := routeRowAt(i)
		appendInt(cols[0], r.g)
		appendInt(cols[1], r.u)
		appendInt(cols[2], r.c)
		appendStr(cols[3], r.s)
		if r.f == nil {
			cols[4].AppendNull()
		} else {
			cols[4].AppendFloat(*r.f)
		}
		appendInt(cols[5], r.v)
		appendInt(cols[6], r.a)
		appendStr(cols[7], r.t)
	}
	tab := storage.NewTable("routes", cols...)
	tab.Seal()
	return tab
}

// routeReference aggregates rows [0, n) with a plain Go map and renders
// the groups like sortedRows does: the keys, then SUM(v), COUNT(v),
// COUNT(*), MIN(v), MAX(v), MIN(t), AVG(a) — SUM, MIN, MAX and AVG NULL
// over no values.
func routeReference(n int, keys []string) []string {
	type group struct {
		key        string
		sum        *big.Int
		cntV, cnt  int64
		minV, maxV int64
		minT       *string
		sumA, cntA int64
	}
	groups := map[string]*group{}
	for i := 0; i < n; i++ {
		r := routeRowAt(i)
		key := ""
		for _, k := range keys {
			switch {
			case k == "g" && r.g != nil:
				key += fmt.Sprintf("%d|", *r.g)
			case k == "u" && r.u != nil:
				key += fmt.Sprintf("%d|", *r.u)
			case k == "c":
				key += fmt.Sprintf("%d|", *r.c)
			case k == "s" && r.s != nil:
				key += *r.s + "|"
			case k == "f" && r.f != nil:
				key += fmt.Sprintf("%.4f|", *r.f)
			default:
				key += "NULL|"
			}
		}
		gr := groups[key]
		if gr == nil {
			gr = &group{key: key, sum: new(big.Int), minV: math.MaxInt64, maxV: math.MinInt64}
			groups[key] = gr
		}
		gr.cnt++
		if r.v != nil {
			gr.sum.Add(gr.sum, big.NewInt(*r.v))
			gr.cntV++
			gr.minV, gr.maxV = min(gr.minV, *r.v), max(gr.maxV, *r.v)
		}
		if r.t != nil && (gr.minT == nil || *r.t < *gr.minT) {
			gr.minT = r.t
		}
		if r.a != nil {
			gr.sumA += *r.a
			gr.cntA++
		}
	}
	var out []string
	for _, gr := range groups {
		sum, minV, maxV, minT, avgA := "NULL", "NULL", "NULL", "NULL", "NULL"
		if gr.cntV > 0 {
			sum, minV, maxV = gr.sum.String(), fmt.Sprint(gr.minV), fmt.Sprint(gr.maxV)
		}
		if gr.minT != nil {
			minT = *gr.minT
		}
		if gr.cntA > 0 {
			avgA = fmt.Sprintf("%.4f", float64(gr.sumA)/float64(gr.cntA))
		}
		out = append(out, fmt.Sprintf("%s%s|%d|%d|%s|%s|%s|%s|", gr.key, sum, gr.cntV, gr.cnt,
			minV, maxV, minT, avgA))
	}
	sort.Strings(out)
	return out
}

// routePlan aggregates tab by the given keys. With partials set it is the
// shard fragment of a distributed plan: AVG ships as its SUM and COUNT,
// and SUM/MIN/MAX ship the COUNT of their argument.
func routePlan(tab *storage.Table, keys []string, bits int, partials bool) *HashAgg {
	sc := NewScan(tab, "g", "u", "c", "s", "f", "v", "a", "t")
	m := sc.Meta()
	var keyExprs []*Expr
	for _, k := range keys {
		keyExprs = append(keyExprs, Col(m, k))
	}
	aggs := []AggExpr{
		{Func: agg.Sum, Arg: Col(m, "v"), Name: "sum_v"},
		{Func: agg.Count, Arg: Col(m, "v"), Name: "n_v"},
		{Func: agg.CountStar, Name: "n"},
		{Func: agg.Min, Arg: Col(m, "v"), Name: "min_v"},
		{Func: agg.Max, Arg: Col(m, "v"), Name: "max_v"},
		{Func: agg.Min, Arg: Col(m, "t"), Name: "min_t"},
	}
	if partials {
		aggs = append(aggs,
			AggExpr{Func: agg.Sum, Arg: Col(m, "a"), Name: "avg_sum"},
			AggExpr{Func: agg.Count, Arg: Col(m, "a"), Name: "avg_cnt"},
			AggExpr{Func: agg.Count, Arg: Col(m, "t"), Name: "n_t"})
	} else {
		aggs = append(aggs, AggExpr{Func: Avg, Arg: Col(m, "a"), Name: "avg_a"})
	}
	h := NewHashAgg(sc, keys, keyExprs, aggs)
	h.PartitionBits = bits
	return h
}

// routeMerge is the coordinator fragment over routePlan's partial rows.
func routeMerge(src Op, nk int) *MergeAgg {
	return NewMergeAgg(src, nk, []MergeSpec{
		{Func: agg.Sum, Col: nk, Cnt: nk + 1, Name: "sum_v"},
		{Func: agg.Count, Col: nk + 1, Cnt: -1, Name: "n_v"},
		{Func: agg.CountStar, Col: nk + 2, Cnt: -1, Name: "n"},
		{Func: agg.Min, Col: nk + 3, Cnt: nk + 1, Name: "min_v"},
		{Func: agg.Max, Col: nk + 4, Cnt: nk + 1, Name: "max_v"},
		{Func: agg.Min, Col: nk + 5, Cnt: nk + 8, Name: "min_t"},
		{Func: Avg, Col: nk + 6, Cnt: nk + 7, Name: "avg_a"},
	})
}

// TestGroupTableRoutesAgree feeds one generated input — nullable int,
// string and DOUBLE keys, nullable arguments, an all-NULL group, an
// all-NULL string MIN group, AVG over negative sums, a SUM carrying past
// 64 bits, a group wide enough to flush the hot COUNT — through every
// feeder of the group table and pins them all to a naive Go-map
// reference: serial HashAgg at 0 and 3 radix bits, the parallel fill
// (workers' partial records folded by one owner per partition) at 0 and 3
// bits, and Exchange→MergeAgg over the input split in two. Under keys u
// and c the groups outgrow one flush budget, so workers flush mid-stream:
// under u they barely reduce their input, so with several partitions they
// go on to spill rows as partials; under c every group is 5 adjacent rows,
// so they keep pre-aggregating.
func TestGroupTableRoutesAgree(t *testing.T) {
	const n = 200_000
	whole := routeFixture(0, n)
	halves := []*storage.Table{routeFixture(0, n/2), routeFixture(n/2, n)}
	routes := []struct {
		name          string
		workers, bits int
		partitionWise int64
	}{
		{"serial/bits0", 1, 0, 0},
		{"serial/bits3", 1, 3, 0},
		{"owner/w4/bits0", 4, 0, 0},
		{"owner/w4/bits3", 4, 3, 1},
	}
	for _, keys := range [][]string{{"g"}, {"s"}, {"f"}, {"g", "s", "f"}, {"u"}, {"c"}} {
		want := routeReference(n, keys)
		flushHeavy := keys[0] == "u" || keys[0] == "c"
		flagSets := []core.Flags{core.Vanilla(), {UseUSSR: true}, core.All()}
		if flushHeavy {
			flagSets = flagSets[2:]
		}
		for _, flags := range flagSets {
			name := fmt.Sprintf("keys=%s/%s", strings.Join(keys, ","), flagName(flags))
			check := func(t *testing.T, got []string) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%d groups, reference %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("group %d:\n got  %s\n want %s", i, got[i], want[i])
					}
				}
			}
			for _, r := range routes {
				if flushHeavy && r.workers == 1 {
					continue // the flushes are the parallel routes'
				}
				t.Run(name+"/"+r.name, func(t *testing.T) {
					qc := NewQCtx(flags)
					qc.Workers = r.workers
					got := sortedRows(Run(qc, routePlan(whole, keys, r.bits, false)))
					if pw := qc.Stats.Counter(CtrPartitionWiseAggs); pw != r.partitionWise {
						t.Fatalf("partition-wise aggs = %d, want %d", pw, r.partitionWise)
					}
					spilled := qc.Stats.Counter(CtrAggRowsSpilled)
					if flushHeavy && r.workers > 1 && spilled <= int64(len(want)) {
						t.Fatalf("%d partial records for %d groups: no worker flushed mid-stream", spilled, len(want))
					}
					if keys[0] == "c" && r.workers > 1 && spilled >= n/2 {
						t.Fatalf("%d partial records from %d rows: workers stopped pre-aggregating", spilled, n)
					}
					check(t, got)
				})
			}
			t.Run(name+"/exchange-merge", func(t *testing.T) {
				var gathered *Result
				for _, half := range halves {
					r := Run(NewQCtx(flags), routePlan(half, keys, DefaultPartitionBits, true))
					if gathered == nil {
						gathered = r
					} else {
						gathered.Rows = append(gathered.Rows, r.Rows...)
					}
				}
				src := NewExchange(gathered.Names, gathered.Types, gathered.Rows)
				check(t, sortedRows(Run(NewQCtx(flags), routeMerge(src, len(keys)))))
			})
		}
	}
}

// TestSpillChunksSizedToRows spills three rows into each of 16 partitions
// and checks the buffers hold about what was spilled — not a zeroed
// vec.Size chunk per partition and column — and that a chunk grown by
// later appends still reads back through the vector-aligned at.
func TestSpillChunksSizedToRows(t *testing.T) {
	const parts = 16
	keys := []*vec.Vector{vec.New(vec.I64, vec.Size), vec.New(vec.Str, vec.Size)}
	vals := []*vec.Vector{vec.New(vec.I64, vec.Size), vec.New(vec.F64, vec.Size)}
	hashes := make([]uint64, vec.Size)
	for i := range hashes {
		keys[0].I64[i], vals[0].I64[i], hashes[i] = int64(i), int64(-i), uint64(i)*7
	}
	few := []int32{0, 1, 2}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sp := newSpill(parts, len(keys), len(vals))
	for p := range sp.parts {
		sp.parts[p].appendRows(keys, vals, hashes, few)
	}
	runtime.ReadMemStats(&after)
	full := parts * (len(keys) + len(vals) + 1) * 8 * vec.Size
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("spilling 3 rows into %d partitions allocated %d bytes; vec.Size chunks would take %d", parts, got, full)
	}

	// Grow one partition past a chunk: 3 + 5 + 2*vec.Size rows.
	p := &sp.parts[0]
	p.appendRows(keys, vals, hashes, []int32{3, 4, 5, 6, 7})
	all := make([]int32, vec.Size)
	for i := range all {
		all[i] = int32(i)
	}
	p.appendRows(keys, vals, hashes, all)
	p.appendRows(keys, vals, hashes, all)
	want := append([]int32{0, 1, 2, 3, 4, 5, 6, 7}, append(all, all...)...)
	if p.rows != len(want) || len(p.hashes) != 3 {
		t.Fatalf("%d rows in %d chunks, want %d in 3", p.rows, len(p.hashes), len(want))
	}
	for base := 0; base < p.rows; base += vec.Size {
		n := min(vec.Size, p.rows-base)
		hs, ks := p.hashes.at(base, n), p.keys[0].i64.at(base, n)
		for i := 0; i < n; i++ {
			r := want[base+i]
			if hs[i] != uint64(r)*7 || ks[i] != int64(r) {
				t.Fatalf("position %d: hash %d key %d, want row %d", base+i, hs[i], ks[i], r)
			}
		}
	}
	for i, c := range p.hashes {
		if cap(c) > vec.Size || (i < len(p.hashes)-1 && len(c) != vec.Size) {
			t.Fatalf("chunk %d: len %d cap %d", i, len(c), cap(c))
		}
	}
}
