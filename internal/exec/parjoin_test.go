package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"ocht/internal/agg"
	"ocht/internal/core"
	"ocht/internal/storage"
	"ocht/internal/vec"
)

// keyStr is the string key of integer k in the parallel-join fixture. One
// key in four is long: enough of them overflow the USSR during warmup that
// the string-key joins see resident and rejected keys side by side.
func keyStr(k int64) string {
	if k%4 == 0 {
		return fmt.Sprintf("long-key-%06d-%s", k, strings.Repeat("x", 110))
	}
	return fmt.Sprintf("k%05d", k)
}

// parJoinRows is the fixture's build side: over three storage blocks, so a
// parallel build spills from several workers.
const parJoinRows = 3*storage.BlockRows + 4321

// parJoinFixture is a build table of parJoinRows rows with a nullable int
// key bk, a nullable string key bs, an int payload bv and a dimension key
// bd; a probe table whose keys partly match, partly miss and are partly
// NULL; and a 50-row dimension table for a build side that probes a join.
type parJoinFixture struct {
	build, probe, dim *storage.Table

	bk, pk []int64 // -1 = NULL
	bv, bd []int64
}

func newParJoinFixture() *parJoinFixture {
	f := &parJoinFixture{}
	bk := storage.NewColumn("bk", vec.I64, true)
	bs := storage.NewColumn("bs", vec.Str, true)
	bv := storage.NewColumn("bv", vec.I64, false)
	bd := storage.NewColumn("bd", vec.I32, false)
	for i := int64(0); i < parJoinRows; i++ {
		k := (i * 7919) % 60000
		if i%17 == 3 {
			k = -1
			bk.AppendNull()
			bs.AppendNull()
		} else {
			bk.AppendInt(k)
			bs.AppendString(keyStr(k))
		}
		bv.AppendInt(i)
		bd.AppendInt(i % 50)
		f.bk, f.bv, f.bd = append(f.bk, k), append(f.bv, i), append(f.bd, i%50)
	}
	f.build = storage.NewTable("pjbuild", bk, bs, bv, bd)
	f.build.Seal()

	pk := storage.NewColumn("pk", vec.I64, true)
	ps := storage.NewColumn("ps", vec.Str, true)
	for j := int64(0); j < 6000; j++ {
		k := (j * 31) % 70000 // keys >= 60000 miss
		if j%13 == 1 {
			k = -1
			pk.AppendNull()
			ps.AppendNull()
		} else {
			pk.AppendInt(k)
			ps.AppendString(keyStr(k))
		}
		f.pk = append(f.pk, k)
	}
	f.probe = storage.NewTable("pjprobe", pk, ps)
	f.probe.Seal()

	dk := storage.NewColumn("dk", vec.I32, false)
	dn := storage.NewColumn("dn", vec.Str, false)
	for i := 0; i < 50; i++ {
		dk.AppendInt(int64(i))
		dn.AppendString(fmt.Sprintf("dim-%02d", i))
	}
	f.dim = storage.NewTable("pjdim", dk, dn)
	f.dim.Seal()
	return f
}

// parJoinShape is the build side of one parallel-join plan.
type parJoinShape int

const (
	shapePipeline parJoinShape = iota // filter over the scan
	shapeAgg                          // aggregation grouped by the key
	shapeProbe                        // pipeline probing a dimension join
)

// plan joins the probe table against a build side of the given shape, on
// the int keys or the string keys, with the join's radix width forced to
// bits.
func (f *parJoinFixture) plan(kind JoinKind, shape parJoinShape, strKey bool, bits int) *HashJoin {
	probeKey, buildKey := "pk", "bk"
	if strKey {
		probeKey, buildKey = "ps", "bs"
	}
	sc := NewScan(f.build, buildKey, "bv", "bd")
	sm := sc.Meta()
	var build Op = NewFilter(sc, Ge(Col(sm, "bv"), Int(0)))
	payload := []string{"bv", buildKey}
	switch shape {
	case shapeAgg:
		bm := build.Meta()
		build = NewHashAgg(build, []string{buildKey}, []*Expr{Col(bm, buildKey)},
			[]AggExpr{{Func: agg.CountStar, Name: "n"}, {Func: agg.Sum, Arg: Col(bm, "bv"), Name: "s"}})
		payload = []string{"n", "s"}
	case shapeProbe:
		build = NewHashJoin(Inner, build, NewScan(f.dim, "dk", "dn"), []string{"bd"}, []string{"dk"}, []string{"dn"})
		payload = []string{"bv", "dn"}
	}
	if kind == Semi || kind == Anti {
		payload = nil
	}
	j := NewHashJoin(kind, NewScan(f.probe, "pk", "ps"), build, []string{probeKey}, []string{buildKey}, payload)
	j.PartitionBits = bits
	return j
}

// reference computes the plan's rows with Go maps, rendered like
// sortedRows renders a Result.
func (f *parJoinFixture) reference(kind JoinKind, shape parJoinShape, strKey bool) []string {
	// matches[k] lists the payload cells of every build row (or group)
	// with key k.
	matches := map[int64][]string{}
	switch shape {
	case shapeAgg:
		n, s := map[int64]int64{}, map[int64]int64{}
		for i, k := range f.bk {
			n[k]++
			s[k] += f.bv[i]
		}
		for k := range n {
			if k >= 0 {
				matches[k] = append(matches[k], fmt.Sprintf("%d|%d|", n[k], s[k]))
			}
		}
	default:
		for i, k := range f.bk {
			if k < 0 {
				continue
			}
			cell := renderKey(k, strKey)
			if shape == shapeProbe {
				cell = fmt.Sprintf("dim-%02d", f.bd[i])
			}
			matches[k] = append(matches[k], fmt.Sprintf("%d|%s|", f.bv[i], cell))
		}
	}
	var out []string
	for _, k := range f.pk {
		probe := fmt.Sprintf("%s|%s|", renderKey(k, false), renderKey(k, true))
		ms := matches[k]
		if k < 0 {
			ms = nil
		}
		switch kind {
		case Inner:
			for _, m := range ms {
				out = append(out, probe+m)
			}
		case LeftOuter:
			if len(ms) == 0 {
				out = append(out, probe+"NULL|NULL|")
			}
			for _, m := range ms {
				out = append(out, probe+m)
			}
		case Semi:
			if len(ms) > 0 {
				out = append(out, probe)
			}
		case Anti:
			if len(ms) == 0 {
				out = append(out, probe)
			}
		}
	}
	sort.Strings(out)
	return out
}

// renderKey renders key k as its int column (str false) or its string
// column (str true) shows it.
func renderKey(k int64, str bool) string {
	switch {
	case k < 0:
		return "NULL"
	case str:
		return keyStr(k)
	default:
		return fmt.Sprint(k)
	}
}

// parJoinCase is one plan of the parallel-join matrix.
type parJoinCase struct {
	kind          JoinKind
	shape         parJoinShape
	strKey        bool
	bits, workers int
}

// parJoinCases spans every dimension without their full product: the
// forced widths {0, 3, 6, adaptive} × workers {2, 4, 8} with an int-key
// inner join and a string-key outer join; all four kinds on both key types;
// and the aggregating and join-probing build sides on both key types.
func parJoinCases() []parJoinCase {
	var cs []parJoinCase
	for _, bits := range []int{0, 3, 6, -1} {
		for _, w := range []int{2, 4, 8} {
			cs = append(cs, parJoinCase{Inner, shapePipeline, false, bits, w},
				parJoinCase{LeftOuter, shapePipeline, true, bits, w})
		}
	}
	cs = append(cs, parJoinCase{LeftOuter, shapePipeline, false, 3, 4},
		parJoinCase{Inner, shapePipeline, true, 3, 4})
	for _, strKey := range []bool{false, true} {
		for _, kind := range []JoinKind{Semi, Anti} {
			cs = append(cs, parJoinCase{kind, shapePipeline, strKey, -1, 4})
		}
		for _, shape := range []parJoinShape{shapeAgg, shapeProbe} {
			cs = append(cs, parJoinCase{Inner, shape, strKey, -1, 4},
				parJoinCase{LeftOuter, shape, strKey, 3, 2})
		}
	}
	return cs
}

// TestParallelJoinBuildMatchesReference drives partition-wise join builds
// — every join kind, int and string keys with NULLs, a plain, an
// aggregating and a join-probing build side — at forced radix widths and
// worker counts against a Go-map reference.
func TestParallelJoinBuildMatchesReference(t *testing.T) {
	f := newParJoinFixture()
	nonNull := int64(0)
	for _, k := range f.bk {
		if k >= 0 {
			nonNull++
		}
	}
	refs := map[parJoinCase][]string{}
	for _, c := range parJoinCases() {
		ref := parJoinCase{kind: c.kind, shape: c.shape, strKey: c.strKey}
		if refs[ref] == nil {
			refs[ref] = f.reference(c.kind, c.shape, c.strKey)
		}
		want := refs[ref]
		name := fmt.Sprintf("kind%d/shape%d/str%v/bits%d/w%d", c.kind, c.shape, c.strKey, c.bits, c.workers)
		t.Run(name, func(t *testing.T) {
			qc := NewQCtx(core.All())
			qc.Workers = c.workers
			got := sortedRows(Run(qc, f.plan(c.kind, c.shape, c.strKey, c.bits)))
			if len(got) != len(want) {
				t.Fatalf("%d rows, reference %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("row %d:\n got       %s\n reference %s", i, got[i], want[i])
				}
			}
			if qc.Stats.Counter(CtrParallelJoinBuilds) == 0 {
				t.Fatal("the build side did not run on the workers")
			}
			if c.shape != shapeAgg {
				if n := qc.Stats.Counter(CtrJoinRowsSpilled); n != nonNull {
					t.Fatalf("%d build rows spilled, want the %d non-NULL keys", n, nonNull)
				}
			}
			if c.strKey && qc.Store.U.Stats().Rejected == 0 {
				t.Fatal("the USSR rejected no string key; the fixture must overflow it")
			}
		})
	}
}

// TestParallelJoinBuildVanilla repeats the plain build side under the
// vanilla engine (direct key layout, no USSR) at adaptive width.
func TestParallelJoinBuildVanilla(t *testing.T) {
	f := newParJoinFixture()
	for _, strKey := range []bool{false, true} {
		for _, kind := range []JoinKind{Inner, Anti} {
			qc := NewQCtx(core.Vanilla())
			qc.Workers = 3
			plan := f.plan(kind, shapePipeline, strKey, -1)
			got, want := sortedRows(Run(qc, plan)), f.reference(kind, shapePipeline, strKey)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("str=%v kind=%d: %d rows differ from the %d-row reference", strKey, kind, len(got), len(want))
			}
		}
	}
}

// TestWorkerFootprintsSumPhases runs a plan with a parallel join build
// below a partition-wise aggregation: every worker's footprint must count
// the join partitions it built as well as its aggregation tables, and a
// later serial Run on the same context reports none.
func TestWorkerFootprintsSumPhases(t *testing.T) {
	f := newParJoinFixture()
	qc := NewQCtx(core.All())
	qc.Workers = 2
	build := NewScan(f.build, "bk", "bv")
	j := NewHashJoin(Inner, NewScan(f.build, "bk", "bd"), build, []string{"bk"}, []string{"bk"}, []string{"bv"})
	jm := j.Meta()
	h := NewHashAgg(j, []string{"bd"}, []*Expr{Col(jm, "bd")},
		[]AggExpr{{Func: agg.Sum, Arg: Col(jm, "bv"), Name: "s"}})
	h.PartitionBits = 3
	Run(qc, h)
	if qc.Stats.Counter(CtrParallelJoinBuilds) != 1 || qc.Stats.Counter(CtrPartitionWiseAggs) != 1 {
		t.Fatalf("want one parallel join build and one partition-wise aggregation, got %d and %d",
			qc.Stats.Counter(CtrParallelJoinBuilds), qc.Stats.Counter(CtrPartitionWiseAggs))
	}
	fp := qc.WorkerFootprints()
	if len(fp) != 2 {
		t.Fatalf("footprints %v, want 2 entries", fp)
	}
	want := 0
	for _, tab := range j.j.Tables() {
		want += tab.MemoryBytes()
	}
	for _, tab := range h.Tables() {
		want += tab.MemoryBytes()
	}
	if got := fp[0] + fp[1]; got < want {
		t.Fatalf("worker footprints sum to %d, below the %d bytes of the join and aggregation partitions they built", got, want)
	}
	qc.Workers = 1
	Run(qc, NewScan(f.dim, "dk"))
	if fp := qc.WorkerFootprints(); fp != nil {
		t.Fatalf("serial Run left footprints %v", fp)
	}
}

// TestCancelDuringParallelBuild cancels a partition-wise join build at
// deadlines spread over its uncanceled run time, so they land in the spill
// phase and in the owner phase: each must return ErrCanceled within
// TestCancelDeadline's budget and leave no goroutine behind.
func TestCancelDuringParallelBuild(t *testing.T) {
	const rows = 12 * storage.BlockRows
	k := storage.NewColumn("k", vec.I64, false)
	v := storage.NewColumn("v", vec.I64, false)
	for i := int64(0); i < rows; i++ {
		k.AppendInt(i * 2654435761 % (1 << 40))
		v.AppendInt(i)
	}
	big := storage.NewTable("cbuild", k, v)
	big.Seal()
	pk := storage.NewColumn("pk", vec.I64, false)
	for i := int64(0); i < 1000; i++ {
		pk.AppendInt(i * 2654435761 % (1 << 40))
	}
	small := storage.NewTable("cprobe", pk)
	small.Seal()
	plan := func() Op {
		return NewHashJoin(Semi, NewScan(small, "pk"), NewScan(big, "k", "v"), []string{"pk"}, []string{"k"}, nil)
	}
	run := func(ctx context.Context) (time.Duration, error) {
		qc := NewQCtx(core.All())
		qc.Workers = 4
		start := time.Now()
		_, err := RunCtx(ctx, qc, plan())
		return time.Since(start), err
	}
	full, err := run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.7} {
		deadline := time.Duration(float64(full) * frac)
		t.Run(fmt.Sprintf("at%.0f%%", frac*100), func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			elapsed, err := run(ctx)
			if err == nil {
				t.Skipf("finished in %v before the %v deadline", elapsed, deadline)
			}
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("error %v does not wrap ErrCanceled", err)
			}
			if elapsed > deadline+100*time.Millisecond {
				t.Errorf("canceled after %v; want within ~100ms of the %v deadline", elapsed, deadline)
			}
			settle := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(settle) {
				time.Sleep(5 * time.Millisecond)
			}
			if g := runtime.NumGoroutine(); g > before {
				t.Errorf("goroutines leaked: %d before, %d after cancellation", before, g)
			}
		})
	}
}
