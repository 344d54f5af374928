package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"ocht/internal/agg"
	"ocht/internal/core"
	"ocht/internal/exec"
	"ocht/internal/storage"
	"ocht/internal/vec"
)

// Scaling measures morsel-driven parallel execution on a TPC-H Q1-style
// hash aggregation: a selective date filter over a multi-block fact table,
// grouped on two low-cardinality string keys with the full Q1 aggregate
// mix. For every worker count it reports wall time, speedup over the
// workers=1 serial path, and — as one JSON record per point — the private
// hash-table footprint of every worker, which bounds the per-worker hot
// working set the paper's cache argument depends on.
func Scaling(w io.Writer, cfg Config) {
	header(w, "Scaling: morsel-driven parallel Q1-style aggregation")
	rows := cfg.BIRows * 10
	fact := scalingFact(rows, cfg.Seed)
	blocks := fact.Cols[0].Blocks()
	fmt.Fprintf(w, "rows=%d blocks=%d morsel=%d rows (one storage block)\n",
		rows, blocks, storage.BlockRows)

	plan := func() exec.Op { return scalingPlan(fact, -1) }

	series := []int{1, 2, 4}
	if cfg.Workers > 4 {
		series = append(series, cfg.Workers)
	}
	var base time.Duration
	for _, workers := range series {
		best := time.Duration(1<<63 - 1)
		var qc *exec.QCtx
		var nRows int
		for rep := 0; rep < cfg.Reps+1; rep++ {
			c := exec.NewQCtx(core.All())
			c.Workers = workers
			start := time.Now()
			res := exec.Run(c, plan())
			if el := time.Since(start); el < best {
				best, qc, nRows = el, c, len(res.Rows)
			}
		}
		if workers == 1 {
			base = best
		}
		rec := struct {
			Exp           string             `json:"exp"`
			Workers       int                `json:"workers"`
			TimeMs        float64            `json:"time_ms"`
			Speedup       float64            `json:"speedup"`
			Groups        int                `json:"groups"`
			HTBytes       int                `json:"ht_bytes"`
			WorkerHTBytes []int              `json:"worker_ht_bytes"`
			EngineStatsMs map[string]float64 `json:"engine_stats_ms"`
		}{
			Exp: "scaling", Workers: workers,
			TimeMs:        float64(best.Microseconds()) / 1000,
			Speedup:       float64(base) / float64(best),
			Groups:        nRows,
			HTBytes:       qc.HashTableBytes(),
			EngineStatsMs: map[string]float64{},
		}
		// Snapshot, not per-bucket Get: one consistent race-free copy of
		// the merged worker stats.
		for k, d := range qc.Stats.Snapshot() {
			rec.EngineStatsMs[k] = float64(d.Microseconds()) / 1000
		}
		if fp := qc.WorkerFootprints(); fp != nil {
			rec.WorkerHTBytes = fp
		} else {
			rec.WorkerHTBytes = []int{}
		}
		js, _ := json.Marshal(rec)
		fmt.Fprintln(w, string(js))
	}
}

// ScalingReport is the machine-readable scaling record written
// by `ocht-bench -exp scaling -json-out BENCH_scaling.json`. It pins down
// the machine it ran on (cpus, GOMAXPROCS) so a flat curve from a
// single-CPU container is distinguishable from a real parallel
// regression: the CI scaling job regenerates it on a multi-core runner
// and gates on the partition-wise 4-worker speedup there.
type ScalingReport struct {
	Schema     string       `json:"schema"`
	Seed       int64        `json:"seed"`
	Cpus       int          `json:"cpus"`
	Gomaxprocs int          `json:"gomaxprocs"`
	Rows       int          `json:"rows"`
	Points     []ScalePoint `json:"points"`
}

// ScalePoint is one (plan, worker count) cell of the parallel aggregation
// sweep. Speedup is relative to the same plan at workers=1.
// PartitionWise records whether the owner-computes partition-wise driver
// actually ran (the CtrPartitionWiseAggs counter), so the JSON is
// self-describing about which merge strategy produced each number.
type ScalePoint struct {
	Plan          string  `json:"plan,omitempty"`
	Workers       int     `json:"workers"`
	PartitionBits int     `json:"partition_bits"`
	PartitionWise bool    `json:"partition_wise"`
	Groups        int     `json:"groups"`
	TimeMs        float64 `json:"time_ms"`
	Speedup       float64 `json:"speedup"`
	MRowsPerSec   float64 `json:"mrows_per_sec"`
}

// scalingPlans are the sweep variants: the low-cardinality Q1 mix (6
// groups — stays on the contended agg.Merge path by design, the adaptive
// floor keeps it monolithic), the wide-group plan forced monolithic (the
// merge-bottleneck baseline), and the same wide-group plan adaptive,
// which partitions and goes owner-computes under parallel workers.
var scalingPlans = []struct {
	Name string
	Bits int
	Wide bool
}{
	{"q1-lowcard", -1, false},
	{"widegroup-merge", 0, true},
	{"widegroup-partitioned", -1, true},
}

// ScalingRun executes the scaling sweep over rows input rows and returns
// the report. The fastest of Reps+1 runs is kept per cell.
func ScalingRun(cfg Config, rows int) ScalingReport {
	fact := scalingFact(rows, cfg.Seed)
	series := []int{1, 2, 4}
	if cfg.Workers > 4 {
		series = append(series, cfg.Workers)
	}
	rep := ScalingReport{
		Schema:     "ocht-scaling/1",
		Seed:       cfg.Seed,
		Cpus:       runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Rows:       rows,
	}
	for _, pl := range scalingPlans {
		var base time.Duration
		for _, workers := range series {
			bestD := time.Duration(1<<63 - 1)
			var bqc *exec.QCtx
			groups := 0
			for r := 0; r < cfg.Reps+1; r++ {
				qc := exec.NewQCtx(core.All())
				qc.Workers = workers
				var op exec.Op
				if pl.Wide {
					op = scalingWidePlan(fact, pl.Bits)
				} else {
					op = scalingPlan(fact, pl.Bits)
				}
				start := time.Now()
				res := exec.Run(qc, op)
				if el := time.Since(start); el < bestD {
					bestD, bqc, groups = el, qc, len(res.Rows)
				}
			}
			if workers == 1 {
				base = bestD
			}
			rep.Points = append(rep.Points, ScalePoint{
				Plan:          pl.Name,
				Workers:       workers,
				PartitionBits: pl.Bits,
				PartitionWise: bqc.Stats.Counter(exec.CtrPartitionWiseAggs) > 0,
				Groups:        groups,
				TimeMs:        float64(bestD.Microseconds()) / 1000,
				Speedup:       float64(base) / float64(bestD),
				MRowsPerSec:   float64(rows) / 1e6 / bestD.Seconds(),
			})
		}
	}
	return rep
}

// ScalingJSON writes the scaling report for
// `ocht-bench -exp scaling -json-out FILE`.
func ScalingJSON(w io.Writer, cfg Config) error {
	rep := ScalingRun(cfg, cfg.BIRows*10)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// scalingWidePlan aggregates the same filtered scan into ~100k suppkey
// groups: far past the 2^13-group floor, so the adaptive chooser
// radix-partitions the group table and the parallel driver takes the
// owner-computes partition-wise path.
func scalingWidePlan(fact *storage.Table, bits int) exec.Op {
	sc := exec.NewScan(fact, "suppkey", "quantity", "extendedprice", "shipdate")
	m := sc.Meta()
	fl := exec.NewFilter(sc, exec.Le(exec.Col(m, "shipdate"), exec.Int(19980902)))
	fm := fl.Meta()
	ha := exec.NewHashAgg(fl,
		[]string{"suppkey"},
		[]*exec.Expr{exec.Col(fm, "suppkey")},
		[]exec.AggExpr{
			{Func: agg.Sum, Arg: exec.Col(fm, "quantity"), Name: "sum_qty"},
			{Func: agg.Sum, Arg: exec.Col(fm, "extendedprice"), Name: "sum_price"},
			{Func: agg.CountStar, Name: "n"},
		})
	ha.PartitionBits = bits
	return ha
}

// scalingPlan builds the Q1-style aggregation over the fact table with
// the given radix width for the group table (-1 = adaptive).
func scalingPlan(fact *storage.Table, bits int) exec.Op {
	sc := exec.NewScan(fact, "returnflag", "linestatus", "quantity", "extendedprice", "discount", "shipdate")
	m := sc.Meta()
	fl := exec.NewFilter(sc, exec.Le(exec.Col(m, "shipdate"), exec.Int(19980902)))
	fm := fl.Meta()
	price := exec.Col(fm, "extendedprice")
	disc := exec.Col(fm, "discount")
	ha := exec.NewHashAgg(fl,
		[]string{"returnflag", "linestatus"},
		[]*exec.Expr{exec.Col(fm, "returnflag"), exec.Col(fm, "linestatus")},
		[]exec.AggExpr{
			{Func: agg.Sum, Arg: exec.Col(fm, "quantity"), Name: "sum_qty"},
			{Func: agg.Sum, Arg: price, Name: "sum_base_price"},
			{Func: agg.Sum, Arg: exec.Mul(price, exec.Sub(exec.Int(100), disc)), Name: "sum_disc_price"},
			{Func: exec.Avg, Arg: exec.Col(fm, "quantity"), Name: "avg_qty"},
			{Func: agg.CountStar, Name: "count_order"},
		})
	ha.PartitionBits = bits
	return ha
}

// scalingFact generates a lineitem-like fact table: big enough to span
// several storage blocks (morsels) with the Q1 column mix.
func scalingFact(rows int, seed int64) *storage.Table {
	flags := []string{"A", "N", "R"}
	statuses := []string{"F", "O"}
	rf := storage.NewColumn("returnflag", vec.Str, false)
	ls := storage.NewColumn("linestatus", vec.Str, false)
	qty := storage.NewColumn("quantity", vec.I8, false)
	price := storage.NewColumn("extendedprice", vec.I32, false)
	disc := storage.NewColumn("discount", vec.I8, false)
	ship := storage.NewColumn("shipdate", vec.I32, false)
	supp := storage.NewColumn("suppkey", vec.I32, false)
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func(n int) int {
		state = state*2862933555777941757 + 3037000493
		return int((state >> 33) % uint64(n))
	}
	for i := 0; i < rows; i++ {
		rf.AppendString(flags[next(3)])
		ls.AppendString(statuses[next(2)])
		qty.AppendInt(int64(1 + next(50)))
		price.AppendInt(int64(100_000 + next(9_000_000)))
		disc.AppendInt(int64(next(11)))
		ship.AppendInt(int64(19920101 + next(70000)))
		supp.AppendInt(int64(next(100_000)))
	}
	t := storage.NewTable("scaling_lineitem", rf, ls, qty, price, disc, ship, supp)
	t.Seal()
	return t
}
