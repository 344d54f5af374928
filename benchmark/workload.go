package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"ocht/internal/bi"
	"ocht/internal/core"
	"ocht/internal/exec"
	"ocht/internal/storage"
	"ocht/internal/tpch"
)

// Frozen workload sizes. They are part of the benchmark's definition:
// changing one changes every number, so it re-bases the trajectory.
const (
	tpchSF      = 0.05    // tpch-power, tpch-parallel
	biRows      = 200_000 // bi-strings
	serveSF     = 0.02    // serve-mixed's preloaded TPC-H tables
	warmRounds  = 1       // untimed rounds under the workload's own config, after the footprint pass
	serveWarmup = 2       // serve-mixed has no footprint pass before the window
)

// obs is one executed statement: which one, how long the caller waited, and
// why it counts as failed (empty = the answer was checked and is right).
type obs struct {
	stmt int
	ms   float64
	fail string
}

// engineTrace is what the harness reads from the engine's own counters at
// statement boundaries of traced rounds (exec.Stats buckets and counters).
type engineTrace struct {
	buckets  map[string]time.Duration
	counters map[string]int64
}

func (e *engineTrace) add(st *exec.Stats) {
	if e.buckets == nil {
		e.buckets = map[string]time.Duration{}
		e.counters = map[string]int64{}
	}
	for k, d := range st.Snapshot() {
		e.buckets[k] += d
	}
	for _, c := range []string{exec.CtrBlocksRead, exec.CtrBlocksSkipped, exec.CtrBytesDecompressed,
		exec.CtrAggRowsSpilled, exec.CtrPartitionWiseAggs} {
		e.counters[c] += st.Counter(c)
	}
}

// workload is one closed-loop statement mix. setup builds everything the
// timed window needs (data, engine or server, reference answers, warm-up);
// round runs one pass over the statement list on every client and returns
// each statement's outcome.
type workload interface {
	threads() int
	stmtNames() []string
	setup(seed int64) error
	round(tr *tracer, parent int) (wallS float64, out []obs)
	// footprint returns Σ HashTableBytes / HashTableHotBytes over the read
	// statements from an untimed Workers=1 pass under the workload's flags.
	footprint() (total, hot int64, err error)
	// layerMetrics adds the per-layer numbers only this workload can
	// produce, after the traced rounds; catalog and probeInputs feed the
	// module probes.
	layerMetrics(m map[string]float64, tracedRounds int) error
	catalog() *storage.Catalog
	probeInputs() probeSpec
	close()
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:12])
}

// inproc runs tpch.Q or bi.Q plans in this process, one client.
type inproc struct {
	prefix   string // metric prefix and span label: "tpch" or "bi"
	nq       int
	flags    core.Flags
	workers  int
	compress storage.CompressMode
	gen      func(seed int64) *storage.Catalog
	q        func(n int, cat *storage.Catalog, qc *exec.QCtx) *exec.Result
	spec     probeSpec

	cat            *storage.Catalog
	want           []string // reference digests, core.Vanilla() at Workers=1
	htTotal, htHot int64
	eng            engineTrace
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "tpch-power":
		return &inproc{prefix: "tpch", nq: 22, flags: core.All(), workers: 1, compress: storage.CompressOff,
			gen: func(seed int64) *storage.Catalog { return tpch.Gen(tpchSF, seed) }, q: tpch.Q, spec: tpchProbeSpec}, nil
	case "tpch-parallel":
		return &inproc{prefix: "tpch", nq: 22, flags: core.All(), workers: 2, compress: storage.CompressAuto,
			gen: func(seed int64) *storage.Catalog { return tpch.Gen(tpchSF, seed) }, q: tpch.Q, spec: tpchProbeSpec}, nil
	case "bi-strings":
		// Not core.All(): with Compress+Split a string group key is stored
		// as its USSR slot code and hashed by that code alone, so every
		// string the USSR rejected lands in one chain and Q6/Q8/Q20 turn
		// quadratic (77 s for Q6 at 100 000 rows). The USSR-only flags are
		// what ocht-bi ships and what the paper's Table III measures.
		return &inproc{prefix: "bi", nq: bi.NumQueries, flags: core.Flags{UseUSSR: true}, workers: 1, compress: storage.CompressOn,
			gen: func(seed int64) *storage.Catalog { return bi.Gen(biRows, seed) }, q: bi.Q, spec: biProbeSpec}, nil
	case "serve-mixed":
		return &serveMixed{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

var workloadNames = []string{"tpch-power", "tpch-parallel", "bi-strings", "serve-mixed"}

func (w *inproc) threads() int                     { return w.workers }
func (w *inproc) catalog() *storage.Catalog        { return w.cat }
func (w *inproc) probeInputs() probeSpec           { return w.spec }
func (w *inproc) close()                           {}
func (w *inproc) footprint() (int64, int64, error) { return w.htTotal, w.htHot, nil }

func (w *inproc) stmtNames() []string {
	names := make([]string, w.nq)
	for i := range names {
		names[i] = fmt.Sprintf("%s.q%02d", w.prefix, i+1)
	}
	return names
}

// run executes statement i and returns its answer digest. Plan builders
// report bad input by panicking; that is a failed statement, not a crash
// of the harness.
func (w *inproc) run(i int, flags core.Flags, workers int) (d string, ms float64, qc *exec.QCtx, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: panic: %v", w.stmtNames()[i], p)
		}
	}()
	qc = exec.NewQCtx(flags)
	qc.Workers = workers
	start := time.Now()
	res := w.q(i+1, w.cat, qc)
	ms = float64(time.Since(start).Nanoseconds()) / 1e6
	return digest(res.String()), ms, qc, nil
}

func (w *inproc) setup(seed int64) error {
	storage.SetSealCompression(w.compress)
	w.cat = w.gen(seed)
	w.want = make([]string, w.nq)
	for i := range w.want {
		d, _, _, err := w.run(i, core.Vanilla(), 1)
		if err != nil {
			return fmt.Errorf("reference pass: %w", err)
		}
		w.want[i] = d
	}
	// Footprint pass; it is also the first warm-up round.
	w.htTotal, w.htHot = 0, 0
	for i := range w.want {
		d, _, qc, err := w.run(i, w.flags, 1)
		if err != nil {
			return fmt.Errorf("footprint pass: %w", err)
		}
		if d != w.want[i] {
			return fmt.Errorf("footprint pass: %s differs from the vanilla reference", w.stmtNames()[i])
		}
		w.htTotal += int64(qc.HashTableBytes())
		w.htHot += int64(qc.HashTableHotBytes())
	}
	for r := 0; r < warmRounds; r++ {
		if _, out := w.round(nil, 0); failures(out) > 0 {
			return fmt.Errorf("warm-up round: %s", firstFailure(out))
		}
	}
	w.eng = engineTrace{}
	return nil
}

func (w *inproc) round(tr *tracer, parent int) (float64, []obs) {
	names := w.stmtNames()
	out := make([]obs, 0, w.nq)
	start := time.Now()
	for i := 0; i < w.nq; i++ {
		t0 := time.Now()
		d, ms, qc, err := w.run(i, w.flags, w.workers)
		o := obs{stmt: i, ms: ms}
		switch {
		case err != nil:
			o.fail = err.Error()
		case d != w.want[i]:
			o.fail = names[i] + ": answer differs from the vanilla reference"
		}
		if tr != nil {
			tr.add(parent, "stmt:"+names[i], t0, time.Now())
			if err == nil {
				w.eng.add(qc.Stats)
			}
		}
		out = append(out, o)
	}
	return time.Since(start).Seconds(), out
}

func (w *inproc) layerMetrics(m map[string]float64, tracedRounds int) error {
	statShares(m, w.eng.buckets)
	counterMetrics(m, w.eng.counters, tracedRounds)
	if w.workers > 1 {
		// One serial round over the same catalog against one parallel
		// round; meaningful only when the stamp's cpus >= workers.
		serial := *w
		serial.workers = 1
		s1, o1 := serial.round(nil, 0)
		sw, ow := w.round(nil, 0)
		if failures(o1)+failures(ow) > 0 {
			return fmt.Errorf("speedup rounds: %s%s", firstFailure(o1), firstFailure(ow))
		}
		m["exec.speedup_w2"] = s1 / sw
	}
	return nil
}

// statShares turns accumulated exec.Stats buckets into the Figure 6 shares.
func statShares(m map[string]float64, buckets map[string]time.Duration) {
	var total time.Duration
	for _, d := range buckets {
		total += d
	}
	share := func(names ...string) float64 {
		if total == 0 {
			return 0
		}
		var d time.Duration
		for _, n := range names {
			d += buckets[n]
		}
		return float64(d) / float64(total)
	}
	m["exec.stat_scan_share"] = share(exec.StatScan)
	m["exec.stat_hash_share"] = share(exec.StatHash)
	m["exec.stat_lookup_share"] = share(exec.StatLookup)
	m["exec.stat_aggregate_share"] = share(exec.StatAggregate)
	m["exec.stat_other_share"] = share(exec.StatPack, exec.StatOther)
}

// counterMetrics reports accumulated exec.Stats counters per round.
func counterMetrics(m map[string]float64, counters map[string]int64, rounds int) {
	per := func(c string) float64 { return float64(counters[c]) / float64(rounds) }
	m["exec.blocks_skipped"] = per(exec.CtrBlocksSkipped)
	m["exec.bytes_decompressed"] = per(exec.CtrBytesDecompressed)
	m["exec.rows_spilled"] = per(exec.CtrAggRowsSpilled)
	m["exec.partition_wise_aggs"] = per(exec.CtrPartitionWiseAggs)
	if seen := counters[exec.CtrBlocksSkipped] + counters[exec.CtrBlocksRead]; seen > 0 {
		m["storage.blocks_skipped_share"] = float64(counters[exec.CtrBlocksSkipped]) / float64(seen)
	}
}

func failures(out []obs) int {
	n := 0
	for _, o := range out {
		if o.fail != "" {
			n++
		}
	}
	return n
}

func firstFailure(out []obs) string {
	for _, o := range out {
		if o.fail != "" {
			return o.fail
		}
	}
	return ""
}
