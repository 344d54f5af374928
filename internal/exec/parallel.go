package exec

import (
	"sync"

	"ocht/internal/storage"
)

// Morsel-driven parallel execution (DESIGN.md, "Parallel execution").
//
// The driver splits a plan at its lowest hash aggregation (the frontier):
// everything below the frontier — scan, filters, projections, join probes —
// is cloned per worker and driven by a shared morsel queue over the scan's
// blocks, with each worker building a private optimistically compressed
// aggregate table against a private string heap; join build sides and the
// USSR are built once, single-threaded, and shared read-only. A final merge
// phase re-aggregates the per-worker tables into the template's table,
// after which the plan above the frontier runs serially as before.
//
// Plans without an aggregation frontier (pure scan→filter→project→probe
// pipelines) are instead range-partitioned: each worker runs a full clone
// over a contiguous slab of blocks and the per-worker results are
// concatenated in worker order, which reproduces the serial row order.

// spine is the root→scan path of a plan.
type spine struct {
	frontier *HashAgg // lowest HashAgg on the path, nil for pure pipelines
	scan     *Scan
}

// analyze walks the plan's spine. ok is false when the plan contains an
// operator shape the parallel driver does not support, in which case Run
// falls back to serial execution.
func analyze(root Op) (sp spine, ok bool) {
	o := root
	for {
		switch t := o.(type) {
		case *Scan:
			if t.Morsels != nil {
				return sp, false // already driven by another queue
			}
			sp.scan = t
			return sp, true
		case *Filter:
			o = t.Child
		case *Project:
			o = t.Child
		case *HashAgg:
			sp.frontier = t // keep descending: the lowest one wins
			o = t.Child
		case *HashJoin:
			o = t.Probe
		default:
			return sp, false
		}
	}
}

// warmTree inserts every string the workers could otherwise try to insert
// concurrently into the USSR: query-text constants of all expressions
// (which keep their Section IV-D priority by going first) and then every
// scanned column's per-block dictionaries. Runs single-threaded before the
// region is frozen.
func warmTree(qc *QCtx, root Op) {
	walkOps(root, func(o Op) {
		switch t := o.(type) {
		case *Filter:
			warmExpr(qc, t.Pred)
		case *Project:
			for _, e := range t.Exprs {
				warmExpr(qc, e)
			}
		case *HashAgg:
			for _, e := range t.Keys {
				warmExpr(qc, e)
			}
			for _, a := range t.Aggs {
				warmExpr(qc, a.Arg)
			}
		}
	})
	walkOps(root, func(o Op) {
		if s, isScan := o.(*Scan); isScan {
			for _, name := range s.Columns {
				s.Table.Col(name).WarmDictionaries(qc.Store)
			}
		}
	})
}

func walkOps(o Op, f func(Op)) {
	f(o)
	switch t := o.(type) {
	case *Filter:
		walkOps(t.Child, f)
	case *Project:
		walkOps(t.Child, f)
	case *HashAgg:
		walkOps(t.Child, f)
	case *HashJoin:
		walkOps(t.Build, f)
		walkOps(t.Probe, f)
	}
}

func warmExpr(qc *QCtx, e *Expr) {
	if e == nil {
		return
	}
	if e.kind == eConstStr {
		qc.Store.Warm(e.cStr)
	}
	warmExpr(qc, e.l)
	warmExpr(qc, e.r)
	warmExpr(qc, e.el)
}

// runParallel executes the plan with qc.Workers workers. ok is false when
// the plan shape is unsupported; the caller then runs serially.
func runParallel(qc *QCtx, root Op, keys []SortKey, limit int) (res *Result, ok bool) {
	sp, ok := analyze(root)
	if !ok {
		return nil, false
	}
	if sp.frontier != nil {
		return runParallelAgg(qc, root, sp, keys, limit), true
	}
	return runParallelPipeline(qc, root, sp, keys, limit), true
}

// forkCtx builds the per-worker execution contexts: private string heaps
// over a shared shard table, private Stats, serial-mode sub-contexts.
func forkCtx(qc *QCtx, n int) []*QCtx {
	stores := qc.Store.Shard(n)
	wqcs := make([]*QCtx, n)
	for i := range wqcs {
		// Workers share the query's cancellation signal so a deadline or
		// client disconnect stops every morsel loop, not just the driver.
		wqcs[i] = &QCtx{
			Flags: qc.Flags, Store: stores[i], Stats: NewStats(), done: qc.done,
			EagerMaterialize: qc.EagerMaterialize, DisableZoneSkip: qc.DisableZoneSkip,
		}
	}
	return wqcs
}

// joinCtx folds the workers' stats, counters and hash-table footprints
// back into the query context.
func joinCtx(qc *QCtx, wqcs []*QCtx) {
	qc.workerFootprints = qc.workerFootprints[:0]
	for _, w := range wqcs {
		qc.Stats.Merge(w.Stats)
		qc.Store.HashFast += w.Store.HashFast
		qc.Store.HashSlow += w.Store.HashSlow
		qc.Store.EqualFast += w.Store.EqualFast
		qc.Store.EqualSlow += w.Store.EqualSlow
		fp := 0
		for _, t := range w.tables {
			fp += t.MemoryBytes()
		}
		qc.workerFootprints = append(qc.workerFootprints, fp)
	}
}

// spawn runs one task per worker and re-panics the first worker panic in
// the driver goroutine.
func spawn(n int, task func(i int)) {
	var wg sync.WaitGroup
	panics := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { panics[i] = recover() }()
			task(i)
		}(i)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// runParallelAgg is the frontier case. It opens the template frontier
// with an empty table, freezes the USSR, and then picks the parallel
// build strategy by the template's radix width:
//
//   - bits > 0: partition-wise owner-computes (partagg.go) — workers
//     spill hash-routed rows during the scan, each partition is built
//     whole by one owner worker, and the merge is a contention-free
//     partition concatenation.
//   - bits == 0 (cache-resident group count): per-worker private tables
//     re-aggregated into the template through agg.Merge. With few groups
//     the merge touches almost nothing, so the classic path stays the
//     cheaper one.
func runParallelAgg(qc *QCtx, root Op, sp spine, keys []SortKey, limit int) *Result {
	tpl := sp.frontier

	// 1. Open the frontier subtree serially with an empty table: this
	// builds (and registers) every join hash table below the frontier and
	// fixes the template's key schema, aggregate layout and radix width.
	tpl.setup(qc)

	// 2–3. Single-threaded USSR warmup, then freeze: from here on the
	// region is shared read-only and worker Interns fall back to their
	// private heaps.
	warmTree(qc, root)
	wqcs := forkCtx(qc, qc.Workers)
	if qc.Store.U != nil {
		qc.Store.U.Freeze()
	}

	if tpl.g.pt.Bits() > 0 {
		runPartitionWiseAgg(qc, tpl, sp, wqcs)
	} else {
		runMergeAgg(qc, tpl, sp, wqcs)
	}

	// Serial tail: the plan above the frontier runs exactly as before;
	// the frontier's Open is short-circuited onto the built table.
	tpl.driverOpened = true
	root.Open(qc)
	return materialize(qc, root, keys, limit)
}

// runMergeAgg is the classic parallel build: each worker drives a full
// clone of the frontier over the shared affinity morsel queue (opening a
// HashAgg drains its child, so Open alone builds the worker's partial
// table), then the per-worker tables fold into the template serially.
func runMergeAgg(qc *QCtx, tpl *HashAgg, sp spine, wqcs []*QCtx) {
	n := len(wqcs)
	morsels := sp.scan.Table.MorselsFor(n)
	clones := make([]*HashAgg, n)
	for i := range clones {
		clones[i] = clonePipeline(tpl, morsels, i).(*HashAgg)
	}
	spawn(n, func(i int) { clones[i].Open(wqcs[i]) })
	joinCtx(qc, wqcs)
	for _, c := range clones {
		tpl.g.merge(&c.g)
	}
}

// runParallelPipeline is the no-frontier case: contiguous block ranges per
// worker, full per-worker pipelines, results concatenated in worker order
// (which is serial row order). Under a limit every worker keeps only its
// own first or top limit rows — no other row of its range can be in the
// answer — and the driver orders and cuts the at most Workers*limit rows.
func runParallelPipeline(qc *QCtx, root Op, sp spine, keys []SortKey, limit int) *Result {
	// Build all join tables once, serially, with normal USSR priority.
	root.Open(qc)

	warmTree(qc, root)
	wqcs := forkCtx(qc, qc.Workers)
	if qc.Store.U != nil {
		qc.Store.U.Freeze()
	}

	blocks := 0
	if len(sp.scan.Table.Cols) > 0 {
		blocks = sp.scan.Table.Cols[0].Blocks()
	}
	wkeys := keys
	if limit < 0 {
		wkeys = nil // an unbounded sort happens once, in the driver
	}
	n := len(wqcs)
	results := make([]*Result, n)
	spawn(n, func(i int) {
		lo, hi := i*blocks/n, (i+1)*blocks/n
		clone := clonePipeline(root, storage.NewMorselQueueRange(lo, hi), i)
		clone.Open(wqcs[i])
		results[i] = materialize(wqcs[i], clone, wkeys, limit)
	})
	joinCtx(qc, wqcs)

	res := newResult(root.Meta())
	for _, r := range results {
		res.Rows = append(res.Rows, r.Rows...)
	}
	return res.sortCut(keys, limit)
}
