package exec

import (
	"sync"

	"ocht/internal/core"
	"ocht/internal/storage"
	"ocht/internal/vec"
)

// Morsel-driven parallel execution (DESIGN.md, "Parallel execution").
//
// The driver forks its worker contexts once per Run: it warms the USSR
// with every string the whole plan (build sides included) can produce,
// freezes it, and then runs one or more parallel phases on those workers.
// What a phase parallelizes is a spine — filters, projections and join
// probes over a source — cloned per worker and driven by a shared morsel
// queue over the source: a scan's blocks, or the radix partitions of an
// aggregation an earlier phase filled partition-wise.
//
//   - The plan's own spine. With an aggregation frontier (its lowest hash
//     aggregation) the workers fill the frontier's table — pre-aggregating
//     into private tables whose partial records one owner per partition
//     folds — then each large aggregation above it from the one below, and
//     the rest of the plan runs serially; without one the spine is
//     range-partitioned and the per-worker results are concatenated in
//     worker order, which reproduces the serial row order.
//   - Each large join build side, when its Open runs on the driver. The
//     aggregations on the build spine fill the same way; a plain pipeline
//     over the scan or over the top filled aggregation is built
//     partition-wise (partagg.go): workers spill coded, hashed rows per
//     radix partition and one owner builds each partition whole.
//
// Build sides open bottom-up, so a build spine's own joins are built (in
// parallel where large) before the spine is cloned; the clones probe the
// finished tables read-only.

// parallelRun is the driver state of one parallel Run.
type parallelRun struct {
	workers []*QCtx    // forked once when the Run starts, shared by every phase
	filled  []*HashAgg // aggregations filled on the workers; reset when the Run ends
}

// spine is the root→source path of a plan. Its source — what its morsels
// come from — is a scan's blocks, or the partitions of an aggregation the
// driver has already filled partition-wise.
type spine struct {
	frontier *HashAgg // lowest HashAgg above the source, nil for pure pipelines
	scan     *Scan    // the source: a scan,
	src      *HashAgg // or a filled aggregation (partScan clones emit it)
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
			if t.driverOpened {
				// Filled on the workers already: a source when its
				// partitions can be handed out, else the end of the road.
				sp.src = t
				return sp, t.g.pt.Bits() > 0
			}
			sp.frontier = t // keep descending: the lowest one wins
			o = t.Child
		case *HashJoin:
			o = t.Probe
		default:
			return sp, false
		}
	}
}

// morsels returns the affinity queue over the spine source's morsels for
// n workers: blocks of the scan, or partitions of the filled aggregation.
func (sp spine) morsels(n int) *storage.MorselQueue {
	if sp.src != nil {
		return storage.NewMorselQueueAffinity(sp.src.g.pt.NParts(), n)
	}
	return sp.scan.Table.MorselsFor(n)
}

// large reports whether a parallel phase over the spine drains enough rows
// to pay for itself: the frontier's input, or for a pure pipeline the root's
// output bound, must reach partitionMinGroups.
func (sp spine) large(root Op) bool {
	if sp.frontier != nil {
		return sp.frontier.Child.MaxRows() >= partitionMinGroups
	}
	return root.MaxRows() >= partitionMinGroups
}

// fillSpine fills the aggregations on root's spine bottom-up on the
// driver's workers — the lowest from the scan, each further one from the
// partitions of the one below it — while the next phase is large. It
// returns the spine left above the last one filled, whether that remaining
// pure pipeline is large enough to run on the workers too (pipeline), and
// whether any aggregation was filled. Whatever it leaves runs serially.
func fillSpine(qc *QCtx, root Op) (sp spine, pipeline, filled bool) {
	for {
		sp, ok := analyze(root)
		if !ok || !sp.large(root) {
			return sp, false, filled
		}
		if sp.frontier == nil {
			return sp, true, filled
		}
		fillFrontier(qc, sp)
		filled = true
	}
}

// partScan is a worker's view of an aggregation the driver filled
// partition-wise, the source of a phase above it: it emits the groups of
// the partitions it claims from the morsel queue, so partitions play the
// part blocks play for a Scan. The table is shared read-only; the view owns
// its emission scratch.
type partScan struct {
	src     *HashAgg
	morsels *storage.MorselQueue
	worker  int
	g       groupTable // src's table with private emission state
	offs    []int      // partition p's groups are src.g.order[offs[p]:offs[p+1]]
}

func (s *partScan) Meta() []Meta   { return s.src.Meta() }
func (s *partScan) MaxRows() int64 { return s.src.MaxRows() }

// Open implements Op.
func (s *partScan) Open(qc *QCtx) {
	src := &s.src.g
	n := src.pt.NParts()
	s.g = groupTable{
		meta: src.meta, nKeys: src.nKeys, keys: src.keys,
		specs: src.specs, specOf: src.specOf, schema: src.schema, ag: src.ag, pt: src.pt,
		keyBufs:   make([]*vec.Vector, src.nKeys),
		chunkRecs: make([][]int32, n),
		chunkRows: make([][]int32, n),
	}
	s.offs = make([]int, n+1)
	for p := 0; p < n; p++ {
		s.offs[p+1] = s.offs[p] + src.pt.Part(p).Len()
	}
}

// Next implements Op.
func (s *partScan) Next(qc *QCtx) *vec.Batch {
	for {
		qc.checkCancel()
		if b := s.g.next(); b != nil {
			return b
		}
		p, ok := s.morsels.NextFor(s.worker)
		if !ok {
			return nil
		}
		s.g.order, s.g.emit = s.src.g.order[s.offs[p]:s.offs[p+1]], 0
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
		case *HashJoin:
			warmExpr(qc, t.Residual)
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
		qc.Store.Warm([]byte(e.cStr))
	}
	warmExpr(qc, e.l)
	warmExpr(qc, e.r)
	warmExpr(qc, e.el)
	for _, v := range e.vals {
		warmExpr(qc, v)
	}
}

// runParallel executes the plan with qc.Workers workers. ok is false when
// the plan shape is unsupported; the caller then runs serially.
func runParallel(qc *QCtx, root Op, keys []SortKey, limit int) (res *Result, ok bool) {
	sp, ok := analyze(root)
	if !ok {
		return nil, false
	}
	// Single-threaded USSR warmup, then freeze: from here on the region is
	// shared read-only, worker Interns fall back to their private heaps and
	// the driver's serial work (small join builds, the plan above the
	// frontier) interns into its own heap.
	warmTree(qc, root)
	wqcs := forkCtx(qc, qc.Workers)
	if qc.Store.U != nil {
		qc.Store.U.Freeze()
	}
	qc.par = &parallelRun{workers: wqcs}
	defer func() {
		for _, h := range qc.par.filled {
			h.driverOpened = false
		}
		qc.par = nil
	}()
	if sp.frontier != nil {
		// The plan's own frontier fills whatever its size, the
		// aggregations above it only when large.
		fillFrontier(qc, sp)
		fillSpine(qc, root)
		// Serial tail: the plan above the filled aggregations runs exactly
		// as before; the top one's Open is short-circuited onto its table.
		root.Open(qc)
		res = materialize(qc, root, keys, limit)
	} else {
		res = runParallelPipeline(qc, root, sp, keys, limit)
	}
	joinCtx(qc, wqcs)
	return res, true
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
// back into the query context once the Run's last parallel phase is done.
// A worker registers every table it builds in any phase, so its footprint
// is the sum over phases.
func joinCtx(qc *QCtx, wqcs []*QCtx) {
	qc.workerFootprints = make([]int, len(wqcs))
	for i, w := range wqcs {
		qc.Stats.Merge(w.Stats)
		qc.Store.HashFast += w.Store.HashFast
		qc.Store.HashSlow += w.Store.HashSlow
		qc.Store.EqualFast += w.Store.EqualFast
		qc.Store.EqualSlow += w.Store.EqualSlow
		for _, t := range w.tables {
			qc.workerFootprints[i] += t.MemoryBytes()
		}
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

// fillFrontier opens the frontier subtree serially with an empty table —
// this builds every join below the frontier and fixes the template's key
// schema, aggregate layout and radix width — and then fills the table on
// the driver's workers through the spill → owner exchange (partagg.go):
// each worker pre-aggregates its morsels into a private monolithic table
// and flushes its groups as partial records routed by the template's
// radix width; each partition's owner folds them into a table on its own
// key schema; the template adopts the partitions.
//
// The frontier is left driver-opened for the rest of the Run: its Opens,
// from the serial pass over the operators above it, only rewind emission,
// and a spine above it takes it as its source.
func fillFrontier(qc *QCtx, sp spine) {
	tpl := sp.frontier
	tpl.setup(qc)
	wqcs := qc.par.workers
	n := len(wqcs)
	route := tpl.g.pt
	morsels := sp.morsels(n)
	clones := make([]*HashAgg, n)
	for i := range clones {
		clones[i] = clonePipeline(tpl, morsels, i).(*HashAgg)
		clones[i].PartitionBits = 0 // pre-aggregation table; flushes route by the template's width
	}

	// Phase 1: pre-aggregate and flush. setup resolves each clone's
	// schema, aggregator and private table without draining the child.
	spills := make([]*spill, n)
	spawn(n, func(i int) {
		clones[i].setup(wqcs[i])
		spills[i] = clones[i].preAggregate(wqcs[i], route)
	})

	// Phase 2: one owner per partition. A partition holds at most the
	// records flushed into it and about its share of the group estimate; a
	// directory sized for that spares the owner the rehashes of growing one.
	est := tpl.groupEstimate() >> uint(route.Bits())
	parts := make([]*core.Table, route.NParts())
	ownPartitions(n, len(parts), func(w, pi int) {
		hint := int(min(int64(rowsIn(spills, pi)), est))
		parts[pi] = clones[w].ownPartition(wqcs[w], pi, hint, spills)
	})

	// Phase 3: the template adopts the partitions.
	tpl.g.adopt(qc, parts)
	if len(parts) > 1 {
		qc.Stats.Count(CtrPartitionWiseAggs, 1)
	}
	tpl.driverOpened = true
	qc.par.filled = append(qc.par.filled, tpl)
}

// runParallelPipeline is the no-frontier case: contiguous block ranges per
// worker, full per-worker pipelines, results concatenated in worker order
// (which is serial row order). Under a limit every worker keeps only its
// own first or top limit rows — no other row of its range can be in the
// answer — and the driver orders and cuts the at most Workers*limit rows.
func runParallelPipeline(qc *QCtx, root Op, sp spine, keys []SortKey, limit int) *Result {
	// Build all join tables first; large build sides fan out themselves.
	root.Open(qc)

	blocks := 0
	if len(sp.scan.Table.Cols) > 0 {
		blocks = sp.scan.Table.Cols[0].Blocks()
	}
	wkeys := keys
	if limit < 0 {
		wkeys = nil // an unbounded sort happens once, in the driver
	}
	wqcs := qc.par.workers
	n := len(wqcs)
	results := make([]*Result, n)
	spawn(n, func(i int) {
		lo, hi := i*blocks/n, (i+1)*blocks/n
		clone := clonePipeline(root, storage.NewMorselQueueRange(lo, hi), i)
		clone.Open(wqcs[i])
		results[i] = materialize(wqcs[i], clone, wkeys, limit)
	})

	res := newResult(root.Meta())
	for _, r := range results {
		res.Rows = append(res.Rows, r.Rows...)
	}
	return res.sortCut(keys, limit)
}
