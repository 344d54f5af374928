package exec

import (
	"time"

	"ocht/internal/agg"
	"ocht/internal/core"
	"ocht/internal/i128"
	"ocht/internal/join"
	"ocht/internal/vec"
)

// Partition-wise parallel builds (DESIGN.md, "Partition-wise parallel
// aggregation"): the one spill → owner exchange that fills group tables
// and join tables on the parallel driver's workers.
//
//	Phase 1 (scan + spill):   every worker drains its morsels through a
//	    private pipeline clone and routes records by the top hash bits into
//	    per-(worker, partition) columnar spill buffers. An aggregation
//	    pre-aggregates into a private table and spills its groups as
//	    partial records — coded keys, hash and one finalized value per
//	    internal spec — whenever the table's hot area reaches
//	    preAggFlushBytes and when the input ends; a join build
//	    spills its coded, hashed rows.
//	Phase 2 (owner build):    each radix partition is assigned whole to
//	    one worker. The owner replays every worker's spill for its
//	    partitions — reusing the phase-1 hashes — into a partition table
//	    built with the owner's own key schema: the aggregation folds the
//	    partials by agg.Fold, the join inserts and scatters payloads. No
//	    cross-worker synchronization is needed (the ocht_debug owner
//	    assertion pins this). A monolithic table is the one-partition case.
//	Phase 3 (concatenate):    the template adopts the built partitions
//	    (core.NewPartTableFromParts). A group table's emission order
//	    becomes a plain partition-major concatenation; a join table is
//	    probed as if it had been built serially.
//
// Emission order is scheduling-dependent (morsels go to workers
// dynamically), and so is the order of a join key's matches; parallel
// results are order-normalized by their consumers.

// spill is one worker's phase-1 output: per radix partition, the columnar
// keys, values (partial aggregates or join payloads) and key hashes of
// every record the worker routed into that partition.
type spill struct {
	parts []spillPart
}

// spillPart accumulates the rows of one (worker, partition) pair.
type spillPart struct {
	rows   int
	hashes chunked[uint64]
	keys   []spillCol
	vals   []spillCol // partial aggregates by spec, or join payloads
}

// chunked is an append-only column stored in vec.Size-value chunks:
// growing it never copies a full chunk, and a replay's vector-sized reads,
// at multiples of vec.Size, each fall in one chunk. Every chunk but the
// last holds exactly vec.Size values. A chunk starts at the size of the
// append that opens it, so a partition that receives a few rows costs a
// few values, not a zeroed vec.Size chunk; the first append that does not
// fit grows it straight to vec.Size, since doubling would copy a chunk
// filled by many small appends several times.
type chunked[T any] [][]T

// tail returns the last chunk with room for min(n, its free values) more,
// opening a new one when it is full.
func (c *chunked[T]) tail(n int) *[]T {
	if k := len(*c); k == 0 || len((*c)[k-1]) == vec.Size {
		*c = append(*c, make([]T, 0, min(n, vec.Size)))
	}
	t := &(*c)[len(*c)-1]
	if len(*t)+min(n, vec.Size-len(*t)) > cap(*t) {
		grown := make([]T, len(*t), vec.Size)
		copy(grown, *t)
		*t = grown
	}
	return t
}

// gather appends src's values at rows.
//
//ocht:hot
func (c *chunked[T]) gather(src []T, rows []int32) {
	for len(rows) > 0 {
		t := c.tail(len(rows))
		k := min(vec.Size-len(*t), len(rows))
		for _, r := range rows[:k] {
			*t = append(*t, src[r])
		}
		rows = rows[k:]
	}
}

// at returns the n values from position base, a multiple of vec.Size.
func (c chunked[T]) at(base, n int) []T { return c[base/vec.Size][:n] }

// spillCol is a typed columnar append buffer mirroring one plain vector.
type spillCol struct {
	typ  vec.Type
	b    chunked[bool]
	i8   chunked[int8]
	i16  chunked[int16]
	i32  chunked[int32]
	i64  chunked[int64]
	f64  chunked[float64]
	str  chunked[vec.StrRef]
	i128 chunked[i128.Int]
}

// appendRows copies the active rows of v (a plain vector, as the
// aggregation and join build boundaries produce) into the buffer.
//
//ocht:hot
func (c *spillCol) appendRows(v *vec.Vector, rows []int32) {
	c.typ = v.Typ
	switch v.Typ {
	case vec.Bool:
		c.b.gather(v.Bool, rows)
	case vec.I8:
		c.i8.gather(v.I8, rows)
	case vec.I16:
		c.i16.gather(v.I16, rows)
	case vec.I32:
		c.i32.gather(v.I32, rows)
	case vec.I64:
		c.i64.gather(v.I64, rows)
	case vec.F64:
		c.f64.gather(v.F64, rows)
	case vec.Str:
		c.str.gather(v.Str, rows)
	case vec.I128:
		c.i128.gather(v.I128, rows)
	}
}

// fill materializes buffer positions [base, base+n) into dst[0..n); base
// is a multiple of vec.Size.
//
//ocht:hot
func (c *spillCol) fill(dst *vec.Vector, base, n int) {
	switch c.typ {
	case vec.Bool:
		copy(dst.Bool, c.b.at(base, n))
	case vec.I8:
		copy(dst.I8, c.i8.at(base, n))
	case vec.I16:
		copy(dst.I16, c.i16.at(base, n))
	case vec.I32:
		copy(dst.I32, c.i32.at(base, n))
	case vec.I64:
		copy(dst.I64, c.i64.at(base, n))
	case vec.F64:
		copy(dst.F64, c.f64.at(base, n))
	case vec.Str:
		copy(dst.Str, c.str.at(base, n))
	case vec.I128:
		copy(dst.I128, c.i128.at(base, n))
	}
}

// newSpill sizes a worker's spill set for nparts partitions of records
// with nkeys key and nvals value columns.
func newSpill(nparts, nkeys, nvals int) *spill {
	sp := &spill{parts: make([]spillPart, nparts)}
	for pi := range sp.parts {
		p := &sp.parts[pi]
		p.keys = make([]spillCol, nkeys)
		p.vals = make([]spillCol, nvals)
	}
	return sp
}

// appendRows spills the given rows of one batch: the key and value
// columns and the row-indexed hashes.
//
//ocht:hot
func (p *spillPart) appendRows(keys, vals []*vec.Vector, hashes []uint64, rows []int32) {
	for ci, kv := range keys {
		p.keys[ci].appendRows(kv, rows)
	}
	for ci, v := range vals {
		p.vals[ci].appendRows(v, rows)
	}
	p.hashes.gather(hashes, rows)
	p.rows += len(rows)
}

// preAggFlushBytes is the hot-area size at which a worker's
// pre-aggregation table flushes its groups: half of a 1 MiB per-core L2,
// so the private table stays cache-resident while it absorbs its morsels.
const preAggFlushBytes = 512 << 10

// preAggregate is the phase-1 worker loop of a frontier fill: build's
// loop with the private table flushed into the spill, routed by route's
// radix width, whenever its hot area reaches preAggFlushBytes and once
// more when the input ends. A worker whose table holds more than a
// quarter of its first partitionMinGroups rows gains nothing from it: it
// flushes then and spills each further row as its own partial record
// instead, unless route has one partition. The operator must have
// been set up without owners (setup(qc, 0): a one-partition table,
// schema and aggregator resolved, child open, no rows drained).
func (h *HashAgg) preAggregate(qc *QCtx, route *core.PartTable) *spill {
	g := &h.g
	sp := newSpill(route.NParts(), len(h.Keys), len(g.specs))
	vals := make([]*vec.Vector, len(g.specs))
	byPart := make([][]int32, route.NParts())
	in, perRow := 0, false
	for {
		qc.checkCancel()
		b := h.Child.Next(qc)
		if b == nil {
			break
		}
		rows, phys := h.evalBatch(qc, b)
		if perRow {
			g.codeKeys(qc.Stats, rows, phys)
			h.spillRows(qc, sp, route, rows, vals, byPart)
			continue
		}
		g.add(qc.Stats, rows, phys, h.args)
		if in < int(partitionMinGroups) && in+len(rows) >= int(partitionMinGroups) {
			// A group folded on a worker costs about what an owner pays
			// for it, so the table must shrink its input well to pay for
			// its flushes; a lone owner, though, would fold every row.
			perRow = 4*g.pt.Len() > in+len(rows) && route.NParts() > 1
		}
		in += len(rows)
		if perRow || g.pt.HotAreaBytes() >= preAggFlushBytes {
			g.flush(qc, sp, route, vals, byPart)
		}
	}
	g.flush(qc, sp, route, vals, byPart)
	return sp
}

// spillRows spills each active row of the batch evalBatch has just coded
// as its own partial record: its coded keys, its hash and, per internal
// spec, the partial of a group of that one row — a COUNT of 1 or 0, the
// value, or over a NULL the fold identity.
//
//ocht:hot
func (h *HashAgg) spillRows(qc *QCtx, sp *spill, route *core.PartTable, rows []int32, vals []*vec.Vector, byPart [][]int32) {
	g := &h.g
	for si, s := range g.specs {
		v := scratchVec(&vals[si], g.ag.ResultType(si), len(g.hashes))
		arg := h.args[si]
		switch {
		case s.Func == agg.CountStar || s.Func == agg.Count:
			for _, r := range rows {
				v.I64[r] = 1
				if arg != nil && arg.IsNull(int(r)) {
					v.I64[r] = 0
				}
			}
		case v.Typ == vec.Str:
			for _, r := range rows {
				v.Str[r] = arg.Str[r]
				if arg.IsNull(int(r)) {
					v.Str[r] = nullStrRef
				}
			}
		default:
			identity := int64(0) // SUM
			if s.Func == agg.Min {
				identity = agg.MinInitExcept
			} else if s.Func == agg.Max {
				identity = agg.MaxInitExcept
			}
			for _, r := range rows {
				x := identity
				if !arg.IsNull(int(r)) {
					x = arg.Int64At(int(r))
				}
				if v.Typ == vec.I128 {
					v.I128[r] = i128.FromInt64(x)
				} else {
					v.I64[r] = x
				}
			}
		}
	}
	route.SplitRows(g.hashes, rows, byPart)
	for pi, rg := range byPart {
		if len(rg) > 0 {
			sp.parts[pi].appendRows(g.keyVecs, vals, g.hashes, rg)
		}
	}
	qc.Stats.Count(CtrAggRowsSpilled, int64(len(rows)))
}

// flush spills every group of g's (monolithic) table as a partial record
// — its coded keys, its hash and the Result value of every internal spec —
// routed by route's radix width, then empties the table. vals and byPart
// are the caller's per-spec and per-partition scratch.
//
//ocht:hot
func (g *groupTable) flush(qc *QCtx, sp *spill, route *core.PartTable, vals []*vec.Vector, byPart [][]int32) {
	t := g.pt.Part(0)
	for si := range vals {
		scratchVec(&vals[si], g.ag.ResultType(si), vec.Size)
	}
	for base := 0; base < t.Len(); base += vec.Size {
		rows := identRows[:min(t.Len()-base, vec.Size)]
		recs := g.recs[:len(rows)]
		for i := range recs {
			recs[i] = int32(base + i)
		}
		for ci := range g.keyVecs {
			g.keyVecs[ci] = scratchVec(&g.keyBufs[ci], g.keys[ci].typ, vec.Size)
			t.LoadKey(ci, recs, g.keyVecs[ci], rows)
		}
		for si, v := range vals {
			g.ag.Result(t, si, recs, v, rows)
		}
		start := time.Now()
		t.HashRecs(recs, g.hashes)
		qc.Stats.Add(StatHash, time.Since(start))
		route.SplitRows(g.hashes, rows, byPart)
		for pi, rg := range byPart {
			if len(rg) > 0 {
				sp.parts[pi].appendRows(g.keyVecs, vals, g.hashes, rg)
			}
		}
	}
	qc.Stats.Count(CtrAggRowsSpilled, int64(t.Len()))
	t.Reset()
	g.memo.drop()
	g.order = g.order[:0]
}

// rowsIn counts the spilled rows of partition pi across all workers: the
// exact size of the table its owner builds.
func rowsIn(spills []*spill, pi int) int {
	n := 0
	for _, sp := range spills {
		n += sp.parts[pi].rows
	}
	return n
}

// ownPartitions is phase 2 of every partition-wise build: partition pi
// belongs to worker pi*n/nparts, and owners build their partitions one at
// a time so each table stays cache-resident through its whole build.
func ownPartitions(n, nparts int, build func(w, pi int)) {
	claims := newPartOwnerAssert(nparts)
	spawn(n, func(w int) {
		for pi := 0; pi < nparts; pi++ {
			if pi*n/nparts != w {
				continue
			}
			debugAssertPartOwner(claims, pi, w)
			build(w, pi)
		}
	})
}

// ownPartition is the phase-2 owner step of a frontier fill: it folds
// every worker's partial records of partition pi into a fresh table on
// the owner clone's key schema, so all hashing, matching and string
// accounting stays on the owner's store. The chunks replay through the
// clone's batch scratch, idle since its phase 1 ended, and reuse the
// flushed hashes: keys are re-packed for the insert path but never
// re-hashed.
//
//ocht:hot
func (h *HashAgg) ownPartition(qc *QCtx, pi, hint int, spills []*spill) *core.Table {
	g := &h.g
	t := core.NewTable(g.schema, g.ag.HotBytes, g.ag.ColdBytes, hint)
	qc.register(t)
	for _, sp := range spills {
		p := &sp.parts[pi]
		for base := 0; base < p.rows; base += vec.Size {
			qc.checkCancel()
			rows := identRows[:min(p.rows-base, vec.Size)]
			fillCols(p.keys, base, len(rows), g.keyVecs, g.keyBufs)
			fillCols(p.vals, base, len(rows), h.args, h.argBufs)
			copy(g.hashes, p.hashes.at(base, len(rows)))
			g.insertInto(qc.Stats, t, g.schema.Prepare(g.keyVecs, rows), rows)
			g.foldPartials(qc.Stats, t, rows, h.args)
		}
	}
	return t
}

// adopt installs the owners' partition tables as g's table, in place of
// the empty one setup registered with qc; emission order becomes the
// partition-major concatenation of their insertion orders.
func (g *groupTable) adopt(qc *QCtx, parts []*core.Table) {
	old := map[*core.Table]bool{}
	for _, t := range g.pt.Parts() {
		old[t] = true
	}
	kept := qc.tables[:0]
	for _, t := range qc.tables {
		if !old[t] {
			kept = append(kept, t)
		}
	}
	qc.tables = append(kept, parts...)
	g.pt = core.NewPartTableFromParts(g.schema, parts)
	g.order = g.order[:0]
	for pi, t := range parts {
		for local := int32(0); local < int32(t.Len()); local++ {
			g.order = append(g.order, g.pt.EncodeRec(uint32(pi), local))
		}
	}
}

// fillCols materializes positions [base, base+cnt) of every spilled
// column into dst, through the per-column scratch in bufs.
func fillCols(cols []spillCol, base, cnt int, dst, bufs []*vec.Vector) {
	for ci := range cols {
		dst[ci] = scratchVec(&bufs[ci], cols[ci].typ, vec.Size)
		dst[ci].Nulls = nil // a mask left by the phase-1 batch in this scratch
		cols[ci].fill(dst[ci], base, cnt)
	}
}

// buildPartitionWise fills the join's (empty, just laid out) table from a
// plain build spine on the driver's workers: phase 1 drains one clone of
// the build pipeline per worker, coding each batch exactly as the serial
// build does and spilling it hashed and routed; phase 2 has each owner
// replay its partitions into tables on its own key schema through
// join.Owner, the serial build's per-partition step; phase 3 adopts them.
// The build subtree is open, so its own joins are already built and the
// clones probe them read-only.
func (h *HashJoin) buildPartitionWise(qc *QCtx, sp spine) {
	wqcs := qc.par.workers
	n := len(wqcs)
	nparts := len(h.j.Tables())
	morsels := sp.morsels(n)

	owners := make([]*join.Owner, n)
	batches := make([]*buildBatch, n)
	spills := make([]*spill, n)
	spawn(n, func(i int) {
		owners[i] = h.j.NewOwner(wqcs[i].Store)
		batches[i] = h.newBuildBatch()
		spills[i] = newSpill(nparts, len(h.buildIdx), len(h.payloadIdx))
		src := clonePipeline(h.Build, morsels, i)
		src.Open(wqcs[i])
		h.spillBuild(wqcs[i], src, owners[i], batches[i], spills[i])
	})

	sizes := make([]int, nparts)
	total := 0
	for pi := range sizes {
		sizes[pi] = rowsIn(spills, pi)
		total += sizes[pi]
	}
	h.j.SizeBloom(total)
	parts := make([]*core.Table, nparts)
	ownPartitions(n, nparts, func(w, pi int) {
		t := owners[w].NewPart(sizes[pi])
		wqcs[w].register(t)
		replayJoinPart(wqcs[w], owners[w], t, pi, spills, batches[w])
		parts[pi] = t
	})

	debugAssertLinked(parts)
	h.j.Adopt(parts, owners)
	for _, t := range parts {
		qc.register(t)
	}
}

// spillBuild is the phase-1 worker loop of a parallel join build: the
// serial build's drain with the table writes replaced by spill appends.
//
//ocht:hot
func (h *HashJoin) spillBuild(qc *QCtx, src Op, o *join.Owner, bb *buildBatch, sp *spill) {
	total := int64(0)
	for {
		qc.checkCancel()
		b := src.Next(qc)
		if b == nil {
			break
		}
		rows := bb.code(h, b)
		if len(rows) == 0 {
			continue
		}
		start := time.Now()
		hashes, groups := o.Route(bb.keys, rows)
		qc.Stats.Add(StatHash, time.Since(start))
		for pi, g := range groups {
			if len(g) > 0 {
				sp.parts[pi].appendRows(bb.keys, bb.payload, hashes, g)
			}
		}
		total += int64(len(rows))
	}
	qc.Stats.Count(CtrJoinRowsSpilled, total)
}

// replayJoinPart is the phase-2 owner loop of a parallel join build: it
// replays every worker's spill for partition pi into t, a vector at a
// time through the owner's batch scratch, reusing the phase-1 hashes, and
// links t on the owner's goroutine, before Adopt shares it with probes.
//
//ocht:hot
func replayJoinPart(qc *QCtx, o *join.Owner, t *core.Table, pi int, spills []*spill, bb *buildBatch) {
	for _, sp := range spills {
		p := &sp.parts[pi]
		for base := 0; base < p.rows; base += vec.Size {
			qc.checkCancel()
			cnt := min(p.rows-base, vec.Size)
			fillCols(p.keys, base, cnt, bb.keys, bb.keyBufs)
			fillCols(p.vals, base, cnt, bb.payload, bb.plBufs)
			start := time.Now()
			o.BuildPart(t, bb.keys, bb.payload, p.hashes.at(base, cnt), identRows[:cnt])
			qc.Stats.Add(StatLookup, time.Since(start))
		}
	}
	start := time.Now()
	t.Link()
	qc.Stats.Add(StatLookup, time.Since(start))
}
