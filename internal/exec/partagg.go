package exec

import (
	"time"

	"ocht/internal/core"
	"ocht/internal/i128"
	"ocht/internal/join"
	"ocht/internal/vec"
)

// Partition-wise parallel builds (DESIGN.md, "Partition-wise parallel
// aggregation").
//
// The classic parallel-agg path has every worker build a whole private
// group table and re-aggregates them serially through agg.Merge — the
// merge phase grows with the total group count and throttles scaling.
// This file is the owner-computes alternative the radix-partitioned
// tables make possible, and the one spill → owner build that fills both
// group records and join records:
//
//	Phase 1 (scan + spill):   every worker drains its morsels through a
//	    private pipeline clone, evaluates/NULL-remaps keys and aggregate
//	    arguments (or codes join keys and payloads), hashes once, and
//	    routes each row by the top hash bits into per-(worker, partition)
//	    columnar spill buffers. No hash table is touched.
//	Phase 2 (owner build):    each radix partition is assigned whole to
//	    one worker. The owner replays every worker's spill for its
//	    partitions — reusing the phase-1 hashes — into a partition table
//	    built with the owner's own key schema, so find-or-insert (or the
//	    join's insert and payload scatter), string compares and aggregate
//	    updates run with zero cross-worker synchronization (the ocht_debug
//	    owner assertion pins this).
//	Phase 3 (concatenate):    the template adopts the built partitions
//	    (core.NewPartTableFromParts). A group table's emission order
//	    becomes a plain partition-major concatenation; a join table is
//	    probed as if it had been built serially. No agg.Merge
//	    re-aggregation happens anywhere on this path.
//
// Emission order is scheduling-dependent (as it already is for the merge
// path, whose morsel-to-worker assignment is dynamic), and so is the order
// of a join key's matches; parallel results are order-normalized by their
// consumers.

// spill is one worker's phase-1 output: per radix partition, the columnar
// key and argument (or payload) values, NULL masks and key hashes of every
// row the worker routed into that partition.
type spill struct {
	parts []spillPart
}

// spillPart accumulates the rows of one (worker, partition) pair.
type spillPart struct {
	rows   int
	hashes chunked[uint64]
	keys   []spillCol
	args   []spillCol      // aggregate arguments by spec (empty for arg-less specs), or join payloads
	nulls  []chunked[bool] // indexed like args; nil unless the argument is nullable
}

// chunked is an append-only column stored in vec.Size-value chunks:
// growing it never copies, and a replay's vector-sized reads, at multiples
// of vec.Size, each fall in one chunk.
type chunked[T any] [][]T

// tail returns the last chunk, opening a new one when it is full.
func (c *chunked[T]) tail() *[]T {
	if n := len(*c); n == 0 || len((*c)[n-1]) == vec.Size {
		*c = append(*c, make([]T, 0, vec.Size))
	}
	return &(*c)[len(*c)-1]
}

// gather appends src's values at rows.
//
//ocht:hot
func (c *chunked[T]) gather(src []T, rows []int32) {
	for len(rows) > 0 {
		t := c.tail()
		k := min(vec.Size-len(*t), len(rows))
		for _, r := range rows[:k] {
			*t = append(*t, src[r])
		}
		rows = rows[k:]
	}
}

// zeros appends n zero values.
//
//ocht:hot
func (c *chunked[T]) zeros(n int) {
	var zero T
	for n > 0 {
		t := c.tail()
		k := min(vec.Size-len(*t), n)
		for i := 0; i < k; i++ {
			*t = append(*t, zero)
		}
		n -= k
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

// newSpill sizes a worker's spill set for nparts partitions of rows with
// nkeys key and nargs argument columns.
func newSpill(nparts, nkeys, nargs int) *spill {
	sp := &spill{parts: make([]spillPart, nparts)}
	for pi := range sp.parts {
		p := &sp.parts[pi]
		p.keys = make([]spillCol, nkeys)
		p.args = make([]spillCol, nargs)
		p.nulls = make([]chunked[bool], nargs)
	}
	return sp
}

// appendRows spills the given rows of one batch: the key columns, every
// non-nil argument column (with its NULL mask where argNullable says so;
// argNullable may be nil) and the row-indexed hashes.
//
//ocht:hot
func (p *spillPart) appendRows(keys, args []*vec.Vector, argNullable []bool, hashes []uint64, rows []int32) {
	for ci, kv := range keys {
		p.keys[ci].appendRows(kv, rows)
	}
	for si, arg := range args {
		if arg == nil {
			continue
		}
		p.args[si].appendRows(arg, rows)
		if argNullable != nil && argNullable[si] {
			if arg.Nulls != nil {
				p.nulls[si].gather(arg.Nulls, rows)
			} else {
				p.nulls[si].zeros(len(rows))
			}
		}
	}
	p.hashes.gather(hashes, rows)
	p.rows += len(rows)
}

// spillBuild is the phase-1 worker loop: build's evaluation front end
// with the table writes replaced by spill appends. The operator must have
// been set up (schema, aggregator and routing table resolved, child open,
// no rows drained).
func (h *HashAgg) spillBuild(qc *QCtx) *spill {
	g := &h.g
	sp := newSpill(g.pt.NParts(), len(h.Keys), len(h.args))
	total := int64(0)
	for {
		qc.checkCancel()
		b := h.Child.Next(qc)
		if b == nil {
			break
		}
		_, rows := h.evalBatch(qc, b)
		for pi, rg := range g.pt.PartitionRows(g.hashes, rows) {
			if len(rg) > 0 {
				sp.parts[pi].appendRows(g.keyVecs, h.args, g.argNullable, g.hashes, rg)
			}
		}
		total += int64(len(rows))
	}
	qc.Stats.Count(CtrAggRowsSpilled, total)
	return sp
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

// buildPartition replays every worker's spill for partition pi into a
// fresh table built against h's (the owner clone's) key schema, so all
// hashing, matching and string accounting stays on the owner's store.
// The chunks replay through the clone's own batch scratch, idle since its
// phase 1 ended. The phase-1 hashes are reused — keys are re-packed for
// the insert path but never re-hashed.
func (h *HashAgg) buildPartition(qc *QCtx, pi, hint int, spills []*spill) *core.Table {
	g := &h.g
	t := core.NewTable(g.schema, g.ag.HotBytes, g.ag.ColdBytes, hint)
	qc.register(t)
	for _, sp := range spills {
		p := &sp.parts[pi]
		for base := 0; base < p.rows; base += vec.Size {
			qc.checkCancel()
			cnt := min(p.rows-base, vec.Size)
			rows := identRows[:cnt]
			fillCols(p.keys, base, cnt, g.keyVecs, g.keyBufs)
			for si := range h.args {
				if h.argOf[si] == nil {
					continue
				}
				arg := scratchVec(&h.argBufs[si], p.args[si].typ, vec.Size)
				p.args[si].fill(arg, base, cnt)
				arg.Nulls = nil
				if nulls := p.nulls[si]; nulls != nil {
					arg.Nulls = nulls.at(base, cnt)
				}
				h.args[si] = arg
			}
			copy(g.hashes, p.hashes.at(base, cnt))

			g.insertInto(qc.Stats, t, g.schema.Prepare(g.keyVecs, rows), rows)
			g.fold(qc.Stats, t, rows, h.args)
		}
	}
	return t
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

// runPartitionWiseAgg is the owner-computes driver, entered by
// fillFrontier when the template table is radix-partitioned. The
// template tpl has been set up and the USSR is frozen.
func runPartitionWiseAgg(qc *QCtx, tpl *HashAgg, sp spine) {
	wqcs := qc.par.workers
	n := len(wqcs)
	bits := tpl.g.pt.Bits()
	nparts := tpl.g.pt.NParts()
	morsels := sp.morsels(n)

	clones := make([]*HashAgg, n)
	for i := range clones {
		c := clonePipeline(tpl, morsels, i).(*HashAgg)
		// Clones must route rows exactly like the template: pin the radix
		// width (an adaptive clone could re-derive a different one).
		c.PartitionBits = bits
		clones[i] = c
	}

	// Phase 1: scan + spill. setup resolves each clone's schema,
	// aggregator and routing table without draining the child.
	spills := make([]*spill, n)
	spawn(n, func(i int) {
		clones[i].setup(wqcs[i])
		spills[i] = clones[i].spillBuild(wqcs[i])
	})

	// Phase 2: owner-computes. A partition holds at most the rows spilled
	// into it and about its share of the group estimate; a directory sized
	// for that spares the owner the rehashes of growing one.
	est := tpl.groupEstimate() >> uint(bits)
	parts := make([]*core.Table, nparts)
	ownPartitions(n, nparts, func(w, pi int) {
		hint := int(min(int64(rowsIn(spills, pi)), est))
		parts[pi] = clones[w].buildPartition(wqcs[w], pi, hint, spills)
	})

	// Phase 3: the template adopts the partitions; emission order is the
	// partition-major concatenation of their (insertion-ordered) records.
	g := &tpl.g
	newPT := core.NewPartTableFromParts(g.schema, parts)
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
	g.pt = newPT
	g.order = g.order[:0]
	for pi := 0; pi < nparts; pi++ {
		for local := int32(0); local < int32(newPT.Part(pi).Len()); local++ {
			g.order = append(g.order, newPT.EncodeRec(uint32(pi), local))
		}
	}
	qc.Stats.Count(CtrPartitionWiseAggs, 1)
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
				sp.parts[pi].appendRows(bb.keys, bb.payload, nil, hashes, g)
			}
		}
		total += int64(len(rows))
	}
	qc.Stats.Count(CtrJoinRowsSpilled, total)
}

// replayJoinPart is the phase-2 owner loop of a parallel join build: it
// replays every worker's spill for partition pi into t, a vector at a
// time through the owner's batch scratch, reusing the phase-1 hashes.
//
//ocht:hot
func replayJoinPart(qc *QCtx, o *join.Owner, t *core.Table, pi int, spills []*spill, bb *buildBatch) {
	for _, sp := range spills {
		p := &sp.parts[pi]
		for base := 0; base < p.rows; base += vec.Size {
			qc.checkCancel()
			cnt := min(p.rows-base, vec.Size)
			fillCols(p.keys, base, cnt, bb.keys, bb.keyBufs)
			fillCols(p.args, base, cnt, bb.payload, bb.plBufs)
			start := time.Now()
			o.BuildPart(t, bb.keys, bb.payload, p.hashes.at(base, cnt), identRows[:cnt])
			qc.Stats.Add(StatLookup, time.Since(start))
		}
	}
}
