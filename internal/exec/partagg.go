package exec

import (
	"ocht/internal/core"
	"ocht/internal/i128"
	"ocht/internal/vec"
)

// Partition-wise parallel aggregation (DESIGN.md, "Partition-wise
// parallel aggregation").
//
// The classic parallel-agg path has every worker build a whole private
// group table and re-aggregates them serially through agg.Merge — the
// merge phase grows with the total group count and throttles scaling.
// This file is the owner-computes alternative the radix-partitioned
// tables (PR 5) make possible:
//
//	Phase 1 (scan + spill):   every worker drains its morsels through a
//	    private pipeline clone, evaluates/NULL-remaps keys and aggregate
//	    arguments, hashes once, and routes each row by the top hash bits
//	    into per-(worker, partition) columnar spill buffers. No hash
//	    table is touched.
//	Phase 2 (owner build):    each radix partition is assigned whole to
//	    one worker. The owner replays every worker's spill for its
//	    partitions — reusing the phase-1 hashes — into a partition table
//	    built with the owner's own key schema, so find-or-insert, string
//	    compares and aggregate updates run with zero cross-worker
//	    synchronization (the ocht_debug owner assertion pins this).
//	Phase 3 (concatenate):    the template adopts the built partitions
//	    (core.NewPartTableFromParts) and its emission order becomes a
//	    plain partition-major concatenation. No agg.Merge re-aggregation
//	    happens anywhere on this path.
//
// Emission order is scheduling-dependent (as it already is for the merge
// path, whose morsel-to-worker assignment is dynamic); parallel results
// are order-normalized by their consumers.

// aggSpill is one worker's phase-1 output: per radix partition, the
// columnar key/argument values, NULL masks and key hashes of every row
// the worker scanned into that partition.
type aggSpill struct {
	parts []spillPart
}

// spillPart accumulates the rows of one (worker, partition) pair.
type spillPart struct {
	rows   int
	hashes []uint64
	keys   []spillCol
	args   []spillCol // indexed by spec; empty for arg-less specs
	nulls  [][]bool   // indexed by spec; nil unless the arg is nullable
}

// spillCol is a typed columnar append buffer mirroring one plain vector.
type spillCol struct {
	typ  vec.Type
	i64  []int64 // Bool and I8..I64, widened
	f64  []float64
	str  []vec.StrRef
	i128 []i128.Int
}

// appendRows copies the active rows of v (a plain vector, as the
// aggregation boundary produces) into the buffer.
//
//ocht:hot
func (c *spillCol) appendRows(v *vec.Vector, rows []int32) {
	c.typ = v.Typ
	switch v.Typ {
	case vec.F64:
		for _, r := range rows {
			c.f64 = append(c.f64, v.F64[r])
		}
	case vec.Str:
		for _, r := range rows {
			c.str = append(c.str, v.Str[r])
		}
	case vec.I128:
		for _, r := range rows {
			c.i128 = append(c.i128, v.I128[r])
		}
	default:
		for _, r := range rows {
			c.i64 = append(c.i64, v.Int64At(int(r)))
		}
	}
}

// fill materializes buffer positions [base, base+n) into dst[0..n).
//
//ocht:hot
func (c *spillCol) fill(dst *vec.Vector, base, n int) {
	switch c.typ {
	case vec.F64:
		copy(dst.F64, c.f64[base:base+n])
	case vec.Str:
		copy(dst.Str, c.str[base:base+n])
	case vec.I128:
		copy(dst.I128, c.i128[base:base+n])
	default:
		for i := 0; i < n; i++ {
			dst.SetInt64(i, c.i64[base+i])
		}
	}
}

// newAggSpill sizes a worker's spill set for the template's shape.
func newAggSpill(h *HashAgg) *aggSpill {
	sp := &aggSpill{parts: make([]spillPart, h.g.pt.NParts())}
	for pi := range sp.parts {
		p := &sp.parts[pi]
		p.keys = make([]spillCol, len(h.Keys))
		p.args = make([]spillCol, len(h.args))
		p.nulls = make([][]bool, len(h.args))
	}
	return sp
}

// appendBatch spills one batch's routed rows into partition pi.
func (p *spillPart) appendBatch(h *HashAgg, rows []int32) {
	for ci, kv := range h.g.keyVecs {
		p.keys[ci].appendRows(kv, rows)
	}
	for si, arg := range h.args {
		if arg == nil {
			continue
		}
		p.args[si].appendRows(arg, rows)
		if h.g.argNullable[si] {
			nulls := p.nulls[si]
			if arg.Nulls != nil {
				for _, r := range rows {
					nulls = append(nulls, arg.Nulls[r])
				}
			} else {
				for range rows {
					nulls = append(nulls, false)
				}
			}
			p.nulls[si] = nulls
		}
	}
	for _, r := range rows {
		p.hashes = append(p.hashes, h.g.hashes[r])
	}
	p.rows += len(rows)
}

// spillBuild is the phase-1 worker loop: build's evaluation front end
// with the table writes replaced by spill appends. The operator must have
// been set up (schema, aggregator and routing table resolved, child open,
// no rows drained).
func (h *HashAgg) spillBuild(qc *QCtx) *aggSpill {
	sp := newAggSpill(h)
	total := int64(0)
	for {
		qc.checkCancel()
		b := h.Child.Next(qc)
		if b == nil {
			break
		}
		_, rows := h.evalBatch(qc, b)
		for pi, rg := range h.g.pt.PartitionRows(h.g.hashes, rows) {
			if len(rg) > 0 {
				sp.parts[pi].appendBatch(h, rg)
			}
		}
		total += int64(len(rows))
	}
	qc.Stats.Count(CtrAggRowsSpilled, total)
	return sp
}

// buildPartition replays every worker's spill for partition pi into a
// fresh table built against h's (the owner clone's) key schema, so all
// hashing, matching and string accounting stays on the owner's store.
// The chunks replay through the clone's own batch scratch, idle since its
// phase 1 ended. The phase-1 hashes are reused — keys are re-packed for
// the insert path but never re-hashed.
func (h *HashAgg) buildPartition(qc *QCtx, pi, hint int, spills []*aggSpill) *core.Table {
	g := &h.g
	t := core.NewTable(g.schema, g.ag.HotBytes, g.ag.ColdBytes, hint)
	qc.register(t)
	for _, sp := range spills {
		p := &sp.parts[pi]
		for base := 0; base < p.rows; base += vec.Size {
			qc.checkCancel()
			cnt := min(p.rows-base, vec.Size)
			rows := identRows[:cnt]
			for ci := range p.keys {
				g.keyVecs[ci] = scratchVec(&g.keyBufs[ci], p.keys[ci].typ, vec.Size)
				p.keys[ci].fill(g.keyVecs[ci], base, cnt)
			}
			for si := range h.args {
				if h.argOf[si] == nil {
					continue
				}
				arg := scratchVec(&h.argBufs[si], p.args[si].typ, vec.Size)
				p.args[si].fill(arg, base, cnt)
				arg.Nulls = nil
				if nulls := p.nulls[si]; nulls != nil {
					arg.Nulls = nulls[base : base+cnt]
				}
				h.args[si] = arg
			}
			copy(g.hashes, p.hashes[base:base+cnt])

			g.insertInto(qc.Stats, t, g.schema.Prepare(g.keyVecs, rows), rows)
			g.fold(qc.Stats, t, rows, h.args)
		}
	}
	return t
}

// runPartitionWiseAgg is the owner-computes driver, entered by
// runParallelAgg when the template table is radix-partitioned. The
// template tpl has been set up and the USSR is frozen.
func runPartitionWiseAgg(qc *QCtx, tpl *HashAgg, sp spine, wqcs []*QCtx) {
	n := len(wqcs)
	bits := tpl.g.pt.Bits()
	nparts := tpl.g.pt.NParts()
	morsels := sp.scan.Table.MorselsFor(n)

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
	spills := make([]*aggSpill, n)
	spawn(n, func(i int) {
		clones[i].setup(wqcs[i])
		spills[i] = clones[i].spillBuild(wqcs[i])
	})

	// Phase 2: owner-computes. Partition pi belongs to worker
	// pi*n/nparts; owners build their partitions one at a time so each
	// table stays cache-resident through its whole build.
	owners := make([]int32, nparts)
	for pi := range owners {
		owners[pi] = int32(pi * n / nparts)
	}
	claims := newPartOwnerAssert(nparts)
	hint := int(tpl.MaxRows())
	if hint > 1<<12 {
		hint = 1 << 12
	}
	hint >>= uint(bits)
	parts := make([]*core.Table, nparts)
	spawn(n, func(w int) {
		for pi := 0; pi < nparts; pi++ {
			if owners[pi] != int32(w) {
				continue
			}
			debugAssertPartOwner(claims, pi, w)
			parts[pi] = clones[w].buildPartition(wqcs[w], pi, hint, spills)
		}
	})
	joinCtx(qc, wqcs)

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
