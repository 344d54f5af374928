package exec

import (
	"ocht/internal/agg"
	"ocht/internal/core"
	"ocht/internal/domain"
	"ocht/internal/vec"
)

// Avg marks an AVG aggregate; the operator rewrites it into SUM and COUNT
// (Table I) and finalizes the division at emission.
const Avg = agg.Func(100)

// AggExpr is one aggregate of a HashAgg.
type AggExpr struct {
	Func agg.Func
	Arg  *Expr // nil for CountStar
	Name string
}

// HashAgg groups the child's rows by key expressions and maintains
// aggregates in an optimistically compressed hash table: prefix-suppressed
// keys, USSR slot codes for string keys, and hot/cold-split aggregate
// state, all depending on the query flags.
type HashAgg struct {
	Child    Op
	Keys     []*Expr
	KeyNames []string
	Aggs     []AggExpr
	// PartitionBits sets the radix width of a group table that owner
	// workers fill partition-wise: negative (the constructor default)
	// takes core.OwnerPartitionBits above partitionMinGroups estimated
	// groups and one table below, 0 forces one table, positive forces
	// 2^bits. A table filled on one goroutine is one table whatever its
	// value.
	PartitionBits int

	meta []Meta
	g    groupTable

	// driverOpened marks that the parallel driver has filled this
	// operator's table during the parallel Run in progress: Open (the
	// serial pass over the plan above it) only rewinds emission, and a
	// spine above it takes it as its source. The driver clears it when the
	// Run ends.
	driverOpened bool

	argOf []*Expr // per internal spec: the aggregate argument expression, or nil
	// args holds the current batch's argument vectors per spec; encoded
	// arguments are decoded into argBufs (active rows only), the
	// late-materialization scratch at the aggregation boundary, reused
	// across batches.
	args    []*vec.Vector
	argBufs []*vec.Vector
}

// NewHashAgg builds a grouped aggregation; see DefaultPartitionBits.
func NewHashAgg(child Op, keyNames []string, keys []*Expr, aggs []AggExpr) *HashAgg {
	return &HashAgg{Child: child, Keys: keys, KeyNames: keyNames, Aggs: aggs, PartitionBits: DefaultPartitionBits}
}

// Meta implements Op. Aggregate output types are flag-independent so that
// vanilla and optimized plans produce comparable results: SUM emits a
// 128-bit integer unless the domain proves 64 bits suffice.
func (h *HashAgg) Meta() []Meta {
	if h.meta != nil {
		return h.meta
	}
	for i, k := range h.Keys {
		h.meta = append(h.meta, Meta{
			Name:     h.KeyNames[i],
			Type:     k.Type(),
			Dom:      k.Dom(),
			Nullable: k.Nullable(),
		})
	}
	maxRows := h.Child.MaxRows()
	for _, a := range h.Aggs {
		// SUM, MIN, MAX and AVG are NULL over no values: in a group whose
		// argument is all NULL, or in a scalar aggregate over no rows.
		m := Meta{Name: a.Name, Nullable: a.Arg != nil && a.Arg.Nullable() || len(h.Keys) == 0}
		switch a.Func {
		case Avg:
			m.Type = vec.F64
			m.Dom = domain.Unknown
		case agg.Sum:
			if domain.SumFitsInt64(a.Arg.Dom(), maxRows) {
				m.Type = vec.I64
				lo, hi, _ := domain.SumBound(a.Arg.Dom(), maxRows)
				m.Dom = domain.New(lo.Int64(), hi.Int64())
			} else {
				m.Type = vec.I128
				m.Dom = domain.Unknown
			}
		case agg.Count, agg.CountStar:
			m.Type = vec.I64
			m.Dom = domain.New(0, maxRows)
			m.Nullable = false
		case agg.Min, agg.Max:
			if a.Arg.Type() == vec.Str {
				m.Type = vec.Str
				m.Nullable = true // the no-value marker emits the null reference
			} else {
				m.Type = vec.I64
				m.Dom = a.Arg.Dom()
			}
		}
		h.meta = append(h.meta, m)
	}
	return h.meta
}

// MaxRows implements Op.
func (h *HashAgg) MaxRows() int64 {
	n := h.Child.MaxRows()
	// The number of groups is bounded by the product of key domain
	// cardinalities when known.
	prod := int64(1)
	for _, k := range h.Keys {
		c := k.Dom().Cardinality()
		if c == 0 || c > uint64(rowsCap) {
			return n
		}
		prod = satMul(prod, int64(c)+1) // +1 for a possible NULL group
	}
	if prod < n {
		return prod
	}
	return n
}

// partitionMinGroups is the group-count estimate below which an owner
// fill keeps the aggregation table one partition, so a single owner folds
// every worker's partials: a low-group-count aggregate (TPC-H Q1's 6
// groups) gains nothing from splitting its groups across owners, and its
// emission order stays the first-occurrence order of the partials, so a
// GROUP BY ... LIMIT answers alike at every worker count. Forcing
// PartitionBits bypasses the floor. It is also the input size from which
// a parallel phase pays for itself (spine.large).
const partitionMinGroups = int64(1 << 13)

// groupEstimate bounds the group count like MaxRows, but string key
// columns, whose value domain carries no cardinality, fall back to the
// scan's per-block dictionary bound (Meta.Distinct) before giving up.
// Only an owner fill consumes it, for its width and its owners'
// directory hints; result layouts and the compression gate keep using
// MaxRows, so plans are byte-compatible with the estimate-free engine.
func (h *HashAgg) groupEstimate() int64 {
	n := h.Child.MaxRows()
	prod := int64(1)
	for _, k := range h.Keys {
		var card int64
		if c := k.Dom().Cardinality(); c != 0 && c <= uint64(rowsCap) {
			card = int64(c)
		} else if d := k.DistinctBound(); d > 0 {
			card = d
		} else {
			return n
		}
		prod = satMul(prod, card+1) // +1 for a possible NULL group
	}
	if prod < n {
		return prod
	}
	return n
}

// Open implements Op: it drains the child and builds the table.
func (h *HashAgg) Open(qc *QCtx) {
	if h.driverOpened {
		// Already built by the parallel driver; this call comes from the
		// serial pass over the plan above it and must only rewind emission.
		h.g.emit = 0
		return
	}
	h.setup(qc, 0)
	h.build(qc)
}

// setup opens the child and resolves the (empty) group table without
// draining any rows. The parallel driver stops here for the template
// frontier, whose table owner workers fill partition-wise, and for its
// worker clones, and fills tables its own way. owners is the owner count
// of the template's fill, 0 for a table filled on one goroutine.
func (h *HashAgg) setup(qc *QCtx, owners int) {
	h.Child.Open(qc)
	for _, k := range h.Keys {
		k.intern(qc.Store)
	}
	maxRows := h.Child.MaxRows()
	ins := make([]aggInput, len(h.Aggs))
	for oi, a := range h.Aggs {
		ins[oi] = aggInput{fn: a.Func, spec: agg.Spec{MaxRows: maxRows}}
		if a.Arg != nil {
			a.Arg.intern(qc.Store)
			ins[oi].spec.InType = a.Arg.Type()
			ins[oi].spec.InDom = a.Arg.Dom()
			ins[oi].nullable = a.Arg.Nullable()
		}
	}

	// The paper does not enable compression for hash tables that are
	// small (CPU-cache-resident) based on optimizer estimates
	// (Section V-A, limitation (c)); the group-count bound is that
	// estimate here.
	flags := qc.Flags
	if flags.Compress && h.MaxRows() < compressMinBuildRows {
		flags.Compress = false
	}
	g := &h.g
	g.resolve(flags, qc.Store, h.Meta(), len(h.Keys), ins)

	// Per-spec argument expressions, resolved once so the build loop does
	// not rescan specOf per batch.
	h.argOf = make([]*Expr, len(g.specs))
	for oi, m := range g.specOf {
		h.argOf[m.spec] = h.Aggs[oi].Arg
		if m.cnt >= 0 {
			h.argOf[m.cnt] = h.Aggs[oi].Arg
		}
	}
	h.args = make([]*vec.Vector, len(g.specs))
	h.argBufs = make([]*vec.Vector, len(g.specs))

	bits := 0
	switch {
	case owners == 0: // filled on one goroutine: one table
	case h.PartitionBits >= 0:
		bits = h.PartitionBits
	case h.groupEstimate() >= partitionMinGroups:
		bits = core.OwnerPartitionBits(owners)
	}
	g.alloc(qc, h.MaxRows(), bits)
}

// evalBatch is the per-batch front end build and preAggregate share:
// evaluate the key columns into the group table's g.rawKeys, which
// groupTable.add (or codeKeys) codes, and every aggregate argument once.
// It returns the batch's active rows and physical extent.
func (h *HashAgg) evalBatch(qc *QCtx, b *vec.Batch) ([]int32, int) {
	g := &h.g
	rows := b.Rows()
	phys := physOf(b)
	g.reserve(phys)
	for i, k := range h.Keys {
		g.rawKeys[i] = k.eval(qc, b, rows, phys)
	}
	for si, e := range h.argOf {
		if e != nil {
			// The aggregate kernels consume raw slices; encoded column
			// arguments materialize (active rows only) into reusable
			// per-spec scratch.
			h.args[si] = ensurePlain(e.eval(qc, b, rows, phys), rows, &h.argBufs[si], phys)
		}
	}
	return rows, phys
}

func (h *HashAgg) build(qc *QCtx) {
	for {
		qc.checkCancel()
		b := h.Child.Next(qc)
		if b == nil {
			return
		}
		rows, phys := h.evalBatch(qc, b)
		h.g.add(qc.Stats, rows, phys, h.args)
	}
}

// Next implements Op: emits the group results in insertion order.
func (h *HashAgg) Next(qc *QCtx) *vec.Batch {
	qc.checkCancel() // emission never touches a scan; poll here too
	return h.g.next()
}

// Tables exposes every radix partition of the aggregation table.
func (h *HashAgg) Tables() []*core.Table { return h.g.pt.Parts() }

// Len reports the total group count across all partitions.
func (h *HashAgg) Len() int { return h.g.pt.Len() }
