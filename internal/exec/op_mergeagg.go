package exec

import (
	"ocht/internal/agg"
	"ocht/internal/domain"
	"ocht/internal/vec"
)

// MergeSpec is one output aggregate of a MergeAgg: it names the child
// column carrying the shard-level partial value and the aggregate
// function whose fold rule combines partials across shards. For AVG the
// shards return the decomposed SUM and COUNT partials in two columns
// (Col and Cnt) and the coordinator finalizes the division; a SUM, MIN or
// MAX may name the COUNT of its argument in Cnt too, and is then NULL
// where that count sums to 0.
type MergeSpec struct {
	Func agg.Func // agg.Sum/Count/Min/Max or Avg
	Col  int      // child column of the partial (the SUM partial for AVG)
	Cnt  int      // child column of the COUNT(arg) partial, else -1
	Name string
}

// MergeAgg is the coordinator side of distributed aggregation: the child
// (an Exchange over gathered shard results) yields one row per
// (shard, group) with finalized partial aggregates, and MergeAgg folds
// them through agg.Fold — the step the parallel driver's partition owners
// run over the workers' flushed partials, so distributed and single-node
// results agree by construction. The first NKeys child columns are the
// group keys; emission preserves first-occurrence order of the gathered
// stream.
type MergeAgg struct {
	Child Op
	NKeys int
	Specs []MergeSpec

	meta  []Meta
	g     groupTable
	colOf []int // per internal spec: the child column of its partial
}

// NewMergeAgg builds a merge aggregation over the child's partial rows.
func NewMergeAgg(child Op, nKeys int, specs []MergeSpec) *MergeAgg {
	return &MergeAgg{Child: child, NKeys: nKeys, Specs: specs}
}

// Meta implements Op. SUM merges in exact 128-bit arithmetic and emits
// I128 (the shard partial may itself be a wide sum); MIN/MAX keep the
// child partial's type; AVG finalizes to F64.
func (m *MergeAgg) Meta() []Meta {
	if m.meta != nil {
		return m.meta
	}
	cm := m.Child.Meta()
	for i := 0; i < m.NKeys; i++ {
		m.meta = append(m.meta, cm[i])
	}
	for _, s := range m.Specs {
		out := Meta{Name: s.Name, Dom: domain.Unknown, Nullable: s.Cnt >= 0 || m.NKeys == 0}
		switch s.Func {
		case Avg:
			out.Type = vec.F64
		case agg.Sum:
			out.Type = vec.I128
		case agg.Count, agg.CountStar:
			// A merged count is a sum of shard counts: the gathered row
			// count (Child.MaxRows) does not bound it.
			out.Type = vec.I64
			out.Nullable = false
		case agg.Min, agg.Max:
			out.Type = vec.I64
			if cm[s.Col].Type == vec.Str {
				out.Type = vec.Str
				out.Nullable = true // the no-value marker emits the null reference
			}
		}
		m.meta = append(m.meta, out)
	}
	return m.meta
}

// MaxRows implements Op: every gathered row could be its own group.
func (m *MergeAgg) MaxRows() int64 { return m.Child.MaxRows() }

// Open implements Op: drains the child and folds every partial row into
// a monolithic group table — NULL keys coded exactly as HashAgg codes them,
// so NULL groups from different shards land in one record.
func (m *MergeAgg) Open(qc *QCtx) {
	m.Child.Open(qc)
	cm := m.Child.Meta()

	// Sum partials use an unknown input domain on purpose: SumFitsInt64
	// never proves a 64-bit fit for it, so the layout is always one of the
	// exact 128-bit forms (split or full), which fold a 128-bit partial
	// without loss.
	maxRows := m.Child.MaxRows()
	ins := make([]aggInput, len(m.Specs))
	for oi, s := range m.Specs {
		spec := agg.Spec{MaxRows: maxRows, InType: vec.I64, InDom: domain.Unknown}
		if s.Func == agg.Min || s.Func == agg.Max {
			spec.InType = cm[s.Col].Type
		}
		ins[oi] = aggInput{fn: s.Func, spec: spec, nullable: s.Cnt >= 0}
	}
	g := &m.g
	g.resolve(qc.Flags, qc.Store, m.Meta(), m.NKeys, ins)
	m.colOf = make([]int, len(g.specs))
	for oi, am := range g.specOf {
		m.colOf[am.spec] = m.Specs[oi].Col
		if am.cnt >= 0 {
			m.colOf[am.cnt] = m.Specs[oi].Cnt
		}
	}
	g.alloc(qc, maxRows, 0)
	vals := make([]*vec.Vector, len(m.colOf))
	for {
		qc.checkCancel()
		b := m.Child.Next(qc)
		if b == nil {
			return
		}
		rows := b.Rows()
		phys := physOf(b)
		g.reserve(phys)
		for i := range g.keyVecs {
			g.keyVecs[i] = g.keys[i].code(b.Vecs[i], rows, &g.keyBufs[i], phys)
		}
		for si, col := range m.colOf {
			vals[si] = b.Vecs[col]
		}
		g.insert(nil, g.hashKeys(nil, rows), rows)
		g.foldPartials(nil, g.pt.Part(0), rows, vals)
	}
}

// Next implements Op: emits merged groups in insertion order.
func (m *MergeAgg) Next(qc *QCtx) *vec.Batch {
	qc.checkCancel()
	return m.g.next()
}

// Len reports the merged group count.
func (m *MergeAgg) Len() int { return m.g.pt.Len() }
