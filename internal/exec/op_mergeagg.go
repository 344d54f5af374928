package exec

import (
	"ocht/internal/agg"
	"ocht/internal/core"
	"ocht/internal/domain"
	"ocht/internal/i128"
	"ocht/internal/vec"
)

// MergeSpec is one output aggregate of a MergeAgg: it names the child
// column carrying the shard-level partial value and the aggregate
// function whose merge rule combines partials across shards. For AVG the
// shards return the decomposed SUM and COUNT partials in two columns
// (Col and Cnt) and the coordinator finalizes the division.
type MergeSpec struct {
	Func agg.Func // agg.Sum/Count/Min/Max or Avg
	Col  int      // child column of the partial (the SUM partial for AVG)
	Cnt  int      // child column of the COUNT partial for AVG, else -1
	Name string
}

// MergeAgg is the coordinator side of distributed aggregation: the child
// (an Exchange over gathered shard results) yields one row per
// (shard, group) with finalized partial aggregates, and MergeAgg folds
// rows of the same group through agg.LoadPartial + agg.Merge — the exact
// code path the parallel driver uses to combine per-worker partial
// tables, so distributed and single-node results agree by construction.
// The first NKeys child columns are the group keys; emission preserves
// first-occurrence order of the gathered stream.
type MergeAgg struct {
	Child Op
	NKeys int
	Specs []MergeSpec

	meta    []Meta
	g       groupTable
	colOf   []int       // per internal spec: the child column of its partial
	scratch *core.Table // one record, reloaded by LoadPartial for every partial row
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
		out := Meta{Name: s.Name, Dom: domain.Unknown}
		switch s.Func {
		case Avg:
			out.Type = vec.F64
		case agg.Sum:
			out.Type = vec.I128
		case agg.Count, agg.CountStar:
			// A merged count is a sum of shard counts: the gathered row
			// count (Child.MaxRows) does not bound it.
			out.Type = vec.I64
		case agg.Min, agg.Max:
			if cm[s.Col].Type == vec.Str {
				out.Type = vec.Str
				out.Nullable = true // all-NULL groups stay NULL
			} else {
				out.Type = vec.I64
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
	// exact 128-bit forms (split or full) and reloading the partial's
	// (Lo, Hi) words loses nothing.
	maxRows := m.Child.MaxRows()
	ins := make([]aggInput, len(m.Specs))
	for oi, s := range m.Specs {
		ins[oi] = aggInput{fn: s.Func, spec: agg.Spec{MaxRows: maxRows, InType: vec.I64, InDom: domain.Unknown}}
		if s.Func == agg.Min || s.Func == agg.Max {
			ins[oi].spec.InType = cm[s.Col].Type
		}
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
	tab := g.pt.Part(0)
	m.scratch = nil

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
		p := g.hashKeys(nil, rows)
		if m.scratch == nil && len(rows) > 0 {
			// Seed the scratch table with one record (any key works; only
			// its aggregate area is ever read).
			m.scratch = core.NewTable(g.schema, g.ag.HotBytes, g.ag.ColdBytes, 1)
			g.insertInto(nil, m.scratch, p, rows[:1])
		}
		g.insert(nil, p, rows, nil)
		for _, r := range rows {
			for si, col := range m.colOf {
				g.ag.LoadPartial(m.scratch, 0, si, m.partialAt(b.Vecs[col], int(r), si))
			}
			g.ag.Merge(tab, g.recs[r], m.scratch, 0)
		}
	}
}

// partialAt extracts one partial value from a child cell. NULL cells load
// the aggregate's merge identity (zero sums and counts, MIN/MAX
// sentinels, the string no-value marker), so a shard that had nothing to
// say about a group contributes nothing.
func (m *MergeAgg) partialAt(v *vec.Vector, row int, si int) agg.Partial {
	s := m.g.specs[si]
	null := v.IsNull(row)
	switch s.Func {
	case agg.Sum:
		if null {
			return agg.Partial{}
		}
		if v.Typ == vec.I128 {
			return agg.Partial{Sum: v.I128[row]}
		}
		return agg.Partial{Sum: i128.FromInt64(v.Int64At(row))}
	case agg.Count, agg.CountStar:
		if null {
			return agg.Partial{}
		}
		return agg.Partial{I: v.Int64At(row)}
	case agg.Min, agg.Max:
		if s.InType == vec.Str {
			if null {
				return agg.Partial{} // Str ref 0: the no-value marker
			}
			ref := v.StrRefAt(row)
			if ref == nullStrRef {
				return agg.Partial{}
			}
			return agg.Partial{Str: ref}
		}
		if null {
			if s.Func == agg.Min {
				return agg.Partial{I: agg.MinInitExcept}
			}
			return agg.Partial{I: agg.MaxInitExcept}
		}
		return agg.Partial{I: v.Int64At(row)}
	}
	panic("exec: partial of unsupported merge func")
}

// Next implements Op: emits merged groups in insertion order.
func (m *MergeAgg) Next(qc *QCtx) *vec.Batch {
	qc.checkCancel()
	return m.g.next()
}

// Len reports the merged group count.
func (m *MergeAgg) Len() int { return m.g.pt.Len() }
