package exec

import "ocht/internal/vec"

// Filter keeps the rows satisfying a boolean predicate: Expr.Select
// narrows the batch's selection vector conjunct by conjunct, and no data
// is copied. A row whose predicate is NULL is dropped.
type Filter struct {
	Child Op
	Pred  *Expr

	sel []int32
	out vec.Batch
}

// NewFilter wraps child with a predicate.
func NewFilter(child Op, pred *Expr) *Filter {
	return &Filter{Child: child, Pred: pred}
}

// Meta implements Op.
func (f *Filter) Meta() []Meta { return f.Child.Meta() }

// MaxRows implements Op.
func (f *Filter) MaxRows() int64 { return f.Child.MaxRows() }

// Open implements Op.
func (f *Filter) Open(qc *QCtx) {
	// A filter sitting directly on a scan pushes its conjunctive integer
	// ranges down as zone ranges before the scan opens, letting it skip
	// whole blocks by zone map. Derived every Open so cloned worker
	// pipelines get it too.
	if sc, ok := f.Child.(*Scan); ok {
		sc.Zones = zoneRangesOf(f.Pred, sc.Meta())
	}
	f.Child.Open(qc)
	f.Pred.intern(qc.Store)
}

// Next implements Op.
func (f *Filter) Next(qc *QCtx) *vec.Batch {
	for {
		qc.checkCancel()
		b := f.Child.Next(qc)
		if b == nil {
			return nil
		}
		f.sel = f.Pred.Select(qc, b, b.Rows(), f.sel)
		if len(f.sel) == 0 {
			continue
		}
		if vec.DebugAsserts {
			vec.AssertSel(f.sel, vec.MaxLen)
		}
		f.out.Vecs = b.Vecs
		f.out.Sel = f.sel
		f.out.N = len(f.sel)
		return &f.out
	}
}

// Project computes one output column per expression.
type Project struct {
	Child Op
	Exprs []*Expr
	Names []string

	meta []Meta
	out  vec.Batch
}

// NewProject wraps child with computed columns.
func NewProject(child Op, names []string, exprs []*Expr) *Project {
	return &Project{Child: child, Exprs: exprs, Names: names}
}

// Meta implements Op.
func (p *Project) Meta() []Meta {
	if p.meta == nil {
		for i, e := range p.Exprs {
			p.meta = append(p.meta, Meta{
				Name:     p.Names[i],
				Type:     e.Type(),
				Dom:      e.Dom(),
				Nullable: e.Nullable(),
				Distinct: e.DistinctBound(),
			})
		}
	}
	return p.meta
}

// MaxRows implements Op.
func (p *Project) MaxRows() int64 { return p.Child.MaxRows() }

// Open implements Op.
func (p *Project) Open(qc *QCtx) {
	p.Child.Open(qc)
	for _, e := range p.Exprs {
		e.intern(qc.Store)
	}
	p.Meta()
	p.out.Vecs = make([]*vec.Vector, len(p.Exprs))
}

// Next implements Op.
func (p *Project) Next(qc *QCtx) *vec.Batch {
	b := p.Child.Next(qc)
	if b == nil {
		return nil
	}
	rows, phys := b.Rows(), physOf(b)
	for i, e := range p.Exprs {
		p.out.Vecs[i] = e.eval(qc, b, rows, phys)
	}
	p.out.Sel = b.Sel
	p.out.N = b.N
	return &p.out
}
