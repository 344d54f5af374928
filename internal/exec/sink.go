package exec

import (
	stdcmp "cmp" // the package's own cmp builds comparison expressions
	"slices"
	"strings"

	"ocht/internal/i128"
	"ocht/internal/strs"
	"ocht/internal/vec"
)

// The ordered result sink (DESIGN.md, "Result sink"). Every result the
// engine returns is drained by materialize: the serial pull loop, the
// serial tail above a parallel aggregation frontier and each worker of a
// parallel pipeline. Intermediates stay columnar until a row is known to be
// part of the answer; only then is it boxed into Value cells.
//
//   - keys and a limit: a bounded max-heap of at most limit boxed rows. A
//     candidate row is compared with the heap's worst row on the batch
//     vectors and boxed only when it is admitted.
//   - a limit and no keys: the first limit rows, then the sink stops pulling.
//   - keys and no limit: every row is boxed and sorted once.
//
// All three use one total order (rowOrder), so the k rows the heap keeps are
// exactly the first k rows of the full sort: under a total order no two
// distinct rows tie, hence "the k smallest" names one set and one sequence.

// SortKey orders a result column.
type SortKey struct {
	Col  int
	Desc bool
}

// rowOrder is the total order over result rows: the explicit sort keys,
// then every column ascending, left to right. Group emission order is
// unspecified after a parallel merge; ordering ties by the remaining
// columns keeps ORDER BY + LIMIT deterministic across worker counts and
// merge strategies.
type rowOrder []SortKey

func newRowOrder(keys []SortKey, ncols int) rowOrder {
	o := make(rowOrder, 0, len(keys)+ncols)
	o = append(o, keys...)
	for c := 0; c < ncols; c++ {
		o = append(o, SortKey{Col: c})
	}
	return o
}

// compareValue is the one cell order every row comparison is built from:
// NULLs first, then the payload. Floats order as the standard cmp.Compare
// does — NaN before every number and equal to itself, -0 equal to +0 —
// because `<` alone is not a strict weak order once a NaN is present (NaN
// would tie with every number while the numbers differ among themselves),
// and neither a sort nor a heap is defined over such a relation.
func compareValue(v, o *Value) int {
	if v.Null || o.Null {
		return compareNull(v.Null, o.Null)
	}
	switch v.Typ {
	case vec.F64:
		return stdcmp.Compare(v.F, o.F)
	case vec.Str:
		return strings.Compare(v.S, o.S)
	case vec.I128:
		return i128.Cmp(v.I128, o.I128)
	default:
		return stdcmp.Compare(v.I, o.I)
	}
}

// compareNull orders two cells of which at least one is NULL.
func compareNull(a, b bool) int {
	switch {
	case a && b:
		return 0
	case a:
		return -1
	}
	return 1
}

// compare orders two boxed rows.
func (o rowOrder) compare(a, b []Value) int {
	for _, k := range o {
		if c := compareValue(&a[k.Col], &b[k.Col]); c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// compareAt orders physical row i of batch b, still columnar, against a
// boxed row. It runs once per produced row when the heap is full, so it
// must not box or allocate.
//
//ocht:hot
func (o rowOrder) compareAt(st *strs.Store, b *vec.Batch, i int, row []Value) int {
	for _, k := range o {
		if c := compareCell(st, b.Vecs[k.Col], i, &row[k.Col]); c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// compareCell is compareValue with the left cell read in place from a
// vector (whatever its encoding); o carries the column's type.
//
//ocht:hot
func compareCell(st *strs.Store, v *vec.Vector, i int, o *Value) int {
	null := v.IsNull(i)
	var ref vec.StrRef
	if o.Typ == vec.Str && !null {
		ref = v.StrRefAt(i)
		null = ref == nullStrRef
	}
	if null || o.Null {
		return compareNull(null, o.Null)
	}
	switch o.Typ {
	case vec.F64:
		return stdcmp.Compare(v.F64[i], o.F)
	case vec.Str:
		return st.CompareString(ref, o.S)
	case vec.I128:
		return i128.Cmp(v.I128[i], o.I128)
	default:
		return stdcmp.Compare(v.Int64At(i), o.I)
	}
}

// topK is the bounded max-heap of the keys-and-limit mode: rows[0] is the
// worst row kept so far, the one a better candidate evicts.
type topK struct {
	order rowOrder
	limit int // > 0
	rows  [][]Value
}

// push offers every active row of b to the heap.
func (h *topK) push(qc *QCtx, b *vec.Batch, meta []Meta) {
	for _, r := range b.Rows() {
		i := int(r)
		if len(h.rows) < h.limit {
			h.rows = append(h.rows, boxRow(qc, nil, b, meta, i))
			h.up(len(h.rows) - 1)
			continue
		}
		if h.order.compareAt(qc.Store, b, i, h.rows[0]) >= 0 {
			continue
		}
		h.rows[0] = boxRow(qc, h.rows[0], b, meta, i) // the evicted row's cells are reused
		h.down(0)
	}
}

func (h *topK) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.order.compare(h.rows[i], h.rows[p]) <= 0 {
			return
		}
		h.rows[i], h.rows[p] = h.rows[p], h.rows[i]
		i = p
	}
}

func (h *topK) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h.rows) {
			return
		}
		if c+1 < len(h.rows) && h.order.compare(h.rows[c+1], h.rows[c]) > 0 {
			c++
		}
		if h.order.compare(h.rows[c], h.rows[i]) <= 0 {
			return
		}
		h.rows[i], h.rows[c] = h.rows[c], h.rows[i]
		i = c
	}
}

// materialize drains an opened operator tree into a Result ordered by keys
// and cut to limit rows (limit < 0 = no limit).
func materialize(qc *QCtx, root Op, keys []SortKey, limit int) *Result {
	meta := root.Meta()
	res := newResult(meta)
	if limit == 0 {
		return res
	}
	var h topK
	bounded := len(keys) > 0 && limit > 0
	if bounded {
		h = topK{order: newRowOrder(keys, len(meta)), limit: limit}
	}
	for {
		qc.checkCancel()
		b := root.Next(qc)
		if b == nil {
			break
		}
		if bounded {
			h.push(qc, b, meta)
			continue
		}
		for _, r := range b.Rows() {
			res.Rows = append(res.Rows, boxRow(qc, nil, b, meta, int(r)))
			if len(keys) == 0 && len(res.Rows) == limit {
				return res // satisfied: stop pulling, the rest is never scanned
			}
		}
	}
	if bounded {
		res.Rows = h.rows
	}
	return res.sortCut(keys, limit)
}

func newResult(meta []Meta) *Result {
	res := &Result{}
	for _, m := range meta {
		res.Names = append(res.Names, m.Name)
		res.Types = append(res.Types, m.Type)
	}
	return res
}

// boxRow boxes physical row i of b into row, which is allocated when nil.
func boxRow(qc *QCtx, row []Value, b *vec.Batch, meta []Meta, i int) []Value {
	if row == nil {
		row = make([]Value, len(meta))
	}
	for ci, m := range meta {
		row[ci] = cellValue(qc, b.Vecs[ci], m.Type, i)
	}
	return row
}

func cellValue(qc *QCtx, v *vec.Vector, t vec.Type, i int) Value {
	val := Value{Typ: t}
	if v.IsNull(i) {
		val.Null = true
		return val
	}
	switch t {
	case vec.F64:
		val.F = v.F64[i]
	case vec.Str:
		ref := v.StrRefAt(i)
		if ref == nullStrRef {
			val.Null = true
			return val
		}
		val.S = qc.Store.Get(ref)
	case vec.I128:
		val.I128 = v.I128[i]
	default:
		val.I = v.Int64At(i)
	}
	return val
}

// sortCut orders the rows by keys (when there are any) and keeps the first
// limit (when limit >= 0): the end of every sink mode, and the driver's
// re-merge of the per-worker results of a parallel pipeline.
func (r *Result) sortCut(keys []SortKey, limit int) *Result {
	if len(keys) > 0 {
		r.OrderBy(keys...)
	}
	if limit >= 0 && len(r.Rows) > limit {
		r.Rows = r.Rows[:limit]
	}
	return r
}

// OrderBy sorts the result rows in place. Rows tying on every sort key
// are ordered by their remaining columns (ascending, left to right), so
// the order is total and needs no stable sort.
func (r *Result) OrderBy(keys ...SortKey) *Result {
	if len(r.Rows) > 1 {
		slices.SortFunc(r.Rows, newRowOrder(keys, len(r.Rows[0])).compare)
	}
	return r
}
