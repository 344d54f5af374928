package exec

import (
	"math"

	"ocht/internal/i128"
	"ocht/internal/vec"
)

// ensureBuf (re)allocates the expression's output buffer.
func (e *Expr) ensureBuf(t vec.Type, n int) *vec.Vector {
	if e.buf == nil || e.buf.Typ != t || e.buf.Len() < n {
		e.buf = vec.New(t, n)
	}
	if e.buf.Nulls != nil {
		for i := range e.buf.Nulls {
			e.buf.Nulls[i] = false
		}
	}
	return e.buf
}

// physOf is the physical extent of b: its longest vector, or one past its
// last active row if that reaches further. Selections ascend, so the last
// active row is the largest. Eval and Select compute it once per root
// call and pass it down the tree.
func physOf(b *vec.Batch) int {
	n := 0
	for _, v := range b.Vecs {
		if l := v.Len(); l > n {
			n = l
		}
	}
	if b.Sel != nil {
		if b.N > 0 && int(b.Sel[b.N-1]) >= n {
			n = int(b.Sel[b.N-1]) + 1
		}
	} else if b.N > n {
		n = b.N
	}
	return n
}

// Eval computes the expression for the active rows of b. The returned
// vector is owned by the expression and valid until its next Eval. A
// Boolean expression (comparison, AND, OR, NOT, IN, LIKE, IS [NOT] NULL)
// is computed by Select: its vector is true at the selected rows and
// false, never NULL, at the other active rows.
func (e *Expr) Eval(qc *QCtx, b *vec.Batch) *vec.Vector {
	return e.eval(qc, b, b.Rows(), physOf(b))
}

// eval is Eval over the given active rows of b, whose physical extent
// (physOf) the root call computed once.
func (e *Expr) eval(qc *QCtx, b *vec.Batch, rows []int32, phys int) *vec.Vector {
	switch e.kind {
	case eCol:
		return b.Vecs[e.col]

	case eConstInt:
		out := e.ensureBuf(vec.I64, phys)
		for _, r := range rows {
			out.I64[r] = e.cInt
		}
		return out

	case eConstF64:
		out := e.ensureBuf(vec.F64, phys)
		for _, r := range rows {
			out.F64[r] = e.cF64
		}
		return out

	case eConstStr:
		out := e.ensureBuf(vec.Str, phys)
		ref := vec.StrRef(e.cInt)
		for _, r := range rows {
			out.Str[r] = ref
		}
		return out

	case eAdd, eSub, eMul, eDiv, eMod:
		l := e.l.eval(qc, b, rows, phys)
		r := e.r.eval(qc, b, rows, phys)
		out := e.ensureBuf(e.typ, phys)
		// A zero divisor makes the row NULL (Div and Mod are nullable
		// whenever their divisor may be zero).
		if e.typ == vec.F64 {
			for _, i := range rows {
				a, bb := asF64(l, int(i)), asF64(r, int(i))
				var v float64
				switch e.kind {
				case eAdd:
					v = a + bb
				case eSub:
					v = a - bb
				case eMul:
					v = a * bb
				case eDiv, eMod:
					if bb == 0 {
						out.SetNull(int(i))
					} else if e.kind == eDiv {
						v = a / bb
					} else {
						v = math.Mod(a, bb)
					}
				}
				out.F64[i] = v
			}
		} else if e.typ == vec.I128 {
			for _, i := range rows {
				a, bb := asI128(l, int(i)), asI128(r, int(i))
				var v i128.Int
				switch e.kind {
				case eAdd:
					v = i128.Add(a, bb)
				case eSub:
					v = i128.Sub(a, bb)
				case eMul:
					v = i128.MulInt64(a.Int64(), bb.Int64())
				case eDiv, eMod:
					if d := bb.Int64(); d == 0 {
						out.SetNull(int(i))
					} else if e.kind == eDiv {
						v = i128.FromInt64(a.Int64() / d)
					} else {
						v = i128.FromInt64(a.Int64() % d)
					}
				}
				out.I128[i] = v
			}
		} else {
			for _, i := range rows {
				a, bb := l.Int64At(int(i)), r.Int64At(int(i))
				var v int64
				switch e.kind {
				case eAdd:
					v = a + bb
				case eSub:
					v = a - bb
				case eMul:
					v = a * bb
				case eDiv, eMod:
					if bb == 0 {
						out.SetNull(int(i))
					} else if e.kind == eDiv {
						v = a / bb
					} else {
						v = a % bb
					}
				}
				out.I64[i] = v
			}
		}
		propagateNulls(out, rows, e.l.nullable, l, e.r.nullable, r)
		return out

	case eF64:
		l := e.l.eval(qc, b, rows, phys)
		out := e.ensureBuf(vec.F64, phys)
		switch l.Typ {
		case vec.F64:
			for _, i := range rows {
				out.F64[i] = l.F64[i]
			}
		case vec.I128:
			for _, i := range rows {
				x := l.I128[i]
				out.F64[i] = float64(x.Hi)*(1<<32)*(1<<32) + float64(x.Lo)
			}
		default:
			for _, i := range rows {
				out.F64[i] = float64(l.Int64At(int(i)))
			}
		}
		propagateNulls(out, rows, e.l.nullable, l, false, nil)
		return out

	case eCmp, eAnd, eOr, eNot, eIn, eIsNull, eNotNull, eLike, eNotLike:
		out := e.ensureBuf(vec.Bool, phys)
		for _, r := range rows {
			out.Bool[r] = false
		}
		for _, r := range e.sel(qc, b, rows, phys, e.selScratch(3, len(rows))) {
			out.Bool[r] = true
		}
		return out

	case eSubstr:
		l := e.l.eval(qc, b, rows, phys)
		out := e.ensureBuf(vec.Str, phys)
		for _, i := range rows {
			ref := l.StrRefAt(int(i))
			if l.IsNull(int(i)) || ref == nullStrRef {
				out.Str[i] = nullStrRef
				continue
			}
			s := qc.Store.Get(ref)
			if int64(len(s)) > e.cInt {
				s = s[:e.cInt]
			}
			out.Str[i] = qc.Store.Intern(s)
		}
		return out

	case eCase:
		cond := e.r.eval(qc, b, rows, phys)
		then := e.l.eval(qc, b, rows, phys)
		els := e.el.eval(qc, b, rows, phys)
		out := e.ensureBuf(e.typ, phys)
		if e.typ == vec.F64 {
			for _, i := range rows {
				if cond.Bool[i] {
					out.F64[i] = asF64(then, int(i))
				} else {
					out.F64[i] = asF64(els, int(i))
				}
			}
		} else {
			for _, i := range rows {
				if cond.Bool[i] {
					out.SetInt64(int(i), then.Int64At(int(i)))
				} else {
					out.SetInt64(int(i), els.Int64At(int(i)))
				}
			}
		}
		return out
	}
	panic("exec: unhandled expression kind")
}

func asF64(v *vec.Vector, i int) float64 {
	switch v.Typ {
	case vec.F64:
		return v.F64[i]
	case vec.I128:
		x := v.I128[i]
		return float64(x.Hi)*(1<<32)*(1<<32) + float64(x.Lo)
	}
	return float64(v.Int64At(i))
}

// asI128 reads a row as a 128-bit integer, widening narrow integers.
func asI128(v *vec.Vector, i int) i128.Int {
	if v.Typ == vec.I128 {
		return v.I128[i]
	}
	return i128.FromInt64(v.Int64At(i))
}

func propagateNulls(out *vec.Vector, rows []int32, ln bool, l *vec.Vector, rn bool, r *vec.Vector) {
	if !ln && !rn {
		return
	}
	for _, i := range rows {
		if (ln && l.IsNull(int(i))) || (rn && r != nil && r.IsNull(int(i))) {
			out.SetNull(int(i))
		}
	}
}
