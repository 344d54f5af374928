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
		if e.typ == vec.I64 {
			l, a, ma := e.intOperand(qc, b, rows, phys, 0, e.l)
			r, bb, mb := e.intOperand(qc, b, rows, phys, 1, e.r)
			out := e.ensureBuf(vec.I64, phys)
			intArith(e.kind, a, ma, bb, mb, rows, out)
			propagateNulls(out, rows, e.l.nullable, l, e.r.nullable, r)
			return out
		}
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
		} else {
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
			if len(rows) > 0 {
				ints := e.intsOf(0, l, rows, phys)
				for _, i := range rows {
					out.F64[i] = float64(ints[i])
				}
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
		if e.typ != vec.F64 {
			_, th, mt := e.intOperand(qc, b, rows, phys, 0, e.l)
			_, el, me := e.intOperand(qc, b, rows, phys, 1, e.el)
			out := e.ensureBuf(e.typ, phys)
			c := cond.Bool
			switch out.Typ {
			case vec.I8:
				pickInts(c, th, mt, el, me, rows, out.I8)
			case vec.I16:
				pickInts(c, th, mt, el, me, rows, out.I16)
			case vec.I32:
				pickInts(c, th, mt, el, me, rows, out.I32)
			case vec.I64:
				pickInts(c, th, mt, el, me, rows, out.I64)
			default:
				for _, r := range rows {
					if c[r] {
						out.SetInt64(int(r), th[r&mt])
					} else {
						out.SetInt64(int(r), el[r&me])
					}
				}
			}
			return out
		}
		then := e.l.eval(qc, b, rows, phys)
		els := e.el.eval(qc, b, rows, phys)
		out := e.ensureBuf(e.typ, phys)
		for _, i := range rows {
			if cond.Bool[i] {
				out.F64[i] = asF64(then, int(i))
			} else {
				out.F64[i] = asF64(els, int(i))
			}
		}
		return out
	}
	panic("exec: unhandled expression kind")
}

// intOperand returns operand x of e as integers indexed by physical row,
// valid at rows, with the mask its rows are read through (x[r&mask]): a
// constant is one value read at index 0 (mask 0), never evaluated into a
// vector; anything else is evaluated and decoded through intsOf into
// scratch slot i (mask -1). The vector is nil for a constant.
func (e *Expr) intOperand(qc *QCtx, b *vec.Batch, rows []int32, phys, i int, x *Expr) (*vec.Vector, []int64, int32) {
	if x.kind == eConstInt {
		e.ints[i] = append(e.ints[i][:0], x.cInt)
		return nil, e.ints[i], 0
	}
	v := x.eval(qc, b, rows, phys)
	if len(rows) == 0 {
		return v, nil, -1
	}
	return v, e.intsOf(i, v, rows, phys), -1
}

// intArith computes out[r] = a op b at the rows, each operand read
// through its intOperand mask; the operator is switched on once per
// vector. A zero divisor makes the row NULL (Div and Mod are nullable
// whenever their divisor may be zero).
//
//ocht:hot
func intArith(op exprKind, a []int64, ma int32, b []int64, mb int32, rows []int32, out *vec.Vector) {
	o := out.I64
	switch op {
	case eAdd:
		for _, r := range rows {
			o[r] = a[r&ma] + b[r&mb]
		}
	case eSub:
		for _, r := range rows {
			o[r] = a[r&ma] - b[r&mb]
		}
	case eMul:
		for _, r := range rows {
			o[r] = a[r&ma] * b[r&mb]
		}
	case eDiv:
		for _, r := range rows {
			if d := b[r&mb]; d != 0 {
				o[r] = a[r&ma] / d
			} else {
				o[r] = 0
				out.SetNull(int(r))
			}
		}
	case eMod:
		for _, r := range rows {
			if d := b[r&mb]; d != 0 {
				o[r] = a[r&ma] % d
			} else {
				o[r] = 0
				out.SetNull(int(r))
			}
		}
	}
}

// pickInts writes CASE's integer result: out[r] = then[r&mt] where cond
// holds, else els[r&me].
//
//ocht:hot
func pickInts[T vec.Int](cond []bool, then []int64, mt int32, els []int64, me int32, rows []int32, out []T) {
	for _, r := range rows {
		if cond[r] {
			out[r] = T(then[r&mt])
		} else {
			out[r] = T(els[r&me])
		}
	}
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
