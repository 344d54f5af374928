package exec

import (
	"ocht/internal/i128"
	"ocht/internal/pack"
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

func physOf(b *vec.Batch) int {
	n := 0
	for _, v := range b.Vecs {
		if l := v.Len(); l > n {
			n = l
		}
	}
	if b.Sel != nil {
		for _, r := range b.Sel[:b.N] {
			if int(r)+1 > n {
				n = int(r) + 1
			}
		}
	} else if b.N > n {
		n = b.N
	}
	return n
}

// Eval computes the expression for the active rows of b. The returned
// vector is owned by the expression and valid until its next Eval.
func (e *Expr) Eval(qc *QCtx, b *vec.Batch) *vec.Vector {
	rows := b.Rows()
	phys := physOf(b)
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
		l := e.l.Eval(qc, b)
		r := e.r.Eval(qc, b)
		out := e.ensureBuf(e.typ, phys)
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
				case eDiv:
					if bb != 0 {
						v = a / bb
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
				case eDiv:
					if d := bb.Int64(); d != 0 {
						v = i128.FromInt64(a.Int64() / d)
					}
				case eMod:
					if d := bb.Int64(); d != 0 {
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
				case eDiv:
					if bb != 0 {
						v = a / bb
					}
				case eMod:
					if bb != 0 {
						v = a % bb
					}
				}
				out.I64[i] = v
			}
		}
		propagateNulls(out, rows, e.l.nullable, l, e.r.nullable, r)
		return out

	case eF64:
		l := e.l.Eval(qc, b)
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

	case eCmp:
		l := e.l.Eval(qc, b)
		out := e.ensureBuf(vec.Bool, phys)
		// Compressed-execution fast paths: compare packed vectors in the
		// pack domain (constant translated once per batch) and
		// dictionary-coded vectors on their codes (code table pre-filtered
		// once per block's dictionary). Neither materializes the column.
		if l.Enc == vec.EncPacked && e.r.kind == eConstInt {
			e.cmpPackedConst(l, e.r.cInt, rows, out)
			return out
		}
		if l.Enc == vec.EncDict && e.r.kind == eConstStr {
			e.cmpDictConst(l, rows, out)
			return out
		}
		r := e.r.Eval(qc, b)
		e.evalCmp(qc, l, r, rows, out)
		return out

	case eAnd:
		l := e.l.Eval(qc, b)
		r := e.r.Eval(qc, b)
		out := e.ensureBuf(vec.Bool, phys)
		for _, i := range rows {
			out.Bool[i] = l.Bool[i] && r.Bool[i]
		}
		return out

	case eOr:
		l := e.l.Eval(qc, b)
		r := e.r.Eval(qc, b)
		out := e.ensureBuf(vec.Bool, phys)
		for _, i := range rows {
			out.Bool[i] = l.Bool[i] || r.Bool[i]
		}
		return out

	case eNot:
		l := e.l.Eval(qc, b)
		out := e.ensureBuf(vec.Bool, phys)
		for _, i := range rows {
			out.Bool[i] = !l.Bool[i]
		}
		return out

	case eIsNull, eNotNull:
		l := e.l.Eval(qc, b)
		out := e.ensureBuf(vec.Bool, phys)
		want := e.kind == eIsNull
		for _, i := range rows {
			null := l.IsNull(int(i)) || (l.Typ == vec.Str && l.StrRefAt(int(i)) == nullStrRef)
			out.Bool[i] = null == want
		}
		return out

	case eLike, eNotLike:
		l := e.l.Eval(qc, b)
		out := e.ensureBuf(vec.Bool, phys)
		want := e.kind == eLike
		if e.scratch == nil {
			e.scratch = make([]byte, 0, 64)
		}
		if l.Enc == vec.EncDict {
			// Dictionary fast path: run the pattern over each distinct
			// string once per block, then map codes through the verdict
			// table.
			e.likeDictTable(l, want)
			if l.Codes != nil {
				for _, i := range rows {
					out.Bool[i] = e.codeOK[l.Codes[i]] && !l.IsNull(int(i))
				}
			} else { // bit-packed codes (compressed sealed block)
				for _, i := range rows {
					out.Bool[i] = e.codeOK[l.CodeAt(int(i))] && !l.IsNull(int(i))
				}
			}
			return out
		}
		for _, i := range rows {
			ref := l.StrRefAt(int(i))
			if l.IsNull(int(i)) || ref == nullStrRef {
				out.Bool[i] = false
				continue
			}
			var raw []byte
			raw, e.scratch = qc.Store.Raw(ref, e.scratch)
			out.Bool[i] = e.like.match(raw) == want
		}
		return out

	case eSubstr:
		l := e.l.Eval(qc, b)
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
		cond := e.r.Eval(qc, b)
		then := e.l.Eval(qc, b)
		els := e.el.Eval(qc, b)
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

func (e *Expr) evalCmp(qc *QCtx, l, r *vec.Vector, rows []int32, out *vec.Vector) {
	nullFalse := func(i int32) bool {
		return l.IsNull(int(i)) || r.IsNull(int(i)) ||
			(l.Typ == vec.Str && l.StrRefAt(int(i)) == nullStrRef) ||
			(r.Typ == vec.Str && r.StrRefAt(int(i)) == nullStrRef)
	}
	switch {
	case l.Typ == vec.Str:
		st := qc.Store
		for _, i := range rows {
			if nullFalse(i) {
				out.Bool[i] = false
				continue
			}
			lr, rr := l.StrRefAt(int(i)), r.StrRefAt(int(i))
			var v bool
			switch e.op {
			case opEQ:
				v = st.Equal(lr, rr)
			case opNE:
				v = !st.Equal(lr, rr)
			default:
				v = cmpHolds(e.op, st.Compare(lr, rr))
			}
			out.Bool[i] = v
		}
	case l.Typ == vec.F64 || r.Typ == vec.F64:
		for _, i := range rows {
			if nullFalse(i) {
				out.Bool[i] = false
				continue
			}
			a, b := asF64(l, int(i)), asF64(r, int(i))
			var c int
			if a < b {
				c = -1
			} else if a > b {
				c = 1
			}
			out.Bool[i] = cmpHolds(e.op, c)
		}
	case l.Typ == vec.I128 || r.Typ == vec.I128:
		for _, i := range rows {
			if nullFalse(i) {
				out.Bool[i] = false
				continue
			}
			out.Bool[i] = cmpHolds(e.op, i128.Cmp(asI128(l, int(i)), asI128(r, int(i))))
		}
	default:
		for _, i := range rows {
			if nullFalse(i) {
				out.Bool[i] = false
				continue
			}
			a, b := l.Int64At(int(i)), r.Int64At(int(i))
			var c int
			if a < b {
				c = -1
			} else if a > b {
				c = 1
			}
			out.Bool[i] = cmpHolds(e.op, c)
		}
	}
}

// cmpPackedConst compares a frame-of-reference packed vector against an
// integer constant without unpacking: the constant is translated into the
// pack domain once, then each row compares its raw bit-packed offset.
// Constants outside the pack domain collapse to a constant verdict.
//
//ocht:hot
func (e *Expr) cmpPackedConst(l *vec.Vector, c int64, rows []int32, out *vec.Vector) {
	co := c - l.PackMin
	bits := uint(l.PackBits)
	per := 64 / l.PackBits
	mask := uint64(1)<<bits - 1
	if co < 0 || uint64(co) > mask {
		// The constant lies outside any representable offset, so every
		// non-NULL row resolves the same way.
		var res bool
		switch e.op {
		case opEQ:
			res = false
		case opNE:
			res = true
		case opLT, opLE:
			res = co > int64(mask)
		case opGT, opGE:
			res = co < 0
		}
		for _, i := range rows {
			out.Bool[i] = res && !l.IsNull(int(i))
		}
		return
	}
	cu := uint64(co)
	op := e.op
	if pack.DenseRows(rows) {
		// Unfiltered batches take the SWAR kernel: one guard-bit subtract
		// compares up to 32 packed lanes per word (CmpOp mirrors cmpOp's
		// constant order). NULLs are cleared in a second pass.
		n := len(rows)
		pack.SwarCmpConst(l.Packed, l.PackBits, l.PackOff, n, cu, pack.CmpOp(op), out.Bool)
		if l.Nulls != nil {
			for i := 0; i < n; i++ {
				out.Bool[i] = out.Bool[i] && !l.Nulls[i]
			}
		}
		return
	}
	for _, i := range rows {
		j := l.PackOff + int(i)
		off := (l.Packed[j/per] >> (uint(j%per) * bits)) & mask
		var v bool
		switch op {
		case opEQ:
			v = off == cu
		case opNE:
			v = off != cu
		case opLT:
			v = off < cu
		case opLE:
			v = off <= cu
		case opGT:
			v = off > cu
		case opGE:
			v = off >= cu
		}
		out.Bool[i] = v && !l.IsNull(int(i))
	}
}

// cmpDictConst compares a dictionary-coded string vector against a string
// constant by pre-filtering the code table: each distinct string is
// compared once per block, on the decoded dictionary bytes — so the filter
// interns nothing — then rows just index the verdict table.
//
//ocht:hot
func (e *Expr) cmpDictConst(l *vec.Vector, rows []int32, out *vec.Vector) {
	e.ensureCodeOK(l)
	if e.codeStale {
		e.codeStale = false
		for c := range e.codeOK {
			e.codeOK[c] = entryHolds(e.op, l.DictEntry(int32(c)), e.r.cStr)
		}
	}
	if l.Codes != nil {
		for _, i := range rows {
			out.Bool[i] = e.codeOK[l.Codes[i]] && !l.IsNull(int(i))
		}
	} else { // bit-packed codes (compressed sealed block)
		for _, i := range rows {
			out.Bool[i] = e.codeOK[l.CodeAt(int(i))] && !l.IsNull(int(i))
		}
	}
}

// likeDictTable (re)builds the per-code LIKE verdict table from the
// decoded dictionary bytes when the block's dictionary changed since the
// last batch.
func (e *Expr) likeDictTable(l *vec.Vector, want bool) {
	e.ensureCodeOK(l)
	if !e.codeStale {
		return
	}
	e.codeStale = false
	for c := range e.codeOK {
		e.codeOK[c] = e.like.match(l.DictEntry(int32(c))) == want
	}
}

// ensureCodeOK sizes the per-code verdict table for l's dictionary and
// marks it stale when the dictionary is not the one it was built for.
// Batches windowed out of one block share the same DictRefs slice, so the
// identity check amortizes the rebuild over the whole block; Scan gives
// every block a fresh slice, so a new block always rebuilds.
func (e *Expr) ensureCodeOK(l *vec.Vector) {
	d := l.DictRefs
	if len(e.codeDict) == len(d) && len(d) > 0 && &e.codeDict[0] == &d[0] {
		return
	}
	if cap(e.codeOK) < len(d) {
		e.codeOK = make([]bool, len(d))
	}
	e.codeOK = e.codeOK[:len(d)]
	e.codeDict = d
	e.codeStale = true
}

// entryHolds evaluates op between a dictionary entry's bytes and a string
// constant. The conversions are comparison operands, which do not copy.
func entryHolds(op cmpOp, entry []byte, c string) bool {
	cmp := 0
	if string(entry) < c {
		cmp = -1
	} else if string(entry) > c {
		cmp = 1
	}
	return cmpHolds(op, cmp)
}

func cmpHolds(op cmpOp, c int) bool {
	switch op {
	case opEQ:
		return c == 0
	case opNE:
		return c != 0
	case opLT:
		return c < 0
	case opLE:
		return c <= 0
	case opGT:
		return c > 0
	case opGE:
		return c >= 0
	}
	return false
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
