package exec

import (
	"ocht/internal/i128"
	"ocht/internal/pack"
	"ocht/internal/strs"
	"ocht/internal/vec"
)

// Select is how a Boolean expression is evaluated: it returns the rows of
// rows (ascending physical positions of b, a subset of its active rows)
// for which e is TRUE. A NULL verdict never selects. The result is
// written into out's backing array, which is grown when it is too short
// and must not overlap rows.
//
// Conjunctions narrow: AND passes the survivors of its left side to its
// right side, and OR runs its right side only on the rows its left side
// rejected, then merges the two ascending selections. Each leaf switches
// on its operands' encoding and type once per vector and runs one tight
// loop: packed against a constant in the pack domain (SWAR), dictionary
// codes through a per-code verdict table, and integers of any mix of
// packed and plain decoded once per vector. A leaf whose rows cover at
// least pack.FullProcessThreshold of the batch's physical rows decodes
// densely (a sequential cursor over every position) and then picks the
// selected rows; a sparser one gathers through the selection.
func (e *Expr) Select(qc *QCtx, b *vec.Batch, rows, out []int32) []int32 {
	return e.sel(qc, b, rows, physOf(b), out)
}

// sel is Select with the physical extent computed once by the root call.
// Scratch slots 0-2 belong to sel; Eval's Boolean case uses slot 3.
func (e *Expr) sel(qc *QCtx, b *vec.Batch, rows []int32, phys int, out []int32) []int32 {
	out = growSel(out, len(rows))
	if len(rows) == 0 {
		return out
	}
	switch e.kind {
	case eAnd:
		mid := e.l.sel(qc, b, rows, phys, e.selScratch(0, len(rows)))
		return e.r.sel(qc, b, mid, phys, out)
	case eOr:
		ls := e.l.sel(qc, b, rows, phys, e.selScratch(0, len(rows)))
		rej := e.selScratch(1, len(rows))
		rej = rej[:minusSel(rows, ls, rej)]
		rs := e.r.sel(qc, b, rej, phys, e.selScratch(2, len(rej)))
		return out[:mergeSel(ls, rs, out)]
	case eCmp:
		return e.selCmp(qc, b, rows, phys, out)
	case eIn:
		return e.selIn(qc, b, rows, phys, out)
	case eLike, eNotLike:
		return e.selLike(qc, b, rows, phys, out)
	case eIsNull, eNotNull:
		l := e.l.eval(qc, b, rows, phys)
		want, k := e.kind == eIsNull, 0
		for _, r := range rows {
			out[k] = r
			if isNullAt(l, r) == want {
				k++
			}
		}
		return out[:k]
	case eNot:
		// Not pushed every predicate's negation to its leaves, so this
		// negates a Boolean value: FALSE selects, NULL does not.
		l := e.l.eval(qc, b, rows, phys)
		return out[:selBool(l.Bool, l.Nulls, false, rows, out)]
	}
	// A Boolean value (a column, a CASE) selects where it is TRUE.
	v := e.eval(qc, b, rows, phys)
	return out[:selBool(v.Bool, v.Nulls, true, rows, out)]
}

// selCmp selects the rows where a comparison holds.
func (e *Expr) selCmp(qc *QCtx, b *vec.Batch, rows []int32, phys int, out []int32) []int32 {
	l := e.l.eval(qc, b, rows, phys)
	if e.r.kind == eConstStr && l.Enc == vec.EncDict {
		if e.newDict(l) {
			for c := range e.codeOK {
				e.codeOK[c] = entryHolds(e.op, l.DictEntry(int32(c)), e.r.cStr)
			}
		}
		return e.selCodes(l, rows, phys, out)
	}
	if e.r.kind == eConstInt && isIntType(l.Typ) {
		rows = e.dropNulls(l, rows)
		if len(rows) == 0 {
			return out[:0]
		}
		if l.Enc == vec.EncPacked && denseSel(len(rows), phys) {
			return e.selPackedConst(l, e.r.cInt, rows, out)
		}
		a := e.intsOf(0, l, rows, phys)
		return out[:selI64Const(e.op, a, e.r.cInt, rows, out)]
	}
	r := e.r.eval(qc, b, rows, phys)
	switch {
	case l.Typ == vec.Str:
		return out[:e.selStrCmp(qc.Store, l, r, rows, out)]
	case l.Typ == vec.F64 || r.Typ == vec.F64:
		k := 0
		for _, i := range rows {
			if l.IsNull(int(i)) || r.IsNull(int(i)) {
				continue
			}
			a, b := asF64(l, int(i)), asF64(r, int(i))
			c := 0
			if a < b {
				c = -1
			} else if a > b {
				c = 1
			}
			if cmpHolds(e.op, c) {
				out[k] = i
				k++
			}
		}
		return out[:k]
	case l.Typ == vec.I128 || r.Typ == vec.I128:
		k := 0
		for _, i := range rows {
			if l.IsNull(int(i)) || r.IsNull(int(i)) {
				continue
			}
			if cmpHolds(e.op, i128.Cmp(asI128(l, int(i)), asI128(r, int(i)))) {
				out[k] = i
				k++
			}
		}
		return out[:k]
	}
	rows = e.dropNulls(r, e.dropNulls(l, rows))
	if len(rows) == 0 {
		return out[:0]
	}
	a := e.intsOf(0, l, rows, phys)
	c := e.intsOf(1, r, rows, phys)
	return out[:selI64Cols(e.op, a, c, rows, out)]
}

// selPackedConst compares a packed vector with an integer constant in the
// pack domain, densely: the SWAR kernel selects over every position up to
// the last row, and the non-NULL rows are then picked from that. A
// constant outside the pack domain gives one verdict for every row.
func (e *Expr) selPackedConst(l *vec.Vector, c int64, rows, out []int32) []int32 {
	mask := uint64(1)<<uint(l.PackBits) - 1
	below := c < l.PackMin
	co := uint64(c) - uint64(l.PackMin) // the offset, when !below
	if below || co > mask {
		var all bool
		switch e.op {
		case opNE:
			all = true
		case opLT, opLE:
			all = !below
		case opGT, opGE:
			all = below
		}
		if !all {
			return out[:0]
		}
		return out[:copy(out, rows)]
	}
	hi := int(rows[len(rows)-1]) + 1
	if len(rows) == hi { // rows is the identity selection
		return out[:pack.SwarSelConst(l.Packed, l.PackBits, l.PackOff, hi, co, pack.CmpOp(e.op), out)]
	}
	all := e.selScratch(1, hi)
	n := pack.SwarSelConst(l.Packed, l.PackBits, l.PackOff, hi, co, pack.CmpOp(e.op), all)
	return out[:intersectSel(all[:n], rows, out)]
}

// selIn selects the rows whose value is (or, for NOT IN, is not) in the
// constant list. A NULL operand selects in neither form.
func (e *Expr) selIn(qc *QCtx, b *vec.Batch, rows []int32, phys int, out []int32) []int32 {
	l := e.l.eval(qc, b, rows, phys)
	switch {
	case l.Enc == vec.EncDict:
		if e.newDict(l) {
			for c := range e.codeOK {
				e.codeOK[c] = e.inStrs(l.DictEntry(int32(c))) != e.neg
			}
		}
		return e.selCodes(l, rows, phys, out)
	case l.Typ == vec.Str:
		st, k := qc.Store, 0
		for _, i := range rows {
			if isNullAt(l, i) {
				continue
			}
			ref, in := l.StrRefAt(int(i)), false
			for _, v := range e.vals {
				if st.Equal(ref, vec.StrRef(v.cInt)) {
					in = true
					break
				}
			}
			if in != e.neg {
				out[k] = i
				k++
			}
		}
		return out[:k]
	}
	rows = e.dropNulls(l, rows)
	if len(rows) == 0 {
		return out[:0]
	}
	a := e.intsOf(0, l, rows, phys)
	return out[:selI64In(a, e.inInts, e.neg, rows, out)]
}

// inStrs reports whether a dictionary entry equals a list constant.
func (e *Expr) inStrs(entry []byte) bool {
	for _, v := range e.vals {
		if string(entry) == v.cStr {
			return true
		}
	}
	return false
}

// selLike selects the rows matching (or, for NOT LIKE, not matching) the
// pattern. A dictionary runs the pattern once per distinct string.
func (e *Expr) selLike(qc *QCtx, b *vec.Batch, rows []int32, phys int, out []int32) []int32 {
	l := e.l.eval(qc, b, rows, phys)
	want := e.kind == eLike
	if l.Enc == vec.EncDict {
		if e.newDict(l) {
			for c := range e.codeOK {
				e.codeOK[c] = e.like.match(l.DictEntry(int32(c))) == want
			}
		}
		return e.selCodes(l, rows, phys, out)
	}
	if e.scratch == nil {
		e.scratch = make([]byte, 0, 64)
	}
	k := 0
	for _, i := range rows {
		if isNullAt(l, i) {
			continue
		}
		var raw []byte
		raw, e.scratch = qc.Store.Raw(l.StrRefAt(int(i)), e.scratch)
		if e.like.match(raw) == want {
			out[k] = i
			k++
		}
	}
	return out[:k]
}

// selStrCmp compares string references row by row.
func (e *Expr) selStrCmp(st *strs.Store, l, r *vec.Vector, rows, out []int32) int {
	k := 0
	for _, i := range rows {
		if l.IsNull(int(i)) || r.IsNull(int(i)) {
			continue
		}
		lr, rr := l.StrRefAt(int(i)), r.StrRefAt(int(i))
		if lr == nullStrRef || rr == nullStrRef {
			continue
		}
		var v bool
		switch e.op {
		case opEQ:
			v = st.Equal(lr, rr)
		case opNE:
			v = !st.Equal(lr, rr)
		default:
			v = cmpHolds(e.op, st.Compare(lr, rr))
		}
		if v {
			out[k] = i
			k++
		}
	}
	return k
}

// selCodes selects the non-NULL rows of a dictionary vector whose code
// the verdict table accepts. Bit-packed codes are decoded once per
// vector like any packed integers.
func (e *Expr) selCodes(l *vec.Vector, rows []int32, phys int, out []int32) []int32 {
	rows = e.dropNulls(l, rows)
	if len(rows) == 0 {
		return out[:0]
	}
	if l.Codes != nil {
		return out[:selVerdict(e.codeOK, l.Codes, rows, out)]
	}
	return out[:selVerdict(e.codeOK, e.intsOf(0, l, rows, phys), rows, out)]
}

// newDict reports whether l's dictionary is not the one the per-code
// verdict table was built for, and then sizes the table for it; the
// caller rebuilds every verdict. Batches windowed out of one block share
// the same DictRefs slice, so the identity check amortizes the rebuild
// over the whole block; Scan gives every block a fresh slice, so a new
// block always rebuilds.
func (e *Expr) newDict(l *vec.Vector) bool {
	d := l.DictRefs
	if len(e.codeDict) == len(d) && len(d) > 0 && &e.codeDict[0] == &d[0] {
		return false
	}
	if cap(e.codeOK) < len(d) {
		e.codeOK = make([]bool, len(d))
	}
	e.codeOK = e.codeOK[:len(d)]
	e.codeDict = d
	return true
}

// dropNulls returns the rows where v is not NULL, compacted into scratch
// slot 0 (in place when rows already lives there).
func (e *Expr) dropNulls(v *vec.Vector, rows []int32) []int32 {
	if v.Nulls == nil || len(rows) == 0 {
		return rows
	}
	out := e.selScratch(0, len(rows))
	return out[:selBool(v.Nulls, nil, false, rows, out)]
}

// intsOf returns v's integer values indexed by physical row, valid at
// rows. Plain I64 data is returned as is; everything else is decoded into
// scratch slot i: every position up to the last row when the rows are
// dense enough, only the rows otherwise.
func (e *Expr) intsOf(i int, v *vec.Vector, rows []int32, phys int) []int64 {
	if v.Enc == vec.EncPlain && v.Typ == vec.I64 {
		return v.I64
	}
	hi := int(rows[len(rows)-1]) + 1
	if cap(e.ints[i]) < hi {
		e.ints[i] = make([]int64, hi, max(hi, vec.Size))
	}
	dst := e.ints[i][:hi]
	if denseSel(len(rows), phys) {
		v.IntsInto(dst)
	} else {
		v.IntRowsInto(rows, dst)
	}
	return dst
}

// selScratch returns scratch slot i with length n.
func (e *Expr) selScratch(i, n int) []int32 {
	e.sels[i] = growSel(e.sels[i], n)
	return e.sels[i]
}

// growSel returns s with length n, reallocated when its capacity is
// short.
func growSel(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n, max(n, vec.Size))
	}
	return s[:n]
}

// denseSel is the dense-versus-sparse rule of Section II-C: rows covering
// at least pack.FullProcessThreshold of the physical rows decode every
// position rather than gather through the selection.
func denseSel(n, phys int) bool {
	return n >= int(pack.FullProcessThreshold*float64(phys))
}

func isIntType(t vec.Type) bool {
	switch t {
	case vec.Bool, vec.I8, vec.I16, vec.I32, vec.I64:
		return true
	}
	return false
}

// isNullAt reports whether row r of v is NULL: a set null flag or, for a
// plain string vector, the NULL reference.
func isNullAt(v *vec.Vector, r int32) bool {
	return v.IsNull(int(r)) || (v.Typ == vec.Str && v.Enc == vec.EncPlain && v.Str[r] == nullStrRef)
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
