package exec

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"ocht/internal/domain"
	"ocht/internal/strs"
	"ocht/internal/vec"
)

// Meta describes one column of an operator's output.
type Meta struct {
	Name     string
	Type     vec.Type
	Dom      domain.D
	Nullable bool

	// Distinct is an upper bound on the column's distinct value count, 0
	// when unknown. Scans derive it from per-block dictionary sizes for
	// string columns (whose Dom carries no cardinality); it feeds the
	// group-count estimate behind partition-width choice and the
	// partition-wise parallel aggregation gate, never result layouts.
	Distinct int64
}

type exprKind uint8

const (
	eCol exprKind = iota
	eConstInt
	eConstStr
	eConstF64
	eAdd
	eSub
	eMul
	eDiv
	eMod
	eCmp // with cmpOp
	eAnd
	eOr
	eNot
	eIsNull
	eNotNull
	eLike
	eNotLike
	eCase // cond ? then : else
	eF64  // int -> float conversion
	eSubstr
	eIn // l IN (vals), or NOT IN when neg
)

type cmpOp uint8

const (
	opEQ cmpOp = iota
	opNE
	opLT
	opLE
	opGT
	opGE
)

// flip mirrors op for swapped operands: c < x is x > c.
func (op cmpOp) flip() cmpOp {
	switch op {
	case opLT:
		return opGT
	case opLE:
		return opGE
	case opGT:
		return opLT
	case opGE:
		return opLE
	}
	return op // EQ and NE are symmetric
}

// inverse is the operator selecting exactly the non-NULL rows op rejects:
// NOT (x < c) is x >= c.
func (op cmpOp) inverse() cmpOp {
	switch op {
	case opEQ:
		return opNE
	case opNE:
		return opEQ
	case opLT:
		return opGE
	case opLE:
		return opGT
	case opGT:
		return opLE
	}
	return opLT // opGE
}

// Expr is a bound scalar expression over an operator's output schema.
// Expressions carry their derived domain (Section II-A: "if a value stems
// from a computation, the domain minimum and maximum can be derived bottom
// up").
type Expr struct {
	kind     exprKind
	op       cmpOp
	col      int
	cInt     int64
	cF64     float64
	cStr     string
	like     likePattern
	l, r, el *Expr  // operands; el is CASE's else branch
	scratch  []byte // reusable string buffer (LIKE, SUBSTRING)

	// IN lists: the constant values, the integer ones sorted for the
	// membership test, and neg for NOT IN.
	vals   []*Expr
	inInts []int64
	neg    bool

	// Per-node selection and integer-decode scratch (see selScratch and
	// intsOf), grown on first use.
	sels [4][]int32
	ints [2][]int64

	// Per-dictionary verdict table for comparisons, IN and LIKE over
	// dictionary-coded vectors: one bool per code, rebuilt only when the
	// block dictionary (identified by codeDict) changes.
	codeOK   []bool
	codeDict []vec.StrRef

	typ      vec.Type
	dom      domain.D
	nullable bool
	distinct int64 // column references: Meta.Distinct, else 0

	buf *vec.Vector // reusable output buffer
}

// Type returns the expression's output type.
func (e *Expr) Type() vec.Type { return e.typ }

// Dom returns the expression's derived domain.
func (e *Expr) Dom() domain.D { return e.dom }

// Nullable reports whether the expression can produce NULL.
func (e *Expr) Nullable() bool { return e.nullable }

// DistinctBound returns an upper bound on the expression's distinct value
// count, 0 when unknown. Only column references carry one (from the
// scan's per-block dictionary metadata); derived expressions estimate
// through their domain instead.
func (e *Expr) DistinctBound() int64 { return e.distinct }

// Col references column i of the input schema.
func Col(schema []Meta, name string) *Expr {
	for i, m := range schema {
		if m.Name == name {
			return &Expr{kind: eCol, col: i, typ: m.Type, dom: m.Dom, nullable: m.Nullable, distinct: m.Distinct}
		}
	}
	panic(fmt.Sprintf("exec: unknown column %q in schema %v", name, names(schema)))
}

// ColIdx references column i of the input schema by position.
func ColIdx(schema []Meta, i int) *Expr {
	m := schema[i]
	return &Expr{kind: eCol, col: i, typ: m.Type, dom: m.Dom, nullable: m.Nullable, distinct: m.Distinct}
}

func names(schema []Meta) []string {
	out := make([]string, len(schema))
	for i, m := range schema {
		out[i] = m.Name
	}
	return out
}

// Int is an integer literal.
func Int(v int64) *Expr {
	return &Expr{kind: eConstInt, cInt: v, typ: vec.I64, dom: domain.Const(v)}
}

// F64Const is a float literal.
func F64Const(v float64) *Expr {
	return &Expr{kind: eConstF64, cF64: v, typ: vec.F64, dom: domain.Unknown}
}

// Str is a string literal. The literal is interned per query at Open time
// (query constants get USSR priority, Section IV-D).
func Str(s string) *Expr {
	return &Expr{kind: eConstStr, cStr: s, typ: vec.Str, dom: domain.Unknown}
}

func arith(kind exprKind, l, r *Expr) *Expr {
	e := &Expr{kind: kind, l: l, r: r, nullable: l.nullable || r.nullable}
	if l.typ == vec.F64 || r.typ == vec.F64 {
		e.typ = vec.F64
		e.dom = domain.Unknown
		return e
	}
	if l.typ == vec.I128 || r.typ == vec.I128 {
		// Wide operands (merged SUM partials) stay wide: addition and
		// subtraction are exact in 128 bits; multiplicative ops compute on
		// the wrapped low 64 bits, matching int64 overflow semantics.
		e.typ = vec.I128
		e.dom = domain.Unknown
		return e
	}
	e.typ = vec.I64
	switch kind {
	case eAdd:
		e.dom = domain.Add(l.dom, r.dom)
	case eSub:
		e.dom = domain.Sub(l.dom, r.dom)
	case eMul:
		e.dom = domain.Mul(l.dom, r.dom)
	case eDiv:
		// Division bounds: conservative, derived only for positive
		// constant divisors (the year-extraction pattern date/10000).
		if r.kind == eConstInt && r.cInt > 0 && l.dom.Valid {
			e.dom = domain.New(floorDiv(l.dom.Min, r.cInt), floorDiv(l.dom.Max, r.cInt))
		} else {
			e.dom = domain.Unknown
		}
	case eMod:
		if r.kind == eConstInt && r.cInt > 0 {
			e.dom = domain.New(0, r.cInt-1)
			if l.dom.Valid && l.dom.Min < 0 {
				e.dom = domain.New(-(r.cInt - 1), r.cInt-1)
			}
		} else {
			e.dom = domain.Unknown
		}
	}
	return e
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// Add returns l+r.
func Add(l, r *Expr) *Expr { return arith(eAdd, l, r) }

// Sub returns l-r.
func Sub(l, r *Expr) *Expr { return arith(eSub, l, r) }

// Mul returns l*r.
func Mul(l, r *Expr) *Expr { return arith(eMul, l, r) }

// Div returns l/r (integer or float division by type).
func Div(l, r *Expr) *Expr { return arith(eDiv, l, r) }

// Mod returns l%r.
func Mod(l, r *Expr) *Expr { return arith(eMod, l, r) }

// ToF64 converts an integer expression to float64.
func ToF64(l *Expr) *Expr {
	return &Expr{kind: eF64, l: l, typ: vec.F64, dom: domain.Unknown, nullable: l.nullable}
}

// cmp builds a comparison with any lone constant on the right, the
// operand order every select kernel expects.
func cmp(op cmpOp, l, r *Expr) *Expr {
	if l.isConst() && !r.isConst() {
		l, r, op = r, l, op.flip()
	}
	c := pred(eCmp, l, r)
	c.op = op
	return c
}

func (e *Expr) isConst() bool {
	return e.kind == eConstInt || e.kind == eConstF64 || e.kind == eConstStr
}

// Eq returns l == r.
func Eq(l, r *Expr) *Expr { return cmp(opEQ, l, r) }

// Ne returns l != r.
func Ne(l, r *Expr) *Expr { return cmp(opNE, l, r) }

// Lt returns l < r.
func Lt(l, r *Expr) *Expr { return cmp(opLT, l, r) }

// Le returns l <= r.
func Le(l, r *Expr) *Expr { return cmp(opLE, l, r) }

// Gt returns l > r.
func Gt(l, r *Expr) *Expr { return cmp(opGT, l, r) }

// Ge returns l >= r.
func Ge(l, r *Expr) *Expr { return cmp(opGE, l, r) }

// Between returns lo <= e AND e <= hi.
func Between(e, lo, hi *Expr) *Expr { return And(Ge(e, lo), Le(e, hi)) }

// And returns l AND r.
func And(l, r *Expr) *Expr { return pred(eAnd, l, r) }

// Or returns l OR r.
func Or(l, r *Expr) *Expr { return pred(eOr, l, r) }

// Not returns NOT l. The negation is pushed to the leaves when the
// expression is built, so that it keeps SQL's three-valued logic: De
// Morgan over AND and OR, the inverse operator for a comparison, LIKE and
// NOT LIKE, IS NULL and IS NOT NULL, IN and NOT IN swap, and a double
// negation cancels. Each leaf then rejects a NULL operand in both forms.
// What remains an eNot node negates a Boolean value and selects no NULL
// row either.
func Not(l *Expr) *Expr {
	switch l.kind {
	case eNot:
		return l.l
	case eAnd:
		return Or(Not(l.l), Not(l.r))
	case eOr:
		return And(Not(l.l), Not(l.r))
	case eCmp:
		return cmp(l.op.inverse(), l.l, l.r)
	case eLike:
		return likeExpr(eNotLike, l.l, l.like)
	case eNotLike:
		return likeExpr(eLike, l.l, l.like)
	case eIsNull:
		return IsNotNull(l.l)
	case eNotNull:
		return IsNull(l.l)
	case eIn:
		n := pred(eIn, l.l, nil)
		n.vals, n.inInts, n.neg = l.vals, l.inInts, !l.neg
		return n
	}
	return pred(eNot, l, nil)
}

// pred builds a Boolean node.
func pred(kind exprKind, l, r *Expr) *Expr {
	return &Expr{kind: kind, l: l, r: r, typ: vec.Bool, dom: domain.New(0, 1)}
}

// IsNull tests l IS NULL.
func IsNull(l *Expr) *Expr { return pred(eIsNull, l, nil) }

// IsNotNull tests l IS NOT NULL.
func IsNotNull(l *Expr) *Expr { return pred(eNotNull, l, nil) }

// In returns e IN (vals...). An integer operand against integer
// constants, or a string operand against string constants, is one
// membership node; any other list is e = v1 OR e = v2 OR ...
func In(e *Expr, vals ...*Expr) *Expr {
	if in := inList(e, vals); in != nil {
		return in
	}
	out := Eq(e, vals[0])
	for _, v := range vals[1:] {
		out = Or(out, Eq(e, v))
	}
	return out
}

func inList(e *Expr, vals []*Expr) *Expr {
	want := eConstInt
	switch e.typ {
	case vec.Str:
		want = eConstStr
	case vec.F64, vec.I128:
		return nil
	}
	in := pred(eIn, e, nil)
	for _, v := range vals {
		if v.kind != want {
			return nil
		}
		in.vals = append(in.vals, v)
		if want == eConstInt {
			in.inInts = append(in.inInts, v.cInt)
		}
	}
	slices.Sort(in.inInts)
	return in
}

// Like matches a SQL LIKE pattern with % wildcards (no _ support — the
// TPC-H and BI query texts only use %).
func Like(l *Expr, pattern string) *Expr { return likeExpr(eLike, l, compileLike(pattern)) }

// NotLike is NOT (l LIKE pattern).
func NotLike(l *Expr, pattern string) *Expr { return likeExpr(eNotLike, l, compileLike(pattern)) }

func likeExpr(kind exprKind, l *Expr, p likePattern) *Expr {
	e := pred(kind, l, nil)
	e.like = p
	return e
}

// Substr returns the first n bytes of a string expression (SQL
// substring(e, 1, n)), interned into the query's string store.
func Substr(l *Expr, n int) *Expr {
	return &Expr{kind: eSubstr, l: l, cInt: int64(n), typ: vec.Str, nullable: l.nullable}
}

// Case returns CASE WHEN cond THEN then ELSE els END.
func Case(cond, then, els *Expr) *Expr {
	e := &Expr{kind: eCase, l: then, r: cond, el: els,
		typ: then.typ, nullable: then.nullable || els.nullable}
	if then.typ == vec.F64 || els.typ == vec.F64 {
		e.typ = vec.F64
		e.dom = domain.Unknown
	} else {
		e.dom = domain.Union(then.dom, els.dom)
	}
	return e
}

type likePattern struct {
	segments    []string
	startAnchor bool
	endAnchor   bool
}

func compileLike(p string) likePattern {
	lp := likePattern{
		startAnchor: !strings.HasPrefix(p, "%"),
		endAnchor:   !strings.HasSuffix(p, "%"),
	}
	for _, seg := range strings.Split(p, "%") {
		if seg != "" {
			lp.segments = append(lp.segments, seg)
		}
	}
	return lp
}

func (lp likePattern) match(s []byte) bool {
	segs := lp.segments
	if len(segs) == 0 {
		// Only the empty pattern has neither a segment nor a %.
		return len(s) == 0 || !lp.startAnchor
	}
	if lp.startAnchor {
		if len(s) < len(segs[0]) || string(s[:len(segs[0])]) != segs[0] {
			return false
		}
		s = s[len(segs[0]):]
		segs = segs[1:]
	}
	endSeg := ""
	if lp.endAnchor && len(segs) > 0 {
		endSeg = segs[len(segs)-1]
		segs = segs[:len(segs)-1]
	}
	for _, seg := range segs {
		i := bytes.Index(s, []byte(seg))
		if i < 0 {
			return false
		}
		s = s[i+len(seg):]
	}
	if lp.endAnchor {
		if endSeg == "" {
			// The pattern had no % at all: the prefix must consume
			// everything.
			return len(s) == 0
		}
		return len(s) >= len(endSeg) && string(s[len(s)-len(endSeg):]) == endSeg
	}
	return true
}

// intern resolves the string constants of an expression tree at query
// open. Query-text constants get USSR insertion priority (Section IV-D)
// because this runs before any scan interns a string.
func (e *Expr) intern(st *strs.Store) {
	if e == nil {
		return
	}
	if e.kind == eConstStr {
		e.cInt = int64(st.Intern(e.cStr))
	}
	e.l.intern(st)
	e.r.intern(st)
	e.el.intern(st)
	for _, v := range e.vals {
		v.intern(st)
	}
}
