package exec

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"ocht/internal/core"
	"ocht/internal/vec"
)

// This file pins Expr.Select against a row-at-a-time reference: random
// predicate trees over columns in every encoding, evaluated in SQL's
// three-valued logic from the source values the vectors were built from.

type tv uint8 // three-valued truth

const (
	tvFalse tv = iota
	tvTrue
	tvNull
)

func tvOf(b bool) tv {
	if b {
		return tvTrue
	}
	return tvFalse
}

// refCol is one generated column: the vector under test and the values
// it encodes.
type refCol struct {
	meta Meta
	v    *vec.Vector
	ints []int64
	f64s []float64
	strs []string
	bool []bool
	null []bool
	pool []int64 // integer constants worth comparing against
}

// refPred is a generated predicate: the engine expression and its
// reference verdict per row.
type refPred struct {
	e    *Expr
	eval func(r int) tv
	desc string
}

var selWords = []string{"", "a", "ab", "abc", "b", "ba", "note 1", "note 12", "zz"}

var selPatterns = []string{"a%", "%b", "%note%", "ab", "%", "note 1%", "%a%c", ""}

// selGen builds one batch of columns and predicates over it.
type selGen struct {
	rng  *rand.Rand
	qc   *QCtx
	n    int
	cols []*refCol
}

// nulls draws a NULL mask: none, all, or a random share.
func (g *selGen) nulls() []bool {
	switch g.rng.Intn(6) {
	case 0, 1, 2:
		return nil
	case 3:
		m := make([]bool, g.n)
		for i := range m {
			m[i] = true
		}
		return m
	}
	m := make([]bool, g.n)
	p := g.rng.Float64()
	for i := range m {
		m[i] = g.rng.Float64() < p
	}
	return m
}

// intCol builds an integer column. width 0 picks a random encoding; a
// width in [1, 64] forces a packed vector of that width.
func (g *selGen) intCol(name string, width int) *refCol {
	c := &refCol{meta: Meta{Name: name, Type: vec.I64}, null: g.nulls()}
	c.meta.Nullable = c.null != nil
	enc := "packed"
	if width == 0 {
		enc = []string{"i8", "i16", "i32", "i64", "packed", "packed"}[g.rng.Intn(6)]
		width = 1 + g.rng.Intn(33)
		if g.rng.Intn(8) == 0 {
			width = 64
		}
	}
	var lo, span int64 // values lie in [lo, lo+span]
	switch enc {
	case "i8":
		lo, span = -60, 120
	case "i16":
		lo, span = -300, 600
	case "i32", "i64":
		lo, span = g.rng.Int63n(2000)-1000, 1+g.rng.Int63n(50)
	case "packed":
		lo, span = g.rng.Int63n(2000)-1000, int64(1)<<uint(min(width, 63))-1
		if width >= 62 { // keep lo+span inside int64, as storage does
			lo = math.MinInt64 / 2
		}
	}
	// A few distinct values, the domain ends among them, so that
	// comparisons and IN lists hit.
	distinct := []int64{lo, lo + span}
	for i := 0; i < 6; i++ {
		distinct = append(distinct, lo+int64(g.rng.Uint64()%(uint64(span)+1)))
	}
	c.ints = make([]int64, g.n)
	for i := range c.ints {
		c.ints[i] = distinct[g.rng.Intn(len(distinct))]
	}
	// Constants: the column's values, their neighbours, and values far
	// outside the pack domain.
	c.pool = append([]int64{math.MinInt64, math.MaxInt64, lo - 1, -1 << 40, 1 << 40}, distinct...)
	if lo+span < math.MaxInt64 {
		c.pool = append(c.pool, lo+span+1)
	}
	switch enc {
	case "i8":
		c.meta.Type = vec.I8
		c.v = vec.New(vec.I8, g.n)
		for i, x := range c.ints {
			c.v.I8[i] = int8(x)
		}
	case "i16":
		c.meta.Type = vec.I16
		c.v = vec.New(vec.I16, g.n)
		for i, x := range c.ints {
			c.v.I16[i] = int16(x)
		}
	case "i32":
		c.meta.Type = vec.I32
		c.v = vec.New(vec.I32, g.n)
		for i, x := range c.ints {
			c.v.I32[i] = int32(x)
		}
	case "i64":
		c.v = vec.New(vec.I64, g.n)
		copy(c.v.I64, c.ints)
	case "packed":
		offs := make([]uint64, g.n)
		for i, x := range c.ints {
			offs[i] = uint64(x) - uint64(lo)
		}
		c.v = &vec.Vector{Typ: vec.I64, Enc: vec.EncPacked, PackMin: lo}
		g.packInto(c.v, width, offs)
	}
	c.v.Nulls = c.null
	return c
}

// packInto lays offs out as a packed window of the given width at a
// random lane offset inside its words.
func (g *selGen) packInto(v *vec.Vector, width int, offs []uint64) {
	per := 64 / width
	off := g.rng.Intn(3 * per)
	words := make([]uint64, (off+len(offs))/per+1)
	for i := range words {
		words[i] = g.rng.Uint64() // garbage outside the window
	}
	mask := uint64(1)<<uint(width) - 1
	for i, o := range offs {
		j := off + i
		sh := uint(j%per) * uint(width)
		words[j/per] = words[j/per]&^(mask<<sh) | o<<sh
	}
	v.Packed, v.PackBits, v.PackOff, v.PackLen = words, width, off, len(offs)
}

// strCol builds a string column: plain references (NULL as a flag or
// as the NULL reference), or a dictionary with plain or bit-packed codes
// whose references are interned lazily or up front.
func (g *selGen) strCol(name string) *refCol {
	c := &refCol{meta: Meta{Name: name, Type: vec.Str}, null: g.nulls()}
	c.meta.Nullable = c.null != nil
	entries := append([]string(nil), selWords...)
	g.rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	entries = entries[:1+g.rng.Intn(len(entries))]
	codes := make([]int32, g.n)
	c.strs = make([]string, g.n)
	for i := range codes {
		codes[i] = int32(g.rng.Intn(len(entries)))
		c.strs[i] = entries[codes[i]]
	}
	switch g.rng.Intn(3) {
	case 0:
		c.v = vec.New(vec.Str, g.n)
		refNull := g.rng.Intn(2) == 0
		for i, s := range c.strs {
			c.v.Str[i] = g.qc.Store.Intern(s)
			if c.null != nil && c.null[i] && refNull {
				c.v.Str[i] = nullStrRef
			}
		}
		if !refNull {
			c.v.Nulls = c.null
		}
		return c
	case 1:
		c.v = &vec.Vector{Typ: vec.Str, Enc: vec.EncDict, Codes: codes}
	case 2:
		c.v = &vec.Vector{Typ: vec.Str, Enc: vec.EncDict}
		offs := make([]uint64, g.n)
		for i, x := range codes {
			offs[i] = uint64(x)
		}
		g.packInto(c.v, max(1, bits.Len(uint(len(entries)-1))), offs)
	}
	c.v.DictRefs = make([]vec.StrRef, len(entries))
	c.v.DictOffs = []int32{0}
	for i, s := range entries {
		c.v.DictBytes = append(c.v.DictBytes, s...)
		c.v.DictOffs = append(c.v.DictOffs, int32(len(c.v.DictBytes)))
		if g.rng.Intn(2) == 0 {
			c.v.DictRefs[i] = g.qc.Store.Intern(s)
		}
	}
	c.v.DictIntern = g.qc.Store
	c.v.Nulls = c.null
	return c
}

func (g *selGen) f64Col(name string) *refCol {
	c := &refCol{meta: Meta{Name: name, Type: vec.F64}, null: g.nulls()}
	c.meta.Nullable = c.null != nil
	c.v = vec.New(vec.F64, g.n)
	c.f64s = c.v.F64
	for i := range c.f64s {
		c.f64s[i] = float64(g.rng.Intn(9)) / 2
	}
	c.v.Nulls = c.null
	return c
}

func (g *selGen) boolCol(name string) *refCol {
	c := &refCol{meta: Meta{Name: name, Type: vec.Bool}, null: g.nulls()}
	c.meta.Nullable = c.null != nil
	c.v = vec.New(vec.Bool, g.n)
	c.bool = c.v.Bool
	for i := range c.bool {
		c.bool[i] = g.rng.Intn(2) == 0
	}
	c.v.Nulls = c.null
	return c
}

// newSelGen builds a batch of n rows: integer columns a and b (a packed
// at width when width > 0), string columns s and t, float f, Boolean z.
func newSelGen(seed int64, width int) *selGen {
	g := &selGen{rng: rand.New(rand.NewSource(seed)), qc: NewQCtx(core.All())}
	g.n = vec.MaxLen
	if g.rng.Intn(4) == 0 {
		g.n = 1 + g.rng.Intn(vec.MaxLen)
	}
	g.cols = []*refCol{g.intCol("a", width), g.intCol("b", 0), g.strCol("s"), g.strCol("t"), g.f64Col("f"), g.boolCol("z")}
	return g
}

func (g *selGen) schema() []Meta {
	m := make([]Meta, len(g.cols))
	for i, c := range g.cols {
		m[i] = c.meta
	}
	return m
}

func (g *selGen) col(name string) (*refCol, *Expr) {
	for i, c := range g.cols {
		if c.meta.Name == name {
			return c, ColIdx(g.schema(), i)
		}
	}
	panic(name)
}

func (c *refCol) isNull(r int) bool {
	return c.null != nil && c.null[r]
}

var selOps = []struct {
	op   cmpOp
	name string
	mk   func(l, r *Expr) *Expr
}{
	{opEQ, "=", Eq}, {opNE, "<>", Ne}, {opLT, "<", Lt}, {opLE, "<=", Le}, {opGT, ">", Gt}, {opGE, ">=", Ge},
}

func holds[T int64 | float64 | string](op cmpOp, a, b T) bool {
	switch op {
	case opEQ:
		return a == b
	case opNE:
		return a != b
	case opLT:
		return a < b
	case opLE:
		return a <= b
	case opGT:
		return a > b
	}
	return a >= b
}

func (g *selGen) intConst(c *refCol) int64 {
	if g.rng.Intn(3) == 0 {
		return c.pool[g.rng.Intn(len(c.pool))]
	}
	return c.ints[g.rng.Intn(len(c.ints))]
}

// leaf draws one comparison, IN, LIKE, IS NULL or Boolean-column leaf.
func (g *selGen) leaf() refPred {
	o := selOps[g.rng.Intn(len(selOps))]
	ic, ie := g.col([]string{"a", "b"}[g.rng.Intn(2)])
	sc, se := g.col([]string{"s", "t"}[g.rng.Intn(2)])
	switch g.rng.Intn(11) {
	case 0: // integer column against a constant, either side
		k := g.intConst(ic)
		if g.rng.Intn(4) == 0 {
			return refPred{o.mk(Int(k), ie), func(r int) tv {
				if ic.isNull(r) {
					return tvNull
				}
				return tvOf(holds(o.op, k, ic.ints[r]))
			}, fmt.Sprintf("%d %s %s", k, o.name, ic.meta.Name)}
		}
		return refPred{o.mk(ie, Int(k)), func(r int) tv {
			if ic.isNull(r) {
				return tvNull
			}
			return tvOf(holds(o.op, ic.ints[r], k))
		}, fmt.Sprintf("%s %s %d", ic.meta.Name, o.name, k)}
	case 1: // column against column
		a, ae := g.col("a")
		b, be := g.col("b")
		return refPred{o.mk(ae, be), func(r int) tv {
			if a.isNull(r) || b.isNull(r) {
				return tvNull
			}
			return tvOf(holds(o.op, a.ints[r], b.ints[r]))
		}, "a " + o.name + " b"}
	case 2: // computed operand, evaluated on the narrowed rows
		m := 1 + g.rng.Int63n(7)
		j := g.rng.Int63n(m)
		return refPred{o.mk(Mod(ie, Int(m)), Int(j)), func(r int) tv {
			if ic.isNull(r) {
				return tvNull
			}
			return tvOf(holds(o.op, ic.ints[r]%m, j))
		}, fmt.Sprintf("%s %% %d %s %d", ic.meta.Name, m, o.name, j)}
	case 3: // integer IN list
		var vals []*Expr
		set := map[int64]bool{}
		for i := 0; i < 1+g.rng.Intn(5); i++ {
			k := g.intConst(ic)
			vals = append(vals, Int(k))
			set[k] = true
		}
		return refPred{In(ie, vals...), func(r int) tv {
			if ic.isNull(r) {
				return tvNull
			}
			return tvOf(set[ic.ints[r]])
		}, fmt.Sprintf("%s IN %v", ic.meta.Name, set)}
	case 4: // string column against a constant, either side
		k := selWords[g.rng.Intn(len(selWords))]
		if g.rng.Intn(5) == 0 {
			k = "absent"
		}
		if g.rng.Intn(4) == 0 {
			return refPred{o.mk(Str(k), se), func(r int) tv {
				if sc.isNull(r) {
					return tvNull
				}
				return tvOf(holds(o.op, k, sc.strs[r]))
			}, fmt.Sprintf("%q %s %s", k, o.name, sc.meta.Name)}
		}
		return refPred{o.mk(se, Str(k)), func(r int) tv {
			if sc.isNull(r) {
				return tvNull
			}
			return tvOf(holds(o.op, sc.strs[r], k))
		}, fmt.Sprintf("%s %s %q", sc.meta.Name, o.name, k)}
	case 5: // string IN list
		var vals []*Expr
		set := map[string]bool{}
		for i := 0; i < 1+g.rng.Intn(4); i++ {
			k := selWords[g.rng.Intn(len(selWords))]
			vals = append(vals, Str(k))
			set[k] = true
		}
		return refPred{In(se, vals...), func(r int) tv {
			if sc.isNull(r) {
				return tvNull
			}
			return tvOf(set[sc.strs[r]])
		}, fmt.Sprintf("%s IN %v", sc.meta.Name, set)}
	case 6: // LIKE and NOT LIKE
		p := selPatterns[g.rng.Intn(len(selPatterns))]
		re := regexp.MustCompile("^" + strings.ReplaceAll(regexp.QuoteMeta(p), "%", ".*") + "$")
		not := g.rng.Intn(2) == 0
		e := Like(se, p)
		if not {
			e = NotLike(se, p)
		}
		return refPred{e, func(r int) tv {
			if sc.isNull(r) {
				return tvNull
			}
			return tvOf(re.MatchString(sc.strs[r]) != not)
		}, fmt.Sprintf("%s LIKE %q (not=%v)", sc.meta.Name, p, not)}
	case 7: // IS [NOT] NULL over any column
		c := g.cols[g.rng.Intn(len(g.cols))]
		_, ce := g.col(c.meta.Name)
		want := g.rng.Intn(2) == 0
		e := IsNull(ce)
		if !want {
			e = IsNotNull(ce)
		}
		return refPred{e, func(r int) tv { return tvOf(c.isNull(r) == want) },
			fmt.Sprintf("%s IS NULL == %v", c.meta.Name, want)}
	case 8: // float column
		f, fe := g.col("f")
		k := float64(g.rng.Intn(9)) / 2
		return refPred{o.mk(fe, F64Const(k)), func(r int) tv {
			if f.isNull(r) {
				return tvNull
			}
			return tvOf(holds(o.op, f.f64s[r], k))
		}, fmt.Sprintf("f %s %v", o.name, k)}
	case 9: // string column against string column
		s, s1 := g.col("s")
		t, t1 := g.col("t")
		return refPred{o.mk(s1, t1), func(r int) tv {
			if s.isNull(r) || t.isNull(r) {
				return tvNull
			}
			return tvOf(holds(o.op, s.strs[r], t.strs[r]))
		}, "s " + o.name + " t"}
	}
	z, ze := g.col("z")
	return refPred{ze, func(r int) tv {
		if z.isNull(r) {
			return tvNull
		}
		return tvOf(z.bool[r])
	}, "z"}
}

// pred draws a tree of AND, OR and NOT over leaves.
func (g *selGen) pred(depth int) refPred {
	if depth == 0 || g.rng.Intn(3) == 0 {
		return g.leaf()
	}
	switch g.rng.Intn(3) {
	case 0:
		l := g.pred(depth - 1)
		return refPred{Not(l.e), func(r int) tv {
			switch l.eval(r) {
			case tvTrue:
				return tvFalse
			case tvFalse:
				return tvTrue
			}
			return tvNull
		}, "NOT (" + l.desc + ")"}
	case 1:
		l, r := g.pred(depth-1), g.pred(depth-1)
		return refPred{And(l.e, r.e), func(i int) tv {
			a, b := l.eval(i), r.eval(i)
			if a == tvFalse || b == tvFalse {
				return tvFalse
			}
			if a == tvNull || b == tvNull {
				return tvNull
			}
			return tvTrue
		}, "(" + l.desc + ") AND (" + r.desc + ")"}
	}
	l, r := g.pred(depth-1), g.pred(depth-1)
	return refPred{Or(l.e, r.e), func(i int) tv {
		a, b := l.eval(i), r.eval(i)
		if a == tvTrue || b == tvTrue {
			return tvTrue
		}
		if a == tvNull || b == tvNull {
			return tvNull
		}
		return tvFalse
	}, "(" + l.desc + ") OR (" + r.desc + ")"}
}

var selShapes = []string{"empty", "dense", "sparse", "half", "last"}

// selection draws an input shape: empty, dense (no selection vector),
// sparse, half, or the single last row.
func (g *selGen) selection(shape string) []int32 {
	p := 0.1
	switch shape {
	case "empty":
		return []int32{}
	case "dense":
		return nil
	case "last":
		return []int32{int32(g.n - 1)}
	case "half":
		p = 0.5
	}
	var rows []int32
	for i := 0; i < g.n; i++ {
		if g.rng.Float64() < p {
			rows = append(rows, int32(i))
		}
	}
	return rows
}

// checkSelect runs several predicates over one generated batch through
// every input selection and compares Select and Eval with the reference.
func checkSelect(t *testing.T, seed int64, width int) {
	t.Helper()
	g := newSelGen(seed, width)
	vecs := make([]*vec.Vector, len(g.cols))
	for i, c := range g.cols {
		vecs[i] = c.v
	}
	sels := map[string][]int32{}
	for _, shape := range selShapes {
		sels[shape] = g.selection(shape)
	}
	for p := 0; p < 4; p++ {
		pr := g.pred(3)
		pr.e.intern(g.qc.Store)
		var out []int32
		for _, name := range selShapes {
			sel := sels[name]
			b := &vec.Batch{Vecs: vecs, Sel: sel, N: len(sel)}
			if sel == nil {
				b.N = g.n
			}
			rows := b.Rows()
			out = pr.e.Select(g.qc, b, rows, out)
			var want []int32
			for _, r := range rows {
				if pr.eval(int(r)) == tvTrue {
					want = append(want, r)
				}
			}
			if fmt.Sprint(out) != fmt.Sprint(want) {
				t.Fatalf("seed %d width %d, %s rows, %s:\nSelect %d rows %v\nwant   %d rows %v",
					seed, width, name, pr.desc, len(out), clip(out), len(want), clip(want))
			}
			v := pr.e.Eval(g.qc, b)
			k := 0
			for _, r := range rows {
				got := v.Bool[r] && !v.IsNull(int(r))
				hit := k < len(want) && want[k] == r
				if hit {
					k++
				}
				if got != hit {
					t.Fatalf("seed %d width %d, %s rows, %s: Eval row %d = %v, want %v",
						seed, width, name, pr.desc, r, got, hit)
				}
			}
		}
	}
}

func clip(s []int32) []int32 {
	if len(s) > 12 {
		return s[:12]
	}
	return s
}

// TestSelectMatchesReference sweeps random batches, and the packed
// column through every width from 1 to 33 and 64.
func TestSelectMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		checkSelect(t, seed, 0)
	}
	for width := 1; width <= 64; width++ {
		if width > 33 && width < 64 {
			continue
		}
		for seed := int64(0); seed < 4; seed++ {
			checkSelect(t, 1000+seed, width)
		}
	}
}

// FuzzSelect drives the same generator from fuzzed seeds and widths.
func FuzzSelect(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(0))
		f.Add(seed, uint8(1+seed*9))
	}
	f.Fuzz(func(t *testing.T, seed int64, width uint8) {
		checkSelect(t, seed, int(width)%65)
	})
}
