package exec

import (
	"testing"

	"ocht/internal/core"
	"ocht/internal/domain"
	"ocht/internal/vec"
)

func likeMatches(pattern, s string) bool {
	return compileLike(pattern).match([]byte(s))
}

func TestLikePatterns(t *testing.T) {
	cases := []struct {
		pattern string
		s       string
		want    bool
	}{
		{"PROMO%", "PROMO BURNISHED TIN", true},
		{"PROMO%", "STANDARD PROMO", false},
		{"%BRASS", "LARGE POLISHED BRASS", true},
		{"%BRASS", "BRASS PLATED TIN", false},
		{"%green%", "dark green metallic", true},
		{"%green%", "greenish", true},
		{"%green%", "red blue", false},
		{"%special%requests%", "very special case requests pending", true},
		{"%special%requests%", "requests special", false}, // order matters
		{"forest%", "forest green", true},
		{"forest%", "the forest", false},
		{"MEDIUM POLISHED%", "MEDIUM POLISHED TIN", true},
		{"MEDIUM POLISHED%", "MEDIUM PLATED TIN", false},
		{"%", "anything", true},
		{"%", "", true},
		{"", "", true},
		{"", "a", false},
		{"abc", "abc", true},
		{"abc", "abcd", false},
		{"a%c", "abbbc", true},
		{"a%c", "abbb", false},
		{"a%b%c", "aXbYc", true},
		{"a%b%c", "acb", false},
	}
	for _, c := range cases {
		if got := likeMatches(c.pattern, c.s); got != c.want {
			t.Errorf("LIKE %q on %q = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}

func TestExprDomains(t *testing.T) {
	schema := []Meta{
		{Name: "a", Type: vec.I64, Dom: domain.New(-4, 42)},
		{Name: "b", Type: vec.I32, Dom: domain.New(3, 1000)},
	}
	a, b := Col(schema, "a"), Col(schema, "b")
	if got := Add(a, b).Dom(); got != domain.New(-1, 1042) {
		t.Errorf("Add dom %v", got)
	}
	if got := Sub(a, b).Dom(); got != domain.New(-1004, 39) {
		t.Errorf("Sub dom %v", got)
	}
	if got := Mul(a, Int(10)).Dom(); got != domain.New(-40, 420) {
		t.Errorf("Mul dom %v", got)
	}
	if got := Div(b, Int(100)).Dom(); got != domain.New(0, 10) {
		t.Errorf("Div dom %v", got)
	}
	if got := Mod(a, Int(7)).Dom(); got != domain.New(-6, 6) {
		t.Errorf("Mod dom %v", got)
	}
	if got := Case(Eq(a, Int(1)), a, Int(0)).Dom(); got != domain.New(-4, 42) {
		t.Errorf("Case dom %v", got)
	}
	if Eq(a, b).Type() != vec.Bool {
		t.Error("cmp type")
	}
}

// evalBatch builds a one-column batch and evaluates e for all rows.
func evalBatch(t *testing.T, e *Expr, col *vec.Vector, n int) *vec.Vector {
	t.Helper()
	qc := NewQCtx(core.All())
	e.intern(qc.Store)
	b := &vec.Batch{Vecs: []*vec.Vector{col}, N: n}
	return e.Eval(qc, b)
}

func TestArithmeticEval(t *testing.T) {
	schema := []Meta{{Name: "x", Type: vec.I64, Dom: domain.New(0, 100)}}
	col := vec.New(vec.I64, 4)
	col.I64 = []int64{0, 7, 50, 100}
	x := Col(schema, "x")
	out := evalBatch(t, Add(Mul(x, Int(3)), Int(1)), col, 4)
	want := []int64{1, 22, 151, 301}
	for i, w := range want {
		if out.I64[i] != w {
			t.Errorf("row %d: %d want %d", i, out.I64[i], w)
		}
	}
	// Division by zero yields NULL, not a panic.
	out = evalBatch(t, Div(Int(10), Sub(Col(schema, "x"), Col(schema, "x"))), col, 4)
	if !out.IsNull(0) {
		t.Error("x/0 must be NULL")
	}
}

// TestDivisionNullability checks that Div and Mod are nullable exactly
// when the divisor is, or may be zero: a constant non-zero divisor (the
// year extraction date / 10000) or an integer domain without 0 keeps the
// result non-nullable.
func TestDivisionNullability(t *testing.T) {
	schema := []Meta{
		{Name: "pos", Type: vec.I64, Dom: domain.New(1, 100)},
		{Name: "nat", Type: vec.I64, Dom: domain.New(0, 100)},
		{Name: "f", Type: vec.F64, Dom: domain.Unknown},
		{Name: "n", Type: vec.I64, Dom: domain.New(1, 100), Nullable: true},
	}
	pos, nat, f, n := Col(schema, "pos"), Col(schema, "nat"), Col(schema, "f"), Col(schema, "n")
	for _, c := range []struct {
		name string
		e    *Expr
		want bool
	}{
		{"nat / 10000", Div(nat, Int(10000)), false},
		{"nat % 7", Mod(nat, Int(7)), false},
		{"nat / pos", Div(nat, pos), false},
		{"f / 7.0", Div(f, F64Const(7)), false},
		{"pos / nat", Div(pos, nat), true},
		{"pos % nat", Mod(pos, nat), true},
		{"pos / 0", Div(pos, Int(0)), true},
		{"pos / n", Div(pos, n), true},
		{"pos / f", Div(pos, f), true},
		{"f / 0.0", Div(f, F64Const(0)), true},
		{"pos * nat", Mul(pos, nat), false},
	} {
		if got := c.e.Nullable(); got != c.want {
			t.Errorf("%s: nullable %v, want %v", c.name, got, c.want)
		}
	}
}

func TestFloatEval(t *testing.T) {
	schema := []Meta{{Name: "x", Type: vec.I64, Dom: domain.New(1, 10)}}
	col := vec.New(vec.I64, 2)
	col.I64 = []int64{4, 8}
	e := Div(ToF64(Col(schema, "x")), F64Const(2))
	out := evalBatch(t, e, col, 2)
	if out.F64[0] != 2 || out.F64[1] != 4 {
		t.Errorf("float eval: %v", out.F64[:2])
	}
}

func TestNullPropagation(t *testing.T) {
	schema := []Meta{{Name: "x", Type: vec.I64, Dom: domain.New(0, 10), Nullable: true}}
	col := vec.New(vec.I64, 3)
	col.I64 = []int64{1, 2, 3}
	col.Nulls = []bool{false, true, false}
	x := Col(schema, "x")

	sum := evalBatch(t, Add(x, Int(1)), col, 3)
	if !sum.IsNull(1) || sum.IsNull(0) {
		t.Error("arithmetic null propagation")
	}
	cmp := evalBatch(t, Gt(x, Int(0)), col, 3)
	if cmp.Bool[1] {
		t.Error("NULL > 0 must be false")
	}
	isn := evalBatch(t, IsNull(x), col, 3)
	if !isn.Bool[1] || isn.Bool[0] {
		t.Error("IS NULL")
	}
}

func TestSubstrEval(t *testing.T) {
	qc := NewQCtx(core.All())
	schema := []Meta{{Name: "s", Type: vec.Str}}
	col := vec.New(vec.Str, 2)
	col.Str[0] = qc.Store.Intern("hello world")
	col.Str[1] = qc.Store.Intern("a")
	e := Substr(Col(schema, "s"), 5)
	e.intern(qc.Store)
	b := &vec.Batch{Vecs: []*vec.Vector{col}, N: 2}
	out := e.Eval(qc, b)
	if qc.Store.Get(out.Str[0]) != "hello" {
		t.Errorf("substr: %q", qc.Store.Get(out.Str[0]))
	}
	if qc.Store.Get(out.Str[1]) != "a" {
		t.Error("short strings pass through")
	}
}

func TestStrEqualityWithConstant(t *testing.T) {
	qc := NewQCtx(core.All())
	schema := []Meta{{Name: "s", Type: vec.Str}}
	col := vec.New(vec.Str, 3)
	col.Str[0] = qc.Store.Intern("north")
	col.Str[1] = qc.Store.Intern("south")
	col.Str[2] = qc.Store.Intern("north")
	e := Eq(Col(schema, "s"), Str("north"))
	e.intern(qc.Store)
	b := &vec.Batch{Vecs: []*vec.Vector{col}, N: 3}
	out := e.Eval(qc, b)
	if !out.Bool[0] || out.Bool[1] || !out.Bool[2] {
		t.Error("string equality")
	}
	// Constant interning means the comparison hits the USSR fast path.
	qc.Store.ResetCounters()
	e.Eval(qc, b)
	if qc.Store.EqualFast != 3 || qc.Store.EqualSlow != 0 {
		t.Errorf("expected all-fast comparisons: fast=%d slow=%d",
			qc.Store.EqualFast, qc.Store.EqualSlow)
	}
}

func TestColUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Col([]Meta{{Name: "a"}}, "zzz")
}
