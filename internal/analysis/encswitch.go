package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// encNames are the three vector encodings every dispatch must account for.
var encNames = []string{"EncPlain", "EncDict", "EncPacked"}

// encPayloadFields are the Vector payload slices whose raw indexing is only
// meaningful for specific encodings: the typed slices (nil under EncDict /
// EncPacked), the dictionary code slice (nil under EncPlain and for
// bit-packed code columns), and the packed words. Bool/F64/I128 are absent:
// no encoding applies to them, plain access is always safe.
var encPayloadFields = map[string]bool{
	"Str":    true,
	"I8":     true,
	"I16":    true,
	"I32":    true,
	"I64":    true,
	"Codes":  true,
	"Packed": true,
}

// lazyDictFields are the EncDict fields a consumer must not read raw: a
// block view interns a dictionary entry the first time a row reads it, so
// an unread DictRefs entry is still 0, and DictBytes/DictOffs alias the
// scan's decode scratch. Vector.DictRef / StrRefAt fill the code table and
// Vector.DictEntry slices an entry. Taking the table whole (identity
// checks, windowing) is fine; indexing it, slicing it or ranging over its
// values is not.
var lazyDictFields = map[string]bool{
	"DictRefs":  true,
	"DictBytes": true,
	"DictOffs":  true,
}

// encConsumerPackages are where batch vectors arrive from scans still in
// their stored encoding, so raw payload access needs proof of plainness.
var encConsumerPackages = []string{
	"internal/exec",
	"internal/agg",
	"internal/join",
}

// materializerNames are the seed materializers: a vector assigned from one
// of these calls is plain by contract. Wrappers (exec.ensureBuf and
// friends) are discovered by the plain-result fact below.
var materializerNames = map[string]bool{
	"Materialize": true, // (*vec.Vector).Materialize
	"ensurePlain": true, // exec's late-materialization boundary
	"EnsurePlain": true,
	"New":         true, // vec.New allocates a plain vector
	"NewBatch":    true,
}

// encodedSrcFact marks a function that may return a batch-sourced vector
// (one that can still carry a stored encoding) — exec.Expr.Eval is the
// canonical case: for a column expression it passes the scan's zero-copy
// view straight through.
type encodedSrcFact struct{}

func (encodedSrcFact) AFact() {}

// plainResultFact marks a function whose vector results are always plain
// (every return is a materializer result or a fresh allocation), so
// assigning from it clears the encoded taint.
type plainResultFact struct{}

func (plainResultFact) AFact() {}

// EncSwitch enforces the compressed-execution dispatch invariant
// (PAPER.md's optimistic compression: a plain-looking vector may be dict
// codes or packed words):
//
//   - every `switch x.Enc` must cover EncPlain/EncDict/EncPacked or carry
//     a default clause;
//   - an if/else-if chain dispatching on .Enc equality (two or more arms)
//     must end in an else or cover all three encodings — a single
//     fast-path guard (`if v.Enc == EncPacked { ...; return }`) is fine;
//   - in the consumer packages, the lazily interned dictionary of an
//     EncDict view (DictRefs, DictBytes, DictOffs) is never indexed,
//     sliced or ranged over by value, whatever the guards: entries are
//     read through DictRef/StrRefAt and DictEntry;
//   - in the consumer packages, raw payload indexing (v.Str[i], v.Codes,
//     v.I64, v.Packed...) of a vector that arrived from a batch
//     (b.Vecs[i], or a call carrying the encoded-source fact, e.g.
//     Expr.Eval) must be dominated by an encoding branch on that vector or
//     by a materializer call (ensurePlain, Materialize, vec.New — or any
//     function the plain-result fact marks, discovered cross-package).
var EncSwitch = &Analyzer{
	Name: "encswitch",
	Doc: "flags non-exhaustive dispatch over vec.Vector.Enc, raw payload " +
		"access to possibly-encoded batch vectors without a dominating " +
		"encoding branch or materializer call, and raw reads of a lazily " +
		"interned dictionary",
	Run: runEncSwitch,
}

func runEncSwitch(pass *Pass) {
	for _, f := range pass.Files {
		checkEncDispatch(pass, f)
	}
	if !pass.PathHasSuffix(encConsumerPackages...) {
		return
	}
	// Phase 1: derive encoded-source / plain-result facts for this
	// package's functions, iterating to a fixpoint so declaration order
	// inside the package does not matter.
	for i := 0; i < 5; i++ {
		changed := false
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					if deriveEncFacts(pass, fd) {
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
	// Phase 2: check payload accesses.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w := &encWalker{pass: pass, state: map[string]int{}, report: true}
				w.block(fd.Body, nil)
			}
		}
	}
}

// --- dispatch exhaustiveness ---

// checkEncDispatch flags non-exhaustive switches and if-chains over Enc.
func checkEncDispatch(pass *Pass, f *ast.File) {
	// else-if statements are visited through their parent chain.
	elseIfs := map[*ast.IfStmt]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if ifs, ok := n.(*ast.IfStmt); ok {
			if child, ok := ifs.Else.(*ast.IfStmt); ok {
				elseIfs[child] = true
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.SwitchStmt:
			checkEncSwitch(pass, t)
		case *ast.IfStmt:
			if !elseIfs[t] {
				checkEncIfChain(pass, t)
			}
		}
		return true
	})
}

func isEncodingType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Encoding"
}

// encConstName returns the Enc* constant name an expression denotes, or "".
func encConstName(e ast.Expr) string {
	name := ""
	switch t := e.(type) {
	case *ast.Ident:
		name = t.Name
	case *ast.SelectorExpr:
		name = t.Sel.Name
	}
	for _, enc := range encNames {
		if name == enc {
			return enc
		}
	}
	return ""
}

func checkEncSwitch(pass *Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil || !isEncodingType(pass.TypeOf(sw.Tag)) {
		return
	}
	covered := map[string]bool{}
	for _, c := range sw.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			return // default clause: exhaustive by construction
		}
		for _, e := range cc.List {
			if name := encConstName(e); name != "" {
				covered[name] = true
			}
		}
	}
	if missing := missingEncs(covered); len(missing) > 0 {
		pass.Reportf(sw.Pos(),
			"switch over %s does not handle %s and has no default; a plain-looking vector may be dict codes or packed words — cover every encoding or materialize first",
			exprKey(sw.Tag), strings.Join(missing, ", "))
	}
}

// checkEncIfChain inspects an if/else-if chain whose conditions are Enc
// equality tests. Chains of length one are guards, not dispatches.
func checkEncIfChain(pass *Pass, ifs *ast.IfStmt) {
	covered := map[string]bool{}
	arms := 0
	cur := ifs
	for {
		name, ok := encEqualityCond(pass, cur.Cond)
		if !ok {
			return // mixed conditions: not a pure encoding dispatch
		}
		covered[name] = true
		arms++
		switch e := cur.Else.(type) {
		case *ast.IfStmt:
			cur = e
			continue
		case nil:
			if arms >= 2 {
				if missing := missingEncs(covered); len(missing) > 0 {
					pass.Reportf(ifs.Pos(),
						"encoding dispatch handles only %d of 3 encodings (missing %s) and has no else; add the remaining arms or a materializing fallback",
						len(covered), strings.Join(missing, ", "))
				}
			}
			return
		default:
			return // final else: every encoding lands somewhere
		}
	}
}

// encEqualityCond matches `x.Enc == EncFoo` (either operand order).
func encEqualityCond(pass *Pass, cond ast.Expr) (string, bool) {
	b, ok := cond.(*ast.BinaryExpr)
	if !ok || b.Op != token.EQL {
		return "", false
	}
	if !isEncodingType(pass.TypeOf(b.X)) {
		return "", false
	}
	if name := encConstName(b.Y); name != "" {
		return name, true
	}
	if name := encConstName(b.X); name != "" {
		return name, true
	}
	return "", false
}

func missingEncs(covered map[string]bool) []string {
	var missing []string
	for _, enc := range encNames {
		if !covered[enc] {
			missing = append(missing, enc)
		}
	}
	sort.Strings(missing)
	return missing
}

// --- payload-access taint tracking ---

const (
	taintNone = iota
	taintEncoded
	taintPlain
)

// encWalker walks one function body in source order, tracking which
// vector-typed expressions are possibly encoded (batch-sourced) or proven
// plain (materializer results), and which enclosing branches guard on the
// vector's encoding.
type encWalker struct {
	pass   *Pass
	state  map[string]int // exprKey -> taint
	report bool           // phase 2 reports; phase 1 only derives facts

	sawVecReturn  bool
	allPlainRets  bool
	sawEncodedRet bool
}

// deriveEncFacts runs the tracking walk without reporting and exports
// facts about fd. Returns whether a new fact appeared.
func deriveEncFacts(pass *Pass, fd *ast.FuncDecl) bool {
	w := &encWalker{pass: pass, state: map[string]int{}, allPlainRets: true}
	w.block(fd.Body, nil)
	obj := pass.Info.Defs[fd.Name]
	if obj == nil {
		return false
	}
	changed := false
	if w.sawEncodedRet && !pass.HasObjectFact(obj, &encodedSrcFact{}) {
		pass.ExportObjectFact(obj, &encodedSrcFact{})
		changed = true
	}
	if w.sawVecReturn && w.allPlainRets && !w.sawEncodedRet && !pass.HasObjectFact(obj, &plainResultFact{}) {
		pass.ExportObjectFact(obj, &plainResultFact{})
		changed = true
	}
	return changed
}

func (w *encWalker) block(b *ast.BlockStmt, guards []string) {
	for _, s := range b.List {
		w.stmt(s, guards)
	}
}

func (w *encWalker) stmt(s ast.Stmt, guards []string) {
	switch t := s.(type) {
	case *ast.BlockStmt:
		w.block(t, guards)
	case *ast.IfStmt:
		if t.Init != nil {
			w.stmt(t.Init, guards)
		}
		w.exprs(guards, t.Cond)
		g := guards
		if mentionsEnc(t.Cond) {
			g = append(guards, exprKey(t.Cond))
		}
		w.block(t.Body, g)
		if t.Else != nil {
			w.stmt(t.Else, g)
		}
	case *ast.SwitchStmt:
		if t.Init != nil {
			w.stmt(t.Init, guards)
		}
		g := guards
		if t.Tag != nil {
			w.exprs(guards, t.Tag)
			if mentionsEnc(t.Tag) {
				g = append(guards, exprKey(t.Tag))
			}
		}
		for _, c := range t.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.exprs(g, cc.List...)
				for _, cs := range cc.Body {
					w.stmt(cs, g)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range t.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, cs := range cc.Body {
					w.stmt(cs, guards)
				}
			}
		}
	case *ast.ForStmt:
		if t.Init != nil {
			w.stmt(t.Init, guards)
		}
		if t.Cond != nil {
			w.exprs(guards, t.Cond)
		}
		w.block(t.Body, guards)
		if t.Post != nil {
			w.stmt(t.Post, guards)
		}
	case *ast.RangeStmt:
		w.exprs(guards, t.X)
		if t.Value != nil {
			w.checkLazyDict(t.X)
		}
		w.block(t.Body, guards)
	case *ast.SelectStmt:
		for _, c := range t.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.stmt(cc.Comm, guards)
				}
				for _, cs := range cc.Body {
					w.stmt(cs, guards)
				}
			}
		}
	case *ast.LabeledStmt:
		w.stmt(t.Stmt, guards)
	case *ast.AssignStmt:
		w.exprs(guards, t.Rhs...)
		w.exprs(guards, t.Lhs...)
		w.assign(t)
	case *ast.DeclStmt:
		if gd, ok := t.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.exprs(guards, vs.Values...)
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							w.state[name.Name] = w.classOf(vs.Values[i])
						}
					}
				}
			}
		}
	case *ast.ExprStmt:
		w.exprs(guards, t.X)
	case *ast.ReturnStmt:
		w.exprs(guards, t.Results...)
		for _, r := range t.Results {
			if !isVectorExpr(w.pass, r) {
				continue
			}
			w.sawVecReturn = true
			switch w.classOf(r) {
			case taintEncoded:
				w.sawEncodedRet = true
			case taintPlain:
			default:
				w.allPlainRets = false
			}
		}
	case *ast.DeferStmt:
		w.exprs(guards, t.Call)
	case *ast.GoStmt:
		w.exprs(guards, t.Call)
	case *ast.SendStmt:
		w.exprs(guards, t.Chan, t.Value)
	case *ast.IncDecStmt:
		w.exprs(guards, t.X)
	}
}

// assign updates the taint state from an assignment. A multi-value call
// assignment applies the call's class to every vector-typed LHS.
func (w *encWalker) assign(t *ast.AssignStmt) {
	if len(t.Rhs) == 1 && len(t.Lhs) > 1 {
		class := w.classOf(t.Rhs[0])
		for _, l := range t.Lhs {
			if isVectorExpr(w.pass, l) {
				w.state[exprKey(l)] = class
			}
		}
		return
	}
	for i, l := range t.Lhs {
		if i < len(t.Rhs) && isVectorExpr(w.pass, l) {
			w.state[exprKey(l)] = w.classOf(t.Rhs[i])
		}
	}
}

// classOf classifies a vector-producing expression.
func (w *encWalker) classOf(e ast.Expr) int {
	switch t := e.(type) {
	case *ast.CallExpr:
		if obj := calleeObject(w.pass, t); obj != nil {
			if materializerNames[obj.Name()] {
				return taintPlain
			}
			if w.pass.HasObjectFact(obj, &plainResultFact{}) {
				return taintPlain
			}
			if w.pass.HasObjectFact(obj, &encodedSrcFact{}) {
				return taintEncoded
			}
		}
		return taintNone
	case *ast.IndexExpr:
		if isBatchVecsSel(t) {
			return taintEncoded
		}
		return taintNone
	case *ast.UnaryExpr:
		if t.Op == token.AND {
			if _, ok := t.X.(*ast.CompositeLit); ok {
				return taintPlain
			}
		}
	case *ast.CompositeLit:
		return taintPlain
	case *ast.Ident:
		return w.state[t.Name]
	case *ast.SelectorExpr:
		return w.state[exprKey(t)]
	}
	return taintNone
}

// exprs inspects expressions for raw payload accesses, descending into
// function literals with the current guard context.
func (w *encWalker) exprs(guards []string, es ...ast.Expr) {
	for _, e := range es {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch t := n.(type) {
			case *ast.FuncLit:
				w.block(t.Body, guards)
				return false
			case *ast.IndexExpr:
				w.checkLazyDict(t.X)
				w.checkAccess(t.X, guards)
			case *ast.SliceExpr:
				w.checkLazyDict(t.X)
				w.checkAccess(t.X, guards)
			}
			return true
		})
	}
}

// checkLazyDict reports a raw read of a vector's lazily interned
// dictionary.
func (w *encWalker) checkLazyDict(x ast.Expr) {
	if !w.report {
		return
	}
	sel, ok := x.(*ast.SelectorExpr)
	if !ok || !lazyDictFields[sel.Sel.Name] || !isVectorExpr(w.pass, sel.X) {
		return
	}
	w.pass.Reportf(sel.Pos(),
		"%s.%s read raw, but a block view's dictionary fills on first use (an unread entry is 0) and its bytes alias scan scratch; read entries through DictRef/StrRefAt or DictEntry",
		exprKey(sel.X), sel.Sel.Name)
}

// checkAccess reports raw payload indexing of a possibly-encoded vector.
func (w *encWalker) checkAccess(x ast.Expr, guards []string) {
	if !w.report {
		return
	}
	sel, ok := x.(*ast.SelectorExpr)
	if !ok || !encPayloadFields[sel.Sel.Name] {
		return
	}
	if !isVectorExpr(w.pass, sel.X) {
		return
	}
	baseKey := exprKey(sel.X)
	tainted := w.state[baseKey] == taintEncoded || isBatchVecsSel(sel.X)
	if !tainted {
		return
	}
	for _, g := range guards {
		if strings.Contains(g, baseKey+".Enc") || strings.Contains(g, baseKey+".Codes") ||
			strings.Contains(g, baseKey+".IsPlain") {
			return
		}
	}
	pass := w.pass
	pass.Reportf(sel.Pos(),
		"%s.%s indexed raw but %s arrived from a batch and may still be dict- or FoR-encoded; branch on %s.Enc or materialize (ensurePlain/Materialize) first",
		baseKey, sel.Sel.Name, baseKey, baseKey)
}

// isBatchVecsSel matches `<ident>.Vecs[...]` — the way scan views enter
// operator code: an incoming batch held in a local or parameter
// (`b.Vecs[e.col]`). Owned output batches reached through a field chain
// (`e.out.Vecs[ci]`) are exempt: the operator allocated those plain with
// vec.New in its constructor and is the only writer.
func isBatchVecsSel(e ast.Expr) bool {
	idx, ok := e.(*ast.IndexExpr)
	if !ok {
		return false
	}
	sel, ok := idx.X.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Vecs" {
		return false
	}
	_, ok = sel.X.(*ast.Ident)
	return ok
}

// mentionsEnc reports whether an expression textually involves a .Enc,
// .Codes or .IsPlain test — the encoding-awareness marker for guards.
func mentionsEnc(e ast.Expr) bool {
	s := exprKey(e)
	return strings.Contains(s, ".Enc") || strings.Contains(s, ".Codes") || strings.Contains(s, ".IsPlain")
}

// isVectorExpr reports whether e's static type is vec.Vector or a pointer
// to it (matched by type name so fixtures declaring their own Vector
// exercise the rule).
func isVectorExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Vector"
}

// calleeObject resolves the called function or method's object.
func calleeObject(pass *Pass, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		return pass.Info.Uses[fun.Sel]
	}
	return nil
}
