package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// viewRootNames are the zero-copy accessors whose slice results alias
// per-column scratch buffers that the next ViewBlock/StrAt call on the
// same receiver overwrites: storage.Column.ViewBlock (dictionary refs),
// Column.StrAt / blockzip.Dict.StrAt (string bytes decoded into scratch),
// vec.Vector.DictEntry (an entry of a block view's decoded dictionary).
var viewRootNames = map[string]bool{
	"ViewBlock": true,
	"StrAt":     true,
	"DictEntry": true,
}

// viewRootFields are struct fields whose slices alias the sealed block's
// compressed payload (valid only while the block is resident), or the
// scan's dictionary decode scratch that the next block view overwrites
// (vec.Vector.DictBytes / DictOffs).
var viewRootFields = map[string]bool{
	"ZCodes":    true,
	"DictBytes": true,
	"DictOffs":  true,
}

// retainDirective marks a store the author has audited: the receiver is
// the scratch's owner, or the alias provably dies before the next view.
const retainDirective = "//ocht:retain-checked"

// viewFact marks a function that returns scratch-aliased slices, so its
// callers' results are tainted too (e.g. storage.Column.StrAt wraps
// blockzip.Dict.StrAt; both are roots by name, but wrappers with other
// names are caught through this fact).
type viewFact struct{}

func (viewFact) AFact() {}

// ViewLife enforces the zero-copy lifetime rule from the sealed-block
// read path: slices returned by ViewBlock/StrAt/ZCodes alias reusable
// scratch (or the compressed block itself) and are valid only until the
// next view call — storing one into a struct field, map, slice element or
// package variable is a use-after-overwrite waiting to happen. Escaping
// stores must either copy (string(b), append, copy) — which the taint
// tracking recognizes as cleansing — or carry a //ocht:retain-checked
// comment on the store's line or the line above.
var ViewLife = &Analyzer{
	Name: "viewlife",
	Doc: "flags zero-copy view slices (ViewBlock refs, StrAt bytes, ZCodes, decoded dictionaries) " +
		"escaping into fields, maps or globals without an explicit copy or " +
		"//ocht:retain-checked audit marker",
	Run: runViewLife,
}

func runViewLife(pass *Pass) {
	// Two rounds so a package-internal wrapper declared after its caller
	// still contributes its fact; only the last round reports.
	for round := 0; round < 2; round++ {
		report := round == 1
		for _, f := range pass.Files {
			retained := retainLines(pass, f)
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				v := &viewWalker{pass: pass, tainted: map[string]bool{}, retained: retained, report: report}
				ast.Inspect(fd.Body, v.visit)
				if v.returnsView {
					if obj := pass.Info.Defs[fd.Name]; obj != nil && !pass.HasObjectFact(obj, &viewFact{}) {
						pass.ExportObjectFact(obj, &viewFact{})
					}
				}
			}
		}
	}
}

// retainLines collects the line numbers carrying a retain directive.
func retainLines(pass *Pass, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(strings.TrimSpace(c.Text), retainDirective) {
				lines[pass.Fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

type viewWalker struct {
	pass        *Pass
	tainted     map[string]bool // exprKey of slice-typed locals aliasing scratch
	retained    map[int]bool
	report      bool
	returnsView bool
}

func (v *viewWalker) visit(n ast.Node) bool {
	switch t := n.(type) {
	case *ast.AssignStmt:
		v.assign(t)
	case *ast.ReturnStmt:
		for _, r := range t.Results {
			if v.isView(r) {
				v.returnsView = true
			}
		}
	}
	return true
}

func (v *viewWalker) assign(t *ast.AssignStmt) {
	// A multi-value call taints every slice-typed LHS (ViewBlock returns
	// (count, refs, bytes): the int is harmless, both slices alias).
	if len(t.Rhs) == 1 && len(t.Lhs) > 1 {
		if v.isView(t.Rhs[0]) {
			for _, l := range t.Lhs {
				v.sink(l, t.Rhs[0])
			}
		}
		return
	}
	for i, l := range t.Lhs {
		if i < len(t.Rhs) {
			if v.isView(t.Rhs[i]) {
				v.sink(l, t.Rhs[i])
			} else if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
				// Reassignment from a clean value clears the taint.
				delete(v.tainted, id.Name)
			}
		}
	}
}

// sink records taint for local variables and reports escaping stores.
func (v *viewWalker) sink(lhs ast.Expr, rhs ast.Expr) {
	if !isSliceLike(v.pass.TypeOf(lhs)) {
		return
	}
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		if obj := v.pass.Info.Defs[l]; obj != nil {
			v.tainted[l.Name] = true
			return
		}
		obj := v.pass.Info.Uses[l]
		if obj != nil && obj.Parent() == v.pass.Pkg.Scope() {
			v.escape(lhs, "package variable "+l.Name)
			return
		}
		v.tainted[l.Name] = true
	case *ast.SelectorExpr:
		v.escape(lhs, "field "+exprKey(l))
	case *ast.IndexExpr:
		v.escape(lhs, "element "+exprKey(l))
	case *ast.StarExpr:
		v.escape(lhs, "pointee "+exprKey(l))
	}
}

func (v *viewWalker) escape(lhs ast.Expr, what string) {
	if !v.report {
		return
	}
	line := v.pass.Fset.Position(lhs.Pos()).Line
	if v.retained[line] || v.retained[line-1] {
		return
	}
	v.pass.Reportf(lhs.Pos(),
		"zero-copy view stored into %s outlives its scratch buffer (the next ViewBlock/StrAt overwrites it); copy it (string(b), append, copy) or mark the store %s with why the alias is safe",
		what, retainDirective)
}

// isView reports whether e produces a scratch-aliased slice: a root call
// (by name or fact), a ZCodes field read, a tainted local, or a reslice
// of one of those. Conversions (string(b)) and append/copy results are
// fresh memory and naturally classify as clean.
func (v *viewWalker) isView(e ast.Expr) bool {
	switch t := e.(type) {
	case *ast.CallExpr:
		obj := calleeObject(v.pass, t)
		if obj == nil {
			return false
		}
		if _, isFunc := obj.(*types.Func); !isFunc {
			return false // conversion through a named type: a copy for strings
		}
		if viewRootNames[obj.Name()] {
			return true
		}
		return v.pass.HasObjectFact(obj, &viewFact{})
	case *ast.SelectorExpr:
		if viewRootFields[t.Sel.Name] && isSliceLike(v.pass.TypeOf(t)) {
			return true
		}
		return v.tainted[exprKey(t)]
	case *ast.Ident:
		return v.tainted[t.Name]
	case *ast.SliceExpr:
		return v.isView(t.X)
	case *ast.ParenExpr:
		return v.isView(t.X)
	}
	return false
}

// isSliceLike reports whether t is a slice (possibly via a named type).
func isSliceLike(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}
