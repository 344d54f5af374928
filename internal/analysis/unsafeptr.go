package analysis

import (
	"go/ast"
	"go/types"
)

// ussrRegionBytes is the USSR data-region size (512 kB): the self-aligned
// region any unsafe pointer arithmetic must stay inside.
const ussrRegionBytes = 512 << 10

// unsafeAllowed are the only packages permitted to import unsafe: the
// USSR, which mirrors the paper's raw-pointer string representation.
var unsafeAllowed = []string{
	"internal/ussr",
}

// UnsafePtr restricts unsafe to the USSR allowlist and, inside
// the allowlist, enforces the two rules that keep pointer arithmetic sound:
// a pointer round-tripped through uintptr must stay within a single
// expression (a stored uintptr is invisible to the GC and stale after any
// move), and offsets added to a region base must be provably inside the
// 512 kB self-aligned region — a constant below the region size, or an
// expression masked/modulo'd by one.
var UnsafePtr = &Analyzer{
	Name: "unsafeptr",
	Doc: "restricts unsafe to internal/ussr, and flags stored uintptrs and " +
		"unbounded pointer offsets that can escape the 512 kB self-aligned region",
	Run: runUnsafePtr,
}

func runUnsafePtr(pass *Pass) {
	allowed := pass.PathHasSuffix(unsafeAllowed...)
	for _, f := range pass.Files {
		importsUnsafe := false
		for _, imp := range f.Imports {
			if imp.Path.Value == `"unsafe"` {
				importsUnsafe = true
				if !allowed {
					pass.Reportf(imp.Pos(),
						"import of unsafe outside the allowlist (internal/ussr)")
				}
			}
		}
		if !importsUnsafe || !allowed {
			continue
		}
		checkUnsafeUsage(pass, f)
	}
}

func checkUnsafeUsage(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range t.Rhs {
				if conv := asUintptrOfPointer(pass, rhs); conv != nil {
					pass.Reportf(conv.Pos(),
						"unsafe.Pointer converted to uintptr and stored; the GC does not track uintptrs — keep the round-trip inside one expression")
				}
			}
		case *ast.ValueSpec:
			for _, v := range t.Values {
				if conv := asUintptrOfPointer(pass, v); conv != nil {
					pass.Reportf(conv.Pos(),
						"unsafe.Pointer converted to uintptr and stored; the GC does not track uintptrs — keep the round-trip inside one expression")
				}
			}
		case *ast.CallExpr:
			if isUnsafeCall(pass, t, "Add") && len(t.Args) == 2 {
				checkRegionOffset(pass, t.Args[1])
			}
			// unsafe.Pointer(uintptr(p) + off) — the pre-1.17 arithmetic
			// spelling.
			if isUnsafeCall(pass, t, "Pointer") && len(t.Args) == 1 {
				if bin, ok := t.Args[0].(*ast.BinaryExpr); ok && bin.Op.String() == "+" {
					checkRegionOffset(pass, bin.Y)
				}
			}
		}
		return true
	})
}

// asUintptrOfPointer returns the conversion call if e is uintptr(x) with
// x an unsafe.Pointer.
func asUintptrOfPointer(pass *Pass, e ast.Expr) *ast.CallExpr {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return nil
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || b.Kind() != types.Uintptr {
		return nil
	}
	at := pass.TypeOf(call.Args[0])
	if at == nil {
		return nil
	}
	if b2, ok := at.Underlying().(*types.Basic); ok && b2.Kind() == types.UnsafePointer {
		return call
	}
	return nil
}

func isUnsafeCall(pass *Pass, call *ast.CallExpr, name string) bool {
	se, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || se.Sel.Name != name {
		return false
	}
	id, ok := se.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "unsafe"
}

// checkRegionOffset accepts offsets provably inside the region: integer
// constants below 512 kB, or expressions whose top-level operation masks
// (&) or wraps (%) by a constant at most the region size. Everything else
// can address past the self-aligned region and is flagged.
func checkRegionOffset(pass *Pass, off ast.Expr) {
	if v, ok := intConst(pass, off); ok {
		if v < 0 || v >= ussrRegionBytes {
			pass.Reportf(off.Pos(), "constant pointer offset %d outside the 512 kB self-aligned region", v)
		}
		return
	}
	if e, ok := off.(*ast.ParenExpr); ok {
		checkRegionOffset(pass, e.X)
		return
	}
	if conv, ok := off.(*ast.CallExpr); ok && len(conv.Args) == 1 {
		if tv, isType := pass.Info.Types[conv.Fun]; isType && tv.IsType() {
			checkRegionOffset(pass, conv.Args[0])
			return
		}
	}
	if bin, ok := off.(*ast.BinaryExpr); ok {
		switch bin.Op.String() {
		case "&":
			if boundedBy(pass, bin.X, bin.Y, ussrRegionBytes-1) {
				return
			}
		case "%":
			if v, isConst := intConst(pass, bin.Y); isConst && v > 0 && v <= ussrRegionBytes {
				return
			}
		case "*":
			// slot*8 style scaling: bounded iff one side is a bounded mask
			// expression; conservatively recurse into both operands.
			checkRegionOffset(pass, bin.X)
			checkRegionOffset(pass, bin.Y)
			return
		}
	}
	pass.Reportf(off.Pos(),
		"pointer offset is not provably inside the 512 kB self-aligned region; mask it (off & (regionSize-1)) or bound it with a constant")
}

// boundedBy reports whether either operand of an & is a constant <= bound.
func boundedBy(pass *Pass, x, y ast.Expr, bound int64) bool {
	if v, ok := intConst(pass, x); ok && v >= 0 && v <= bound {
		return true
	}
	if v, ok := intConst(pass, y); ok && v >= 0 && v <= bound {
		return true
	}
	return false
}
