package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// VecMaxLen mirrors vec.MaxLen (== vec.Size). The analyzer cannot import
// ocht/internal/vec — fixtures type-check without the module — so the
// constant is duplicated here; selvec_vec_test.go pins the two together.
const VecMaxLen = 1024

// vecDataFields are the data-slice fields of vec.Vector. Indexing one of
// these by a loop induction variable while a selection vector is in scope
// reads the wrong physical positions for every selective batch.
var vecDataFields = map[string]bool{
	"Bool": true, "I8": true, "I16": true, "I32": true,
	"I64": true, "I128": true, "F64": true, "Str": true, "Nulls": true,
}

// SelVec enforces selection-vector discipline in the kernel packages:
//
//   - ranging over a selection vector and indexing the same slice by both
//     the loop index and the selected element (one of them is wrong);
//   - ranging over a selection vector while ignoring its elements and
//     reading column data at the loop induction variable (the classic
//     forgot-the-sel bug — dense writes indexed by the induction variable
//     are the legitimate gather idiom and stay allowed);
//   - ranging over a selection vector and reading column data at a
//     compacted output counter (dst[k] = col[r]; k++ is the gather idiom,
//     dst[r] = col[k] reads the wrong rows);
//   - constant indexes or element values at or past vec.MaxLen, the batch
//     capacity every selection entry must stay below.
var SelVec = &Analyzer{
	Name: "selvec",
	Doc: "flags kernels that index columns by the loop induction variable " +
		"when a selection vector is in scope, and selection-vector entries " +
		"or indexes past vec.MaxLen",
	Run: runSelVec,
}

func runSelVec(pass *Pass) {
	if !pass.PathHasSuffix(hotPackages...) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch t := n.(type) {
			case *ast.RangeStmt:
				checkSelRange(pass, t)
			case *ast.IndexExpr:
				checkSelConstIndex(pass, t)
			case *ast.AssignStmt:
				checkSelConstStore(pass, t)
			}
			return true
		})
	}
}

// isSelExpr reports whether e denotes a selection vector: an []int32
// expression named sel/rows, a .Sel field, or a Rows() call.
func (p *Pass) isSelExpr(e ast.Expr) bool {
	if !isInt32Slice(p.TypeOf(e)) {
		return false
	}
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name == "sel" || t.Name == "rows" || t.Name == "probeRows"
	case *ast.SelectorExpr:
		return t.Sel.Name == "Sel" || t.Sel.Name == "sel" || t.Sel.Name == "rows"
	case *ast.CallExpr:
		if se, ok := t.Fun.(*ast.SelectorExpr); ok {
			return se.Sel.Name == "Rows"
		}
	case *ast.SliceExpr:
		return p.isSelExpr(t.X)
	}
	return false
}

func isInt32Slice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int32
}

func checkSelRange(pass *Pass, rs *ast.RangeStmt) {
	if !pass.isSelExpr(rs.X) {
		return
	}
	idxName := identName(rs.Key)
	valName := identName(rs.Value)
	checkSelCounters(pass, rs)

	if idxName != "" && valName != "" {
		// Mixed indexing: the same slice indexed by both the position in
		// the selection vector and the selected physical row.
		byIdx := map[string]ast.Node{}
		byVal := map[string]bool{}
		walkFuncBody(rs.Body, func(n ast.Node) bool {
			ix, ok := n.(*ast.IndexExpr)
			if !ok {
				return true
			}
			switch identName(ix.Index) {
			case idxName:
				byIdx[exprKey(ix.X)] = ix
			case valName:
				byVal[exprKey(ix.X)] = true
			}
			return true
		})
		for key, node := range byIdx {
			if byVal[key] {
				pass.Reportf(node.Pos(),
					"slice %s indexed by both the selection-vector index %q and element %q in the same loop; one of them addresses the wrong rows",
					key, idxName, valName)
			}
		}
		return
	}

	if idxName == "" || valName != "" {
		return
	}
	// `for i := range sel` with the element ignored: reading column data
	// at i uses the dense position where a physical row is required.
	writes := selWriteTargets(rs.Body)
	walkFuncBody(rs.Body, func(n ast.Node) bool {
		ix, ok := n.(*ast.IndexExpr)
		if !ok || identName(ix.Index) != idxName || writes[ix] {
			return true
		}
		if se, ok := ix.X.(*ast.SelectorExpr); ok && vecDataFields[se.Sel.Name] && isSliceType(pass.TypeOf(ix.X)) {
			pass.Reportf(ix.Pos(),
				"column %s read at loop induction variable %q while ranging over a selection vector; index by the selection element (%s[%s]) instead",
				exprKey(ix.X), idxName, exprKey(rs.X), idxName)
		}
		return true
	})
}

// checkSelCounters flags column data read at a compacted output counter
// — a variable the loop body advances with ++ or += — while ranging over a
// selection vector. The counter addresses the compacted output, so
// dst[k] = col[r] is the gather idiom and col[k] reads the wrong row.
func checkSelCounters(pass *Pass, rs *ast.RangeStmt) {
	counters := map[string]bool{}
	walkFuncBody(rs.Body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.IncDecStmt:
			if t.Tok == token.INC {
				counters[identName(t.X)] = true
			}
		case *ast.AssignStmt:
			if t.Tok == token.ADD_ASSIGN && len(t.Lhs) == 1 {
				counters[identName(t.Lhs[0])] = true
			}
		}
		return true
	})
	delete(counters, "")
	if len(counters) == 0 {
		return
	}
	writes := selWriteTargets(rs.Body)
	walkFuncBody(rs.Body, func(n ast.Node) bool {
		ix, ok := n.(*ast.IndexExpr)
		if !ok || writes[ix] || !counters[identName(ix.Index)] {
			return true
		}
		if se, ok := ix.X.(*ast.SelectorExpr); ok && vecDataFields[se.Sel.Name] && isSliceType(pass.TypeOf(ix.X)) {
			pass.Reportf(ix.Pos(),
				"column %s read at compacted output counter %q while ranging over a selection vector; the counter addresses the output, the selection element addresses the column",
				exprKey(ix.X), identName(ix.Index))
		}
		return true
	})
}

// selWriteTargets collects the IndexExprs appearing as assignment
// targets, i.e. dense scatter writes, which are legitimate.
func selWriteTargets(body ast.Node) map[*ast.IndexExpr]bool {
	writes := map[*ast.IndexExpr]bool{}
	walkFuncBody(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if ix, ok := lhs.(*ast.IndexExpr); ok {
				writes[ix] = true
			}
		}
		return true
	})
	return writes
}

// checkSelConstIndex flags sel[k] with constant k >= vec.MaxLen.
func checkSelConstIndex(pass *Pass, ix *ast.IndexExpr) {
	if !pass.isSelExpr(ix.X) {
		return
	}
	if v, ok := intConst(pass, ix.Index); ok && v >= VecMaxLen {
		pass.Reportf(ix.Pos(), "selection vector indexed at constant %d >= vec.MaxLen (%d)", v, VecMaxLen)
	}
}

// checkSelConstStore flags sel[i] = k with constant k >= vec.MaxLen:
// entries are physical row numbers inside one batch.
func checkSelConstStore(pass *Pass, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		ix, ok := lhs.(*ast.IndexExpr)
		if !ok || !pass.isSelExpr(ix.X) {
			continue
		}
		if v, ok := intConst(pass, as.Rhs[i]); ok && v >= VecMaxLen {
			pass.Reportf(as.Rhs[i].Pos(),
				"selection-vector entry %d >= vec.MaxLen (%d); entries are physical row positions within one batch", v, VecMaxLen)
		}
	}
}

func intConst(pass *Pass, e ast.Expr) (int64, bool) {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	if tv.Value.Kind() != constant.Int {
		return 0, false
	}
	v, exact := constant.Int64Val(tv.Value)
	return v, exact
}

func isSliceType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

func identName(e ast.Expr) string {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return ""
	}
	return id.Name
}
