package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
)

// hotPackages are the module-relative package suffixes whose primitive
// kernels run once per value (not once per batch); allocations there turn
// a cache-resident tight loop into a garbage factory.
var hotPackages = []string{
	"internal/vec",
	"internal/pack",
	"internal/agg",
	"internal/join",
	"internal/exec",
	"internal/core",
	"internal/hashtab",
	"internal/storage", // block unpack/view kernels feed every scan
}

// hotNameRE is the primitive naming convention: the paper-style kernel
// prefixes (OpSum, FullSum, PackWord, UnpackColumn, MatchRecords,
// HashWords and their unexported spellings), plus the SWAR and
// batch-hash kernel families (SwarCmpConst, Mix64Batch) and the
// comparison kernels (CmpOp dispatchers). Functions outside the
// convention, such as exec's select kernels, opt in with a //ocht:hot
// doc directive.
var hotNameRE = regexp.MustCompile(`^(Op|Full|Pack|Unpack|Match|Hash|Swar|Mix|Cmp|op|full|pack|unpack|match|hash|swar|mix|cmp)[A-Z0-9]`)

// HotAlloc flags heap allocations, interface conversions (boxing) and
// closures inside hot kernels: functions in the kernel packages matching
// the primitive naming convention, or any function annotated //ocht:hot.
// The check is intra-procedural. The idiom it pushes code toward is a
// dispatch once per vector into a loop typed for the input's own slice
// (pack.packSlice, agg.updateInts, vec.UnpackRows), with no closure or
// interface per value; a rare input that needs a scratch conversion first
// gets it from a helper outside the convention (pack.boolInts, agg.intsAt).
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flags make/new, composite-literal allocations, string<->[]byte " +
		"conversions, interface boxing, closures and defers inside per-value " +
		"kernels (//ocht:hot or primitive naming convention)",
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	if !pass.PathHasSuffix(hotPackages...) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !funcDocHasDirective(fd, "ocht:hot") && !hotNameRE.MatchString(fd.Name.Name) {
				continue
			}
			checkHotBody(pass, fd)
		}
	}
}

func checkHotBody(pass *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	walkFuncBody(fd.Body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(t.Pos(), "closure allocated inside hot kernel %s; hoist it to per-batch setup", name)
			return true
		case *ast.DeferStmt:
			pass.Reportf(t.Pos(), "defer inside hot kernel %s; defers cost per call, handle cleanup at batch level", name)
		case *ast.UnaryExpr:
			if t.Op.String() == "&" {
				if _, isLit := t.X.(*ast.CompositeLit); isLit {
					pass.Reportf(t.Pos(), "heap allocation (&composite literal) inside hot kernel %s", name)
				}
			}
		case *ast.CompositeLit:
			// Slice and map literals allocate; struct/array values may stay
			// on the stack, so only reference types are flagged.
			switch pass.TypeOf(t).Underlying().(type) {
			case *types.Slice, *types.Map, *types.Chan:
				pass.Reportf(t.Pos(), "slice/map literal allocation inside hot kernel %s", name)
			}
		case *ast.CallExpr:
			checkHotCall(pass, name, t)
		}
		return true
	})
}

func checkHotCall(pass *Pass, name string, call *ast.CallExpr) {
	// Builtin allocators.
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "make", "new":
			if obj, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin && obj != nil {
				pass.Reportf(call.Pos(), "%s() inside hot kernel %s; allocate in Open/setup and reuse", id.Name, name)
				return
			}
		}
	}
	// Type conversions: interface boxing and string<->[]byte copies.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type
		from := pass.TypeOf(call.Args[0])
		if from == nil {
			return
		}
		if boxes(to) && !types.IsInterface(from.Underlying()) {
			pass.Reportf(call.Pos(), "interface conversion (boxing) inside hot kernel %s", name)
			return
		}
		if isStringByteConv(to, from) {
			pass.Reportf(call.Pos(), "string<->[]byte conversion allocates inside hot kernel %s", name)
		}
		return
	}
	// Implicit boxing: concrete arguments passed to interface parameters
	// (fmt.Sprintf and friends are the classic offenders).
	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else if sl, isSlice := params.At(params.Len() - 1).Type().(*types.Slice); isSlice {
				pt = sl.Elem()
			}
		}
		if pt == nil {
			continue
		}
		at := pass.TypeOf(arg)
		if at == nil {
			continue
		}
		if boxes(pt) && !types.IsInterface(at.Underlying()) && !isUntypedNil(at) {
			pass.Reportf(arg.Pos(), "argument boxed into interface parameter inside hot kernel %s", name)
		}
	}
}

func isStringByteConv(to, from types.Type) bool {
	return (isString(to) && isByteSlice(from)) || (isByteSlice(to) && isString(from))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// boxes reports whether a concrete value converted to t is boxed: t is an
// interface. A type parameter is not, although its underlying type is its
// constraint: a generic function runs on the concrete value.
func boxes(t types.Type) bool {
	if _, ok := t.(*types.TypeParam); ok {
		return false
	}
	return types.IsInterface(t.Underlying())
}
