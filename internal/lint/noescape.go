package lint

import (
	"go/ast"
	"go/types"
)

// NoEscapeTest couples the zero-allocation tests to the hotpath analyzer: a
// test that asserts testing.AllocsPerRun(...) == 0 is documenting a hot path,
// so the function it exercises must be in the hot closure — a
// //dbwlm:hotpath root or reachable from one — otherwise the property is
// enforced dynamically but invisible statically, and the two halves of the
// suite drift apart. Only zero-comparisons count; tests that
// tolerate a small allocation budget (avg > 1 guards) are making a different,
// weaker claim and are left alone.
var NoEscapeTest = &Analyzer{
	Name: "noescape-test",
	Doc:  "AllocsPerRun==0 tests must exercise a function in the //dbwlm:hotpath closure",
	Run:  runNoEscapeTest,
}

func runNoEscapeTest(m *Module, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		if !f.Test {
			continue
		}
		for _, decl := range f.Ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			diags = append(diags, checkAllocTest(m, pkg, fd)...)
		}
	}
	return diags
}

func checkAllocTest(m *Module, pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	// Collect AllocsPerRun calls and, for assigned results, the variables
	// holding them.
	type site struct {
		call *ast.CallExpr
		v    types.Object // result variable, nil when used inline
	}
	var sites []site
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if call, ok := as.Rhs[0].(*ast.CallExpr); ok && isAllocsPerRun(pkg.Info, call) {
				if id, ok := as.Lhs[0].(*ast.Ident); ok {
					sites = append(sites, site{call: call, v: objOf(pkg.Info, id)})
					return true
				}
			}
		}
		if call, ok := n.(*ast.CallExpr); ok && isAllocsPerRun(pkg.Info, call) {
			already := false
			for _, s := range sites {
				if s.call == call {
					already = true
				}
			}
			if !already {
				sites = append(sites, site{call: call})
			}
		}
		return true
	})
	if len(sites) == 0 {
		return nil
	}

	var diags []Diagnostic
	for _, s := range sites {
		if !zeroCompared(pkg, fd.Body, s.call, s.v) {
			continue // an allocation-budget test, not a zero-alloc assertion
		}
		if len(s.call.Args) < 2 {
			continue
		}
		lit, ok := ast.Unparen(s.call.Args[1]).(*ast.FuncLit)
		if !ok {
			continue // a named func argument: too indirect to attribute, trust it
		}
		if !callsHotPath(m, pkg, lit) {
			diags = append(diags, m.diag("noescape-test", s.call.Pos(),
				"AllocsPerRun==0 assertion exercises no //dbwlm:hotpath function nor anything reachable from one; annotate the function under test so the analyzer guards it too"))
		}
	}
	return diags
}

func isAllocsPerRun(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeOf(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "testing" &&
		fn.Name() == "AllocsPerRun"
}

// zeroCompared reports whether the AllocsPerRun result is compared against a
// literal 0 — directly (testing.AllocsPerRun(...) != 0) or through the
// variable it was assigned to (if allocs != 0 { ... }).
func zeroCompared(pkg *Package, body *ast.BlockStmt, call *ast.CallExpr, v types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || found {
			return !found
		}
		x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
		for _, pair := range [2][2]ast.Expr{{x, y}, {y, x}} {
			if !isZeroLit(pair[1]) {
				continue
			}
			if pair[0] == call {
				found = true
			}
			if id, ok := pair[0].(*ast.Ident); ok && v != nil && objOf(pkg.Info, id) == v {
				found = true
			}
		}
		return !found
	})
	return found
}

func isZeroLit(e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// callsHotPath reports whether the benchmark body directly calls at least one
// module function in the hot closure.
func callsHotPath(m *Module, pkg *Package, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if fn := calleeOf(pkg.Info, call); fn != nil && m.hotReach[fn] {
			found = true
		}
		return !found
	})
	return found
}
