package lint

import (
	"go/ast"
	"go/types"
)

// GuardedBy checks that fields declared mutex-guarded by comment —
//
//	mu sync.Mutex // guards history and sinceFit
//	q  []*waiter  // guarded by mu
//
// — are only touched while that mutex is held, and that calls to functions
// whose doc says the caller must hold a mutex (//dbwlm:locked or "caller holds
// mu" prose) are made with it held. The held set comes from lockWalker
// (lockwalk.go), keyed by the source text of the mutex expression, so
// t.mu.Lock() guards t.history.
//
// _test.go files are exempt: tests reach into guarded state freely while
// single-threaded.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc:  "fields commented as mutex-guarded must be accessed with that mutex held",
	Run:  runGuardedBy,
}

func runGuardedBy(m *Module, pkg *Package) []Diagnostic {
	c := &guardChecker{m: m, pkg: pkg}
	w := &lockWalker{pkg: pkg, visit: c.visit}
	for _, f := range pkg.Files {
		if f.Test {
			continue
		}
		for _, decl := range f.Ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			held := make(heldLocks)
			if fn, _ := pkg.Info.Defs[fd.Name].(*types.Func); fn != nil {
				if mu := m.lockedBy[fn]; mu != "" && fd.Recv != nil && len(fd.Recv.List) == 1 &&
					len(fd.Recv.List[0].Names) == 1 {
					held[fd.Recv.List[0].Names[0].Name+"."+mu] = ""
				}
			}
			w.walkStmts(fd.Body.List, held)
		}
	}
	return c.diags
}

type guardChecker struct {
	m     *Module
	pkg   *Package
	diags []Diagnostic
}

func (c *guardChecker) visit(n ast.Node, held heldLocks) {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		c.checkAccess(n, held)
	case *ast.CallExpr:
		c.checkLockedCall(n, held)
	}
}

func (c *guardChecker) checkAccess(sel *ast.SelectorExpr, held heldLocks) {
	v, ok := c.pkg.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() {
		return
	}
	mu := c.m.guarded[v]
	if mu == "" {
		return
	}
	need := types.ExprString(sel.X) + "." + mu
	if _, ok := held[need]; !ok {
		c.diags = append(c.diags, c.m.diag("guardedby", sel.Pos(),
			"access to %s without holding %s (field is commented guarded by %s)",
			v.Name(), need, mu))
	}
}

func (c *guardChecker) checkLockedCall(call *ast.CallExpr, held heldLocks) {
	fn := calleeOf(c.pkg.Info, call)
	if fn == nil || !c.m.isModuleFunc(fn) {
		return
	}
	mu := c.m.lockedBy[fn]
	if mu == "" {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return // plain function with a locked contract: receiver unknown, trust it
	}
	need := types.ExprString(sel.X) + "." + mu
	if _, ok := held[need]; !ok {
		c.diags = append(c.diags, c.m.diag("guardedby", call.Pos(),
			"call to %s requires %s held (its doc says the caller must hold %s)",
			fn.Name(), need, mu))
	}
}
