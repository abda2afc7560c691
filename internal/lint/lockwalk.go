package lint

import (
	"go/ast"
	"go/types"
)

// heldLocks is the set of mutexes held at a program point, keyed by the
// source text of the mutex expression ("t.mu"); the value is whatever the
// analyzer's acquire hook returned for it (lockorder keeps the lock's
// declaration-site name there).
type heldLocks map[string]string

func (h heldLocks) clone() heldLocks {
	c := make(heldLocks, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// lockWalker threads the held-lock set through a function body for both lock
// analyzers (guardedby, lockorder). It is intra-procedural and deliberately
// conservative in what it tracks: a linear pass, each branch against a copy
// of the entry state, merged by intersection of the exits that fall through —
// so a branch that ends in return does not contribute, which keeps the
// check-unlock-return idiom clean. Loop and case bodies are assumed
// lock-balanced. defer mu.Unlock() fires at exit, so the lock stays held.
// Function literals are walked where they are created, under the locks held
// there — in this codebase closures touching guarded state are sort
// comparators and the like, invoked synchronously under the lock that wraps
// them — except a go statement's, which runs under none.
type lockWalker struct {
	pkg *Package
	// acquire, if set, runs at each Lock/RLock before the mutex joins held;
	// held keeps what it returns.
	acquire func(call *ast.CallExpr, mu string, held heldLocks) string
	// visit runs for every node of every expression, with the locks held
	// where it is evaluated.
	visit func(n ast.Node, held heldLocks)
}

// walkStmts processes a statement list against the entry lock state, mutating
// held in place. It reports whether the list terminates (return), so callers
// can exclude dead exits from merge points.
func (w *lockWalker) walkStmts(stmts []ast.Stmt, held heldLocks) (terminates bool) {
	for _, s := range stmts {
		if w.walkStmt(s, held) {
			return true
		}
	}
	return false
}

func (w *lockWalker) walkStmt(s ast.Stmt, held heldLocks) (terminates bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, mu, op := lockOp(w.pkg, s.X); mu != "" {
			switch op {
			case "Lock", "RLock":
				v := ""
				if w.acquire != nil {
					v = w.acquire(call, mu, held)
				}
				held[mu] = v
			case "Unlock", "RUnlock":
				delete(held, mu)
			}
			return false
		}
		w.walkExpr(s.X, held)
	case *ast.DeferStmt:
		if _, mu, _ := lockOp(w.pkg, s.Call); mu != "" {
			return false // defer mu.Unlock() fires at exit, not here
		}
		w.walkExpr(s.Call, held)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.walkExpr(r, held)
		}
		return true
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.walkExpr(s.Cond, held)
		var exits []heldLocks
		thenHeld := held.clone()
		if !w.walkStmts(s.Body.List, thenHeld) {
			exits = append(exits, thenHeld)
		}
		elseHeld := held.clone()
		if s.Else == nil || !w.walkStmt(s.Else, elseHeld) {
			exits = append(exits, elseHeld)
		}
		mergeInto(held, exits)
		return len(exits) == 0
	case *ast.BlockStmt:
		return w.walkStmts(s.List, held)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			w.walkExpr(s.Cond, held)
		}
		body := held.clone()
		w.walkStmts(s.Body.List, body)
		if s.Post != nil {
			w.walkStmt(s.Post, body)
		}
	case *ast.RangeStmt:
		w.walkExpr(s.X, held)
		w.walkStmts(s.Body.List, held.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			w.walkExpr(s.Tag, held)
		}
		w.walkClauses(s.Body.List, held)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		w.walkClauses(s.Body.List, held)
	case *ast.SelectStmt:
		w.walkClauses(s.Body.List, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.walkExpr(e, held)
		}
		for _, e := range s.Lhs {
			w.walkExpr(e, held)
		}
	case *ast.GoStmt:
		// The goroutine runs later, under no lock the spawner holds.
		w.walkExpr(s.Call.Fun, nil)
		for _, a := range s.Call.Args {
			w.walkExpr(a, held) // arguments evaluate now
		}
	default:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				w.walkExpr(e, held)
				return false
			}
			return true
		})
	}
	return false
}

// walkClauses analyzes each case body against a copy of the entry state.
func (w *lockWalker) walkClauses(clauses []ast.Stmt, held heldLocks) {
	for _, c := range clauses {
		var body []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.walkExpr(e, held)
			}
			body = c.Body
		case *ast.CommClause:
			body = c.Body
		}
		w.walkStmts(body, held.clone())
	}
}

// mergeInto replaces held with the intersection of the live exit states.
func mergeInto(held heldLocks, exits []heldLocks) {
	for k := range held {
		delete(held, k)
	}
	if len(exits) == 0 {
		return
	}
next:
	for k, v := range exits[0] {
		for _, e := range exits[1:] {
			if _, ok := e[k]; !ok {
				continue next
			}
		}
		held[k] = v
	}
}

// walkExpr hands every node of e to the visit hook and walks nested function
// literals' statements under the current state.
func (w *lockWalker) walkExpr(e ast.Expr, held heldLocks) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			w.walkStmts(lit.Body.List, held.clone())
			return false
		}
		if n != nil {
			w.visit(n, held)
		}
		return true
	})
}

// lockOp recognizes mu.Lock()/RLock()/Unlock()/RUnlock() on a sync mutex and
// returns the call, the mutex expression's source text and the operation.
func lockOp(pkg *Package, e ast.Expr) (call *ast.CallExpr, mu, op string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, "", ""
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", ""
	}
	return call, types.ExprString(sel.X), sel.Sel.Name
}
