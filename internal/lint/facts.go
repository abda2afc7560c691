package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// Cross-package facts and the small pile of go/types helpers every analyzer
// leans on.

var (
	guardedByRe = regexp.MustCompile(`(?i)\bguarded by\s+([A-Za-z_]\w*)`)
	guardsRe    = regexp.MustCompile(`(?i)^\s*guards\s+(.+)`)
)

// buildFacts indexes the whole module once — which fields are declared
// mutex-guarded by comment, the call graph — and runs the two analyzers that
// are module-wide traversals rather than per-package passes.
func (m *Module) buildFacts() {
	m.guarded = make(map[*types.Var]string)
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f.Ast, func(n ast.Node) bool {
				if st, ok := n.(*ast.StructType); ok {
					m.recordGuardedFields(pkg, st)
				}
				return true
			})
		}
	}
	m.cg = m.buildCallGraph()
	m.preDiags = map[string]map[*Package][]Diagnostic{"hotpath": {}, "lockorder": {}, "deadcode": {}}
	m.runHotPath()
	m.runLockOrder()
	m.runDeadCode()
}

// addPreDiag stores a module-wide analyzer's finding under the package that
// anchors it. Both traversals visit nodes in sorted order, so each package's
// list is deterministic.
func (m *Module) addPreDiag(analyzer string, pkg *Package, d Diagnostic) {
	m.preDiags[analyzer][pkg] = append(m.preDiags[analyzer][pkg], d)
}

// recordGuardedFields parses the two guarded-field comment conventions on a
// struct literal type:
//
//	mu sync.Mutex // guards history and sinceFit
//	q  []*waiter  // guarded by mu
func (m *Module) recordGuardedFields(pkg *Package, st *ast.StructType) {
	byName := make(map[string]*ast.Field)
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			byName[n.Name] = f
		}
	}
	for _, f := range st.Fields.List {
		text := fieldComment(f)
		if text == "" || len(f.Names) == 0 {
			continue
		}
		if sub := guardedByRe.FindStringSubmatch(text); sub != nil {
			m.markGuarded(pkg, f, sub[1])
		}
		if sub := guardsRe.FindStringSubmatch(text); sub != nil && isMutexField(f) {
			mu := f.Names[0].Name
			for _, name := range splitNameList(sub[1]) {
				if gf := byName[name]; gf != nil {
					m.markGuarded(pkg, gf, mu)
				}
			}
		}
	}
}

func (m *Module) markGuarded(pkg *Package, f *ast.Field, mu string) {
	for _, n := range f.Names {
		if v, ok := pkg.Info.Defs[n].(*types.Var); ok {
			m.guarded[v] = mu
		}
	}
}

func fieldComment(f *ast.Field) string {
	var parts []string
	if f.Doc != nil {
		parts = append(parts, f.Doc.Text())
	}
	if f.Comment != nil {
		parts = append(parts, f.Comment.Text())
	}
	return strings.Join(parts, " ")
}

func isMutexField(f *ast.Field) bool {
	sel, ok := f.Type.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "sync" && (sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex")
}

// splitNameList parses "history and sinceFit" / "a, b, and c" into names.
func splitNameList(s string) []string {
	s = strings.NewReplacer(",", " ", " and ", " ").Replace(s)
	var names []string
	for _, w := range strings.Fields(s) {
		if isIdentWord(w) {
			names = append(names, w)
		} else {
			break // prose trails off ("guards history during swaps")
		}
	}
	return names
}

func isIdentWord(w string) bool {
	for i, r := range w {
		if r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || i > 0 && r >= '0' && r <= '9' {
			continue
		}
		return false
	}
	return len(w) > 0
}

// ---- type-info helpers ----

// calleeOf resolves the static callee of a call, nil for builtins,
// conversions, and calls through function values.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[f].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// typeOfExpr is the type the checker recorded for e, nil if none.
func typeOfExpr(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// builtinOf resolves a call to a predeclared builtin ("make", "append", ...).
func builtinOf(info *types.Info, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}

// isConversion reports whether a call expression is a type conversion.
func isConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// isModuleFunc reports whether fn is declared in this module.
func (m *Module) isModuleFunc(fn *types.Func) bool {
	return fn.Pkg() != nil && m.inModule(fn.Pkg())
}

// inModule reports whether p is one of this module's packages.
func (m *Module) inModule(p *types.Package) bool {
	return p.Path() == m.Path || strings.HasPrefix(p.Path(), m.Path+"/")
}

// pointerShaped reports whether boxing a value of type t into an interface
// copies a single pointer word and therefore does not allocate.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
