package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPath checks that functions annotated //dbwlm:hotpath contain no
// allocating constructs. The admission fast path's 0-allocs/op figure (the
// AllocsPerRun tests in internal/rt) is a hand-maintained property; this
// analyzer pins the syntactic half of it so a drive-by edit cannot silently
// put an allocation back.
//
// Flagged inside a hotpath function:
//
//   - make, new, append, and debug print builtins
//   - map and slice composite literals (they always allocate) and &T{...}
//     pointer literals (they escape to the heap)
//   - string concatenation and allocating string conversions
//     (string<->[]byte/[]rune, int->string)
//   - go statements (a goroutine is an allocation)
//   - closures that capture variables, unless they are only ever called
//     directly (never escape) or are the immediate call of a defer
//   - interface boxing at call sites: passing a non-pointer-shaped concrete
//     value where an interface parameter is declared
//   - calls to variadic functions with non-empty variadic arguments (the
//     argument slice allocates)
//   - calls into module functions not themselves annotated //dbwlm:hotpath,
//     and calls into standard-library packages outside a small allowlist of
//     allocation-free ones
//
// Known soundness gaps, deliberate: calls through function values (the
// runtime's injected clock) and panics are trusted; value composite literals
// are allowed because the paths this guards pass them by value, where escape
// analysis keeps them on the stack — the AllocsPerRun tests remain the
// ground truth the analyzer approximates.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "forbid allocating constructs in //dbwlm:hotpath functions",
	Run:  runHotPath,
}

// hotAllowedPkgs are standard-library packages whose exported call surface
// used by this codebase is allocation-free AND non-blocking. This allowlist
// is the analyzers' trust boundary: standard-library bodies are never
// analyzed, so an entry here is a human assertion, audited when added and
// re-audited when the closure analyzer surfaces a new call site. Packages
// that call back into module code through an interface (container/heap) do
// not widen the boundary — the callback re-enters the closure through the
// CHA edges at the module call sites that constructed the container.
var hotAllowedPkgs = map[string]bool{
	"sync/atomic":    true,
	"math":           true,
	"math/rand/v2":   true, // global funcs read per-thread runtime state
	"unicode":        true,
	"container/heap": true, // operates in place over an interface it is handed
}

// hotAllowedFuncs are individually vetted allocation-free, non-blocking
// standard-library functions and methods from packages too broad to
// allowlist wholesale: monotonic-clock reads and pure time.Duration
// arithmetic return stack scalars and never park. These make the injected-
// clock pattern verifiable — the literal a //dbwlm:dyncall-justified clock
// field resolves to is still analyzed, and its time.Since call lands here.
var hotAllowedFuncs = map[string]bool{
	"time.Now":          true,
	"time.Since":        true,
	"time.Until":        true,
	"time.Nanoseconds":  true,
	"time.Microseconds": true,
	"time.Milliseconds": true,
	"time.Seconds":      true,
	"time.Minutes":      true,
	"time.Hours":        true,
}

func runHotPath(m *Module, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.Ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil || !m.hot[fn] {
				continue
			}
			w := &hotWalker{m: m, pkg: pkg, fn: fn}
			w.prepass(fd.Body)
			w.walk(fd.Body)
			diags = append(diags, w.diags...)
		}
	}
	return diags
}

type hotWalker struct {
	m     *Module
	pkg   *Package
	fn    *types.Func
	diags []Diagnostic

	// analyzer, when set, re-brands the walker for an interprocedural pass
	// (hotclosure): findings carry that name and the witness chain, and the
	// "calls non-hotpath" rule is skipped — the closure traversal descends
	// into callees itself instead of demanding annotations on them.
	analyzer string
	chain    []string

	callFun    map[ast.Node]bool     // expressions in call-Fun position
	deferLit   map[ast.Node]bool     // FuncLits that are a defer's call
	directOnly map[*ast.FuncLit]bool // closures bound to a var used only in call position
	litBounds  map[*ast.FuncLit]token.Pos
}

func (w *hotWalker) errf(pos token.Pos, format string, args ...any) {
	name := w.analyzer
	if name == "" {
		name = "hotpath"
	}
	d := w.m.diag(name, pos, format, args...)
	d.Chain = w.chain
	w.diags = append(w.diags, d)
}

// prepass records which expressions sit in call position, which closures are
// deferred calls, and which closures are bound to a variable that is only
// ever called directly (and therefore never escapes).
func (w *hotWalker) prepass(body *ast.BlockStmt) {
	w.callFun = make(map[ast.Node]bool)
	w.deferLit = make(map[ast.Node]bool)
	w.directOnly = make(map[*ast.FuncLit]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			w.callFun[ast.Unparen(n.Fun)] = true
		case *ast.DeferStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				w.deferLit[lit] = true
			}
		}
		return true
	})
	// name := func(...){...} with every use of name a direct call.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Tok != token.DEFINE {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		lit, ok := as.Rhs[0].(*ast.FuncLit)
		if !ok {
			return true
		}
		obj := w.pkg.Info.Defs[id]
		if obj == nil {
			return true
		}
		escapes := false
		ast.Inspect(body, func(u ast.Node) bool {
			if uid, ok := u.(*ast.Ident); ok && w.pkg.Info.Uses[uid] == obj && !w.callFun[uid] {
				escapes = true
			}
			return true
		})
		if !escapes {
			w.directOnly[lit] = true
		}
		return true
	})
}

func (w *hotWalker) walk(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			w.errf(n.Pos(), "go statement in hotpath function (allocates a goroutine)")
		case *ast.CallExpr:
			w.checkCall(n)
		case *ast.CompositeLit:
			w.checkCompositeLit(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					w.errf(n.Pos(), "&T{...} in hotpath function escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := w.typeOf(n); t != nil && isStringType(t) {
					w.errf(n.Pos(), "string concatenation in hotpath function allocates")
				}
			}
		case *ast.SelectorExpr:
			w.checkMethodValue(n)
		case *ast.FuncLit:
			w.checkFuncLit(n)
			return false // body walked by checkFuncLit
		}
		return true
	})
}

func (w *hotWalker) typeOf(e ast.Expr) types.Type {
	if tv, ok := w.pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func (w *hotWalker) checkCall(call *ast.CallExpr) {
	info := w.pkg.Info
	if b := builtinOf(info, call); b != "" {
		switch b {
		case "make":
			w.errf(call.Pos(), "make in hotpath function allocates")
		case "new":
			w.errf(call.Pos(), "new in hotpath function allocates")
		case "append":
			w.errf(call.Pos(), "append in hotpath function allocates (amortized)")
		case "print", "println":
			w.errf(call.Pos(), "debug print builtin in hotpath function")
		}
		return
	}
	if isConversion(info, call) {
		w.checkConversion(call)
		return
	}
	fn := calleeOf(info, call)
	if fn == nil {
		// A call through a function value (the runtime's injected clock): the
		// dynamic target is unknowable statically; trusted by design.
		w.checkBoxing(call)
		return
	}
	w.checkBoxing(call)
	switch {
	case fn.Pkg() == nil:
		// error.Error and other universe-scope methods.
	case w.m.isModuleFunc(fn):
		if !w.m.hot[fn] && w.analyzer == "" {
			w.errf(call.Pos(), "hotpath function calls non-hotpath %s.%s",
				fn.Pkg().Name(), fn.Name())
		}
	case hotAllowedFuncs[fn.Pkg().Path()+"."+fn.Name()]:
		// An individually vetted allocation-free, non-blocking function.
	case !hotAllowedPkgs[fn.Pkg().Path()]:
		if fn.Pkg().Path() == "fmt" {
			w.errf(call.Pos(), "fmt.%s in hotpath function allocates", fn.Name())
		} else {
			w.errf(call.Pos(), "call to %s.%s outside the hotpath stdlib allowlist",
				fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkBoxing flags arguments boxed into interface parameters and the slice
// allocated by a non-empty variadic call.
func (w *hotWalker) checkBoxing(call *ast.CallExpr) {
	tv, ok := w.pkg.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	np := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(np - 1).Type() // spread: arg is already the slice
			} else {
				if i == np-1 {
					w.errf(call.Pos(), "variadic call to %s allocates its argument slice",
						types.ExprString(call.Fun))
				}
				if s, ok := params.At(np - 1).Type().Underlying().(*types.Slice); ok {
					pt = s.Elem()
				}
			}
		case i < np:
			pt = params.At(i).Type()
		}
		if pt == nil || !isInterface(pt) {
			continue
		}
		at := w.typeOf(arg)
		if at == nil || isInterface(at) || pointerShaped(at) {
			continue
		}
		if tv, ok := w.pkg.Info.Types[arg]; ok && tv.Value != nil {
			continue // constants box through static data
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		w.errf(arg.Pos(), "%s value boxed into interface parameter allocates", at.String())
	}
}

func (w *hotWalker) checkConversion(call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	to := w.typeOf(call.Fun)
	from := w.typeOf(call.Args[0])
	if to == nil || from == nil {
		return
	}
	switch {
	case isStringType(to) && !isStringType(from):
		if _, isSlice := from.Underlying().(*types.Slice); isSlice {
			w.errf(call.Pos(), "[]byte/[]rune to string conversion in hotpath function allocates")
		} else if b, ok := from.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			w.errf(call.Pos(), "integer to string conversion in hotpath function allocates")
		}
	case isByteOrRuneSlice(to) && isStringType(from):
		w.errf(call.Pos(), "string to %s conversion in hotpath function allocates", to.String())
	case isInterface(to) && !isInterface(from) && !pointerShaped(from):
		w.errf(call.Pos(), "conversion of %s to interface in hotpath function allocates", from.String())
	}
}

func (w *hotWalker) checkCompositeLit(lit *ast.CompositeLit) {
	t := w.typeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		w.errf(lit.Pos(), "map literal in hotpath function allocates")
	case *types.Slice:
		w.errf(lit.Pos(), "slice literal in hotpath function allocates")
	}
	// Struct and array value literals stay on the stack unless they escape;
	// the &T{...} escape form is flagged by the UnaryExpr case.
}

// checkMethodValue flags x.M used as a value (a bound-method closure, which
// allocates) rather than called.
func (w *hotWalker) checkMethodValue(sel *ast.SelectorExpr) {
	if w.callFun[sel] {
		return
	}
	if s, ok := w.pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		w.errf(sel.Pos(), "method value %s allocates a bound closure", types.ExprString(sel))
	}
}

func (w *hotWalker) checkFuncLit(lit *ast.FuncLit) {
	switch {
	case w.directOnly[lit], w.deferLit[lit]:
		// Never escapes (only called directly / the immediate call of a
		// defer): stack-allocated. Its body still runs on the hot path.
	default:
		if capt := w.captures(lit); capt != "" {
			w.errf(lit.Pos(), "closure capturing %s in hotpath function allocates", capt)
		}
	}
	w.walk(lit.Body)
}

// captures reports a variable the literal captures from its enclosing
// function ("" when it captures nothing).
func (w *hotWalker) captures(lit *ast.FuncLit) string {
	found := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found != "" {
			return found == ""
		}
		v, ok := w.pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Parent() == nil || v.Parent().Parent() == types.Universe {
			return true // fields, package-level vars, and non-vars never capture
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			found = v.Name()
		}
		return true
	})
	return found
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
