package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPath holds every function reachable from a //dbwlm:hotpath root to the
// admission fast path's contract: no allocation, no blocking. An annotation
// marks a root; the traversal descends from there over the static call graph
// (callgraph.go: direct calls, method values, function-typed fields,
// CHA-resolved interface dispatch), so helpers need no annotation of their
// own. The 0-allocs/op figures (the AllocsPerRun tests in internal/rt) are the
// ground truth; this analyzer pins their syntactic half so a drive-by edit
// three calls below a root cannot silently put an allocation or a lock back.
// Every finding prints the witness call chain from its root.
//
// Allocating constructs flagged in every reached body:
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
//   - calls into standard-library packages outside a small allowlist of
//     allocation-free ones
//
// Blocking constructs flagged in every reached body:
//
//   - sync lock acquisition (Mutex/RWMutex Lock and RLock), sync.WaitGroup
//     and sync.Cond Wait, sync.Once.Do, and any sync.Map method (its slow
//     path takes an internal mutex)
//   - channel sends, receives, selects, and ranges over channels
//   - time.Sleep and the timer constructors (After, Tick, NewTimer,
//     NewTicker)
//   - calls into I/O packages (os, io, bufio, net, syscall, os/exec,
//     database/sql, log, and fmt's writer-printing half) and into reflect
//   - calls through function values whose target set cannot be resolved
//     from observed value flow, unless the call or the function-typed
//     declaration it dispatches through carries //dbwlm:dyncall -- <reason>
//
// An error built by fmt.Errorf or errors.New as a return operand is the
// reject path leaving the closure: it is not a finding, and neither is
// anything its arguments do. Built into a variable first, or built and not
// returned, it is.
//
// A //dbwlm:nolint hotpath on a line waives that line's findings and prunes
// the call edges leaving it: one reasoned waiver at the boundary where a hot
// path deliberately enters slow-path code silences the whole subtree, instead
// of demanding one on every leaf statement beneath it.
//
// Known soundness gaps, deliberate: panics are trusted; value composite
// literals are allowed because the paths this guards pass them by value,
// where escape analysis keeps them on the stack. Bodies of standard-library
// functions are never analyzed — the hotAllowedPkgs/hotAllowedFuncs allowlists
// are the audited assertion that their call surface neither allocates nor
// blocks.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "functions reachable from //dbwlm:hotpath roots must be alloc-free and non-blocking",
	Run: func(m *Module, pkg *Package) []Diagnostic {
		return m.preDiags["hotpath"][pkg]
	},
}

// hotAllowedPkgs are standard-library packages whose exported call surface
// used by this codebase is allocation-free AND non-blocking. This allowlist
// is the analyzers' trust boundary: standard-library bodies are never
// analyzed, so an entry here is a human assertion, audited when added and
// re-audited when the traversal surfaces a new call site. Packages
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

// ioPkgs are standard-library packages whose calls mean I/O (or reflection):
// never acceptable on a hot closure.
var ioPkgs = map[string]bool{
	"os": true, "io": true, "io/fs": true, "io/ioutil": true, "bufio": true,
	"net": true, "net/http": true, "syscall": true, "os/exec": true,
	"os/signal": true, "database/sql": true, "log": true, "log/slog": true,
	"reflect": true, "runtime/pprof": true,
}

// runHotPath walks the closure once, at fact-build time, distributing
// findings to the packages that anchor them and recording the reached
// functions for noescape-test.
func (m *Module) runHotPath() {
	g := m.cg
	parent := make(map[*cgNode]*cgNode)
	reached := make(map[*cgNode]bool)
	var queue []*cgNode
	for _, n := range g.all { // sorted: the BFS, and so every chain, is deterministic
		if n.fn != nil && m.hot[n.fn] {
			reached[n] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.edges {
			// The waiver is consulted first so it counts as used wherever the
			// traversal meets it, not only where it happens to arrive first.
			if m.waived("hotpath", e.pos) || reached[e.to] {
				continue
			}
			reached[e.to] = true
			parent[e.to] = n
			queue = append(queue, e.to)
		}
	}
	m.hotReach = make(map[*types.Func]bool)
	for _, n := range g.all {
		if !reached[n] {
			continue
		}
		if n.fn != nil {
			m.hotReach[n.fn] = true
		}
		w := &hotWalker{m: m, n: n, chain: chainTo(parent, n)}
		w.prepass()
		n.inspectOwn(w.check)
		for _, dyn := range n.dyn {
			if !dyn.justified {
				w.errf(dyn.pos,
					"call through function value %s with unresolvable targets on a hot closure (resolve it, or justify with //dbwlm:dyncall -- <reason> on the call or the declaration it dispatches through)",
					dyn.expr)
			}
		}
	}
}

// chainTo reconstructs the witness chain root -> ... -> n.
func chainTo(parent map[*cgNode]*cgNode, n *cgNode) []string {
	var rev []string
	for c := n; c != nil; c = parent[c] {
		rev = append(rev, c.name)
	}
	chain := make([]string, len(rev))
	for i := range rev {
		chain[i] = rev[len(rev)-1-i]
	}
	return chain
}

// hotWalker checks one reached body; findings land on the module under the
// node's package, carrying the chain that reached it.
type hotWalker struct {
	m     *Module
	n     *cgNode
	chain []string

	callFun    map[ast.Node]bool     // expressions in call-Fun position
	deferLit   map[ast.Node]bool     // FuncLits that are a defer's call
	directOnly map[*ast.FuncLit]bool // closures bound to a var used only in call position
	rejectErr  map[ast.Node]bool     // fmt.Errorf/errors.New calls that are return operands
}

func (w *hotWalker) errf(pos token.Pos, format string, args ...any) {
	d := w.m.diag("hotpath", pos, format, args...)
	d.Chain = w.chain
	w.m.addPreDiag("hotpath", w.n.pkg, d)
}

// prepass records which expressions sit in call position, which closures are
// deferred calls, and which closures are bound to a variable that is only
// ever called directly (and therefore never escapes). It looks through nested
// literals: a use of the variable inside one is still a use.
func (w *hotWalker) prepass() {
	body, info := w.n.body, w.n.pkg.Info
	w.callFun = make(map[ast.Node]bool)
	w.deferLit = make(map[ast.Node]bool)
	w.directOnly = make(map[*ast.FuncLit]bool)
	w.rejectErr = make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			w.callFun[ast.Unparen(n.Fun)] = true
		case *ast.DeferStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				w.deferLit[lit] = true
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if call, ok := ast.Unparen(r).(*ast.CallExpr); ok && isErrorCtor(info, call) {
					w.rejectErr[call] = true
				}
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
		obj := info.Defs[id]
		if obj == nil {
			return true
		}
		escapes := false
		ast.Inspect(body, func(u ast.Node) bool {
			if uid, ok := u.(*ast.Ident); ok && info.Uses[uid] == obj && !w.callFun[uid] {
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

// check is the per-statement visitor, run over the node's own statements
// (nested literals are nodes of their own, reached through their creation
// edge).
func (w *hotWalker) check(n ast.Node) bool {
	if w.rejectErr[n] {
		return false // the reject path leaving: it pays for its error, arguments included
	}
	switch n := n.(type) {
	case *ast.GoStmt:
		w.errf(n.Pos(), "go statement in hotpath function (allocates a goroutine)")
	case *ast.CallExpr:
		w.checkCall(n)
	case *ast.CompositeLit:
		w.checkCompositeLit(n)
	case *ast.UnaryExpr:
		switch n.Op {
		case token.AND:
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				w.errf(n.Pos(), "&T{...} in hotpath function escapes to the heap")
			}
		case token.ARROW:
			w.errf(n.Pos(), "channel receive blocks on a hot closure")
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
		if !w.directOnly[n] && !w.deferLit[n] {
			// One only called directly, or the immediate call of a defer, never
			// escapes and stays on the stack.
			if capt := w.captures(n); capt != "" {
				w.errf(n.Pos(), "closure capturing %s in hotpath function allocates", capt)
			}
		}
	case *ast.SendStmt:
		w.errf(n.Pos(), "channel send blocks on a hot closure")
	case *ast.SelectStmt:
		w.errf(n.Pos(), "select blocks on a hot closure")
	case *ast.RangeStmt:
		if t := w.typeOf(n.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				w.errf(n.Pos(), "range over channel blocks on a hot closure")
			}
		}
	}
	return true
}

func (w *hotWalker) typeOf(e ast.Expr) types.Type { return typeOfExpr(w.n.pkg.Info, e) }

func (w *hotWalker) checkCall(call *ast.CallExpr) {
	info := w.n.pkg.Info
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
	w.checkBoxing(call)
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil {
		// A call through a function value is the call graph's to resolve (or
		// report as unresolved); error.Error and other universe-scope methods
		// have nothing to check.
		return
	}
	if d := blockingCall(fn); d != "" {
		w.errf(call.Pos(), "%s", d)
	}
	switch {
	case w.m.isModuleFunc(fn):
		// The traversal descends into it.
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
	tv, ok := w.n.pkg.Info.Types[call.Fun]
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
		if tv, ok := w.n.pkg.Info.Types[arg]; ok && tv.Value != nil {
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
	if s, ok := w.n.pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		w.errf(sel.Pos(), "method value %s allocates a bound closure", types.ExprString(sel))
	}
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
		v, ok := w.n.pkg.Info.Uses[id].(*types.Var)
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

// isErrorCtor reports whether call is fmt.Errorf or errors.New.
func isErrorCtor(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	name := fn.Pkg().Path() + "." + fn.Name()
	return name == "fmt.Errorf" || name == "errors.New"
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

// blockingCall classifies a callee as blocking ("" when it is not).
func blockingCall(fn *types.Func) string {
	path, name := fn.Pkg().Path(), fn.Name()
	switch path {
	case "sync":
		recv := syncRecvName(fn)
		switch {
		case name == "Lock" || name == "RLock":
			return "sync." + recv + "." + name + " blocks on a hot closure"
		case name == "Wait":
			return "sync." + recv + ".Wait blocks on a hot closure"
		case name == "Do" && recv == "Once":
			return "sync.Once.Do blocks until the first call completes"
		case recv == "Map":
			return "sync.Map." + name + " may take its internal mutex on a hot closure"
		}
	case "time":
		switch name {
		case "Sleep":
			return "time.Sleep blocks on a hot closure"
		case "After", "Tick", "NewTimer", "NewTicker", "AfterFunc":
			return "time." + name + " arms a timer on a hot closure"
		}
	case "fmt":
		switch name {
		case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
			return "fmt." + name + " performs I/O on a hot closure"
		}
	}
	if ioPkgs[path] {
		if path == "reflect" {
			return "reflection (reflect." + name + ") on a hot closure"
		}
		return "I/O call " + fn.Pkg().Name() + "." + name + " on a hot closure"
	}
	return ""
}

// syncRecvName names the sync type a method hangs off ("Mutex", "Map", ...).
func syncRecvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
