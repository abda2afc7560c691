package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder forbids nested locking: acquiring a lock while holding another is
// a finding, whether the second Lock is in the same function or somewhere
// beneath a call made with the first held — through a direct call, a resolved
// function value, or CHA interface dispatch; //dbwlm:locked callees start
// with their contract mutex held. A lock-order deadlock needs a cycle in the
// acquired-while-holding graph, a cycle needs an edge, and every edge is a
// nested acquisition, so a module with no nesting has no such deadlock — and
// the rule needs no graph. A nesting that is wanted carries
//
//	//dbwlm:nolint lockorder -- <the global order that makes it safe>
//
// on the acquiring line (or the call that reaches it).
//
// Lock identity is abstracted to the declaration site — a struct's mutex
// field ("rt.Runtime.mu") or a package-level mutex variable
// ("policy.reloadMu") — and a second instance of the same abstract lock
// counts: two goroutines pairing two instances in opposite orders deadlock
// just as surely. Re-locking the very same expression is left to the walker's
// imprecision (lockwalk.go) rather than reported. RLock counts as an
// acquisition: reader/reader pairs cannot deadlock alone, but a writer
// elsewhere makes the order real. Locals and other mutexes with no
// declaration-site name are not tracked.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "no lock is acquired while another is held, directly or through a callee",
	Run: func(m *Module, pkg *Package) []Diagnostic {
		return m.preDiags["lockorder"][pkg]
	},
}

// lockAcqs is the abstract locks a node acquires, each mapped to the callee
// it is reached through — nil when the node takes it itself.
type lockAcqs map[string]*cgNode

// runLockOrder reports nested acquisitions module-wide, at fact-build time.
func (m *Module) runLockOrder() {
	g := m.cg
	// report files "acquires key while holding ...", for every named lock in
	// held other than the instance being acquired (relocked).
	report := func(n *cgNode, pos token.Pos, key string, held heldLocks, relocked string, path []string) {
		var holding []string
		for mu, h := range held {
			if h != "" && mu != relocked {
				holding = append(holding, h)
			}
		}
		if len(holding) == 0 {
			return
		}
		sort.Strings(holding)
		d := m.diag("lockorder", pos, "acquires %s while holding %s", key, strings.Join(holding, ", "))
		if path != nil {
			d.Chain = append([]string{n.name}, path...)
		}
		m.addPreDiag("lockorder", n.pkg, d)
	}

	// Pass 1: walk every body once, recording the locks it acquires itself
	// and every resolved call with the locks held around it. A literal's
	// statements are walked from its creator, under the locks held there, so
	// the creator owns their acquisitions and calls and declared functions
	// do all the reporting; a literal's own walk only summarizes it for the
	// callers that reach it through a function value.
	type callSite struct {
		call *ast.CallExpr
		held heldLocks
	}
	acq := make(map[*cgNode]lockAcqs, len(g.all))
	sites := make(map[*cgNode][]callSite)
	for _, n := range g.all {
		acq[n] = make(lockAcqs)
		w := &lockWalker{
			pkg: n.pkg,
			acquire: func(call *ast.CallExpr, mu string, held heldLocks) string {
				key := lockKeyOf(n.pkg.Info, call)
				if key == "" {
					return ""
				}
				acq[n][key] = nil
				if n.fn != nil {
					report(n, call.Pos(), key, held, mu, nil)
				}
				return key
			},
			visit: func(x ast.Node, held heldLocks) {
				if call, ok := x.(*ast.CallExpr); ok && len(g.calls[call]) > 0 {
					sites[n] = append(sites[n], callSite{call, held.clone()})
				}
			},
		}
		held := make(heldLocks)
		if n.fn != nil {
			if mu := m.lockedBy[n.fn]; mu != "" {
				held["<caller>."+mu] = recvLockKey(n.fn, mu)
			}
		}
		w.walkStmts(n.body.List, held)
	}

	// Pass 2: close acquisitions over the calls to a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, n := range g.all {
			for _, cs := range sites[n] {
				for _, t := range g.calls[cs.call] {
					for k := range acq[t] {
						if _, ok := acq[n][k]; !ok {
							acq[n][k] = t
							changed = true
						}
					}
				}
			}
		}
	}

	// Pass 3: a call made with a lock held nests everything its targets
	// acquire; one finding per acquired lock, witnessed by the first target
	// that reaches it.
	for _, n := range g.all {
		if n.fn == nil {
			continue
		}
		for _, cs := range sites[n] {
			if len(cs.held) == 0 {
				continue
			}
			seen := make(map[string]bool)
			for _, t := range g.calls[cs.call] {
				for _, k := range sortedKeys(acq[t]) {
					if !seen[k] {
						seen[k] = true
						report(n, cs.call.Pos(), k, cs.held, "", acqPath(acq, t, k))
					}
				}
			}
		}
	}
}

// acqPath renders the call path from t down to the function directly
// acquiring k.
func acqPath(acq map[*cgNode]lockAcqs, t *cgNode, k string) []string {
	var path []string
	for ; t != nil; t = acq[t][k] {
		path = append(path, t.name)
	}
	return path
}

func sortedKeys(m lockAcqs) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lockKeyOf abstracts the mutex a Lock/Unlock call operates on to its
// declaration site: "pkg.Type.field" for struct mutexes (embedded ones hash
// as the embedded type name), "pkg.var" for package-level mutexes, "" for
// locals and unresolvable shapes.
func lockKeyOf(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	mx := ast.Unparen(sel.X)
	t := typeOfExpr(info, mx)
	if t != nil && !isSyncLockType(t) {
		// Promoted Lock through an embedded mutex: key by the outer type.
		if name := namedName(t); name != "" {
			return name + ".Mutex"
		}
		return ""
	}
	switch mx := mx.(type) {
	case *ast.SelectorExpr:
		fv, ok := info.Uses[mx.Sel].(*types.Var)
		if !ok || !fv.IsField() {
			return ""
		}
		if owner := namedName(typeOfExpr(info, mx.X)); owner != "" {
			return owner + "." + fv.Name()
		}
	case *ast.Ident:
		v, ok := objOf(info, mx).(*types.Var)
		if !ok || v.Pkg() == nil {
			return ""
		}
		if v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
	}
	return ""
}

func isSyncLockType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" &&
		(named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex")
}

// namedName renders a (possibly pointer-to) named type as "pkg.Type".
func namedName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	if p := named.Obj().Pkg(); p != nil {
		return p.Name() + "." + named.Obj().Name()
	}
	return named.Obj().Name()
}

// recvLockKey resolves a //dbwlm:locked contract mutex on fn's receiver type
// to an abstract key.
func recvLockKey(fn *types.Func, mu string) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if owner := namedName(sig.Recv().Type()); owner != "" {
		return owner + "." + mu
	}
	return ""
}
