package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// DeadCode reports product code nothing runs: a non-test function or method
// that no entry point reaches over the module call graph (callgraph.go). The
// entry points are main and every init; whatever a package-level variable's
// initializer references; the exported API of every library package outside
// internal/, which other modules may import; methods whose name and signature
// match a method of error or of a standard-library interface, which the
// standard library calls through interfaces CHA cannot see (the linker keeps
// them by the same test); and declarations carrying //dbwlm:nolint deadcode,
// which keep everything they call. //dbwlm:hotpath states a performance
// contract, not an entry point. Tests add no edges, so a function only tests
// call is a finding: delete it, or move it into the test that uses it.
var DeadCode = &Analyzer{
	Name: "deadcode",
	Doc:  "every non-test function is reachable from a main, an exported library API, or a std-interface method",
	Run: func(m *Module, pkg *Package) []Diagnostic {
		return m.preDiags["deadcode"][pkg]
	},
}

// deadcodeExempt are the module-relative directories whose findings are not
// reported: the benchmark (BENCHMARK.json), which only a benchmark change
// edits and make loc does not count. They still add entry points and edges.
var deadcodeExempt = []string{"internal/bench", "cmd/wlmbench"}

// runDeadCode reports the unreachable declarations at fact-build time.
func (m *Module) runDeadCode() {
	for _, n := range m.unreachable(true) {
		dir := m.relDir(n.pkg)
		if !slices.ContainsFunc(deadcodeExempt, func(e string) bool { return dir == e || strings.HasPrefix(dir, e+"/") }) {
			m.addPreDiag("deadcode", n.pkg, m.diag("deadcode", n.fn.Pos(),
				"%s is reached from no entry point (only tests call it, or nothing does)", n.name))
		}
	}
}

// unreachable lists, in source order, the declared functions no entry point
// reaches. Only with waivers does a //dbwlm:nolint deadcode make its
// declaration an entry point.
func (m *Module) unreachable(waivers bool) []*cgNode {
	g, std := m.cg, m.stdMethods()
	reached := make(map[*cgNode]bool)
	var stack []*cgNode
	visit := func(n *cgNode) {
		if n != nil && !reached[n] {
			reached[n] = true
			stack = append(stack, n)
		}
	}
	walk := func() {
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range n.edges {
				visit(e.to)
			}
		}
	}
	for _, n := range g.all {
		if n.fn != nil && m.isEntry(n, std) {
			visit(n)
		}
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Ast.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR && !f.Test {
					ast.Inspect(gd, func(x ast.Node) bool {
						if id, ok := x.(*ast.Ident); ok {
							if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
								visit(g.node(fn))
							}
						}
						return true
					})
				}
			}
		}
	}
	walk()
	if waivers {
		// Consulted only where a finding would fire, so a waiver on live code
		// is reported unused.
		for _, n := range g.all {
			if n.fn != nil && !reached[n] && m.waived("deadcode", n.fn.Pos()) {
				visit(n)
			}
		}
		walk()
	}
	var dead []*cgNode
	for _, n := range g.all {
		if n.fn != nil && !reached[n] {
			dead = append(dead, n)
		}
	}
	return dead
}

// isEntry reports whether a declared function is an entry point by itself.
func (m *Module) isEntry(n *cgNode, std map[string][]*types.Func) bool {
	fn := n.fn
	method := fn.Type().(*types.Signature).Recv() != nil
	switch {
	case !method && (fn.Name() == "init" || fn.Name() == "main" && n.pkg.Name == "main"):
		return true
	case fn.Exported() && n.pkg.Name != "main" && !slices.Contains(strings.Split(m.relDir(n.pkg), "/"), "internal"):
		return true
	}
	// types.Identical ignores receivers.
	return method && slices.ContainsFunc(std[fn.Name()], func(im *types.Func) bool {
		return types.Identical(fn.Type(), im.Type())
	})
}

// stdMethods indexes by name the exported methods of error and of every
// interface declared at package scope in a non-module package the module
// imports, directly or not.
func (m *Module) stdMethods() map[string][]*types.Func {
	byName := make(map[string][]*types.Func)
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				if im := it.Method(i); im.Exported() {
					byName[im.Name()] = append(byName[im.Name()], im)
				}
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	var scan func(p *types.Package)
	scan = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if !m.inModule(p) {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
					add(tn.Type())
				}
			}
		}
		for _, ip := range p.Imports() {
			scan(ip)
		}
	}
	for _, pkg := range m.Pkgs {
		scan(pkg.Types)
	}
	return byName
}
