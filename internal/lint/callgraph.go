package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module-wide static call graph the interprocedural
// analyzers (hotpath, lockorder) walk. Nodes are analyzable bodies:
// declared functions and methods, plus function literals (a literal is its
// own node so a closure handed to another package is analyzed once, with
// chains that name its creation site). Edges are, in decreasing order of
// certainty:
//
//   - direct calls to module functions and methods (including method
//     expressions T.M and go/defer statements)
//   - method values (x.M used as a value binds a closure that may be called
//     anywhere; the edge is added at the binding site)
//   - function references (a named module function passed or assigned as a
//     value may be called by whoever receives it)
//   - function literals (creating one is treated as potentially calling it)
//   - calls through function-typed variables, fields, and parameters,
//     resolved best-effort against every function value observed flowing
//     into that variable anywhere in the module (CHA over value flow)
//   - interface method calls, resolved CHA-style against every module type
//     implementing the interface
//
// A call through a function value none of whose targets can be resolved —
// or any of whose observed sources is an external function we cannot
// analyze — is recorded as an unresolved dynamic call; hotpath demands a
// //dbwlm:dyncall justification for those (the injected-clock pattern).
// _test.go files contribute neither nodes nor value-flow facts: tests may
// inject blocking fakes freely without widening the production closure.

// cgNode is one analyzable body in the call graph.
type cgNode struct {
	fn   *types.Func  // nil for function literals
	lit  *ast.FuncLit // nil for declared functions
	pkg  *Package
	file *File
	body *ast.BlockStmt
	name string // display name ("rt.(*Runtime).Admit", "func literal (rt.go:42)")

	edges []cgEdge
	dyn   []dynSite // unresolved dynamic call sites
}

// cgEdge is one may-call edge, positioned at the site that creates it.
type cgEdge struct {
	to   *cgNode
	pos  token.Pos
	desc string // "calls", "binds method value", "references", ...
}

// dynSite is a call whose target set could not be fully resolved.
type dynSite struct {
	pos       token.Pos
	expr      string // rendered callee expression
	justified bool   // a //dbwlm:dyncall covers the call or the callee's declaration
}

// callGraph is the module-wide graph plus the value-flow table it was
// resolved against.
type callGraph struct {
	m     *Module
	nodes map[*types.Func]*cgNode
	lits  map[*ast.FuncLit]*cgNode
	all   []*cgNode // sorted by (file, line, col)
	// calls maps each call expression to its resolved module targets, for
	// analyses (lockorder) that need per-site resolution with local state.
	calls map[*ast.CallExpr][]*cgNode

	// flows maps function-typed variables (fields, locals, params,
	// package-level vars) to the candidate targets observed flowing into
	// them. A nil entry in the slice marks an unanalyzable source (an
	// external function, a call result, an interface downcast).
	flows map[*types.Var][]*cgNode
	// flowVars links variables assigned from other function-typed variables,
	// so candidates propagate (v1 = v2).
	flowVars map[*types.Var][]*types.Var
	// extern marks variables observed receiving an unanalyzable source.
	extern map[*types.Var]bool

	// methodsByName indexes module methods for CHA interface resolution.
	methodsByName map[string][]*cgNode
}

// buildCallGraph constructs nodes, collects value flow, then resolves edges.
func (m *Module) buildCallGraph() *callGraph {
	g := &callGraph{
		m:             m,
		nodes:         make(map[*types.Func]*cgNode),
		lits:          make(map[*ast.FuncLit]*cgNode),
		calls:         make(map[*ast.CallExpr][]*cgNode),
		flows:         make(map[*types.Var][]*cgNode),
		flowVars:      make(map[*types.Var][]*types.Var),
		extern:        make(map[*types.Var]bool),
		methodsByName: make(map[string][]*cgNode),
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			for _, decl := range f.Ast.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				n := &cgNode{fn: fn, pkg: pkg, file: f, body: fd.Body, name: m.funcName(fn)}
				g.nodes[fn] = n
				g.all = append(g.all, n)
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					g.methodsByName[fn.Name()] = append(g.methodsByName[fn.Name()], n)
				}
				g.addLitNodes(n, fd.Body)
			}
		}
	}
	g.sortNodes()
	for _, n := range g.all {
		g.collectFlow(n)
	}
	g.propagateFlow()
	for _, n := range g.all {
		g.resolveEdges(n)
	}
	for _, n := range g.all {
		sortEdges(m, n.edges)
	}
	return g
}

// addLitNodes creates a node per function literal in body (the literals
// nested inside other literals belong to the inner node).
func (g *callGraph) addLitNodes(owner *cgNode, body *ast.BlockStmt) {
	var walk func(n ast.Node, owner *cgNode)
	walk = func(n ast.Node, owner *cgNode) {
		ast.Inspect(n, func(x ast.Node) bool {
			lit, ok := x.(*ast.FuncLit)
			if !ok {
				return true
			}
			p := g.m.Fset.Position(lit.Pos())
			ln := &cgNode{
				lit: lit, pkg: owner.pkg, file: owner.file, body: lit.Body,
				name: fmt.Sprintf("func literal (%s:%d)", baseName(p.Filename), p.Line),
			}
			g.lits[lit] = ln
			g.all = append(g.all, ln)
			walk(lit.Body, ln)
			return false
		})
	}
	walk(body, owner)
}

// node is fn's node, nil for functions outside the module. A method of an
// instantiated generic type resolves to its declared origin.
func (g *callGraph) node(fn *types.Func) *cgNode { return g.nodes[fn.Origin()] }

func (g *callGraph) sortNodes() {
	m := g.m
	sort.Slice(g.all, func(i, j int) bool {
		a := m.Fset.Position(g.all[i].pos())
		b := m.Fset.Position(g.all[j].pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}

func (n *cgNode) pos() token.Pos {
	if n.fn != nil {
		return n.fn.Pos()
	}
	return n.lit.Pos()
}

// inspectOwn walks the statements belonging to node n itself: a nested
// function literal is visited (its creation belongs to n) but not entered
// (its body is a node of its own).
func (n *cgNode) inspectOwn(fn func(ast.Node) bool) {
	ast.Inspect(n.body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			fn(x)
			return false
		}
		return fn(x)
	})
}

// collectFlow records function values flowing into variables: assignments,
// var specs, composite literal fields, and call arguments.
func (g *callGraph) collectFlow(n *cgNode) {
	info := n.pkg.Info
	n.inspectOwn(func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if i >= len(x.Rhs) {
					break // multi-value assignment from a call: unanalyzable
				}
				if v := g.lhsVar(info, lhs); v != nil {
					g.recordFlow(v, x.Rhs[i], info)
				}
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if i >= len(x.Values) {
					break
				}
				if v, ok := objOf(info, name).(*types.Var); ok && isFuncType(v.Type()) {
					g.recordFlow(v, x.Values[i], info)
				}
			}
		case *ast.CompositeLit:
			g.flowCompositeLit(info, x)
		case *ast.CallExpr:
			g.flowCallArgs(info, x)
		}
		return true
	})
}

func (g *callGraph) lhsVar(info *types.Info, lhs ast.Expr) *types.Var {
	var v *types.Var
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		v, _ = objOf(info, lhs).(*types.Var)
	case *ast.SelectorExpr:
		v, _ = info.Uses[lhs.Sel].(*types.Var)
	}
	if v == nil || !isFuncType(v.Type()) {
		return nil
	}
	return v
}

// flowCompositeLit records T{Field: fn} and positional struct literal fields.
func (g *callGraph) flowCompositeLit(info *types.Info, cl *ast.CompositeLit) {
	tv, ok := info.Types[cl]
	if !ok {
		return
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return
	}
	byName := make(map[string]*types.Var, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		byName[st.Field(i).Name()] = st.Field(i)
	}
	for i, el := range cl.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				if fv := byName[id.Name]; fv != nil && isFuncType(fv.Type()) {
					g.recordFlow(fv, kv.Value, info)
				}
			}
			continue
		}
		if i < st.NumFields() && isFuncType(st.Field(i).Type()) {
			g.recordFlow(st.Field(i), el, info)
		}
	}
}

// flowCallArgs records function values passed as arguments to module
// functions, flowing into the callee's parameter variables.
func (g *callGraph) flowCallArgs(info *types.Info, call *ast.CallExpr) {
	fn := calleeOf(info, call)
	if fn == nil || !g.m.isModuleFunc(fn) {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if sig.Variadic() && i >= params.Len()-1 {
			break // variadic func slices are called through index exprs we don't track
		}
		if i >= params.Len() {
			break
		}
		if pv := params.At(i); isFuncType(pv.Type()) {
			g.recordFlow(pv, arg, info)
		}
	}
}

// recordFlow resolves one source expression into flow facts for variable v.
func (g *callGraph) recordFlow(v *types.Var, src ast.Expr, info *types.Info) {
	src = ast.Unparen(src)
	switch src := src.(type) {
	case *ast.FuncLit:
		if ln := g.lits[src]; ln != nil {
			g.flows[v] = append(g.flows[v], ln)
		}
		return
	case *ast.Ident:
		switch obj := objOf(info, src).(type) {
		case *types.Func:
			g.flowFunc(v, obj)
			return
		case *types.Var:
			if isFuncType(obj.Type()) {
				g.flowVars[v] = append(g.flowVars[v], obj)
				return
			}
		case nil:
			return // untyped nil literal: never called
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[src.Sel].(*types.Func); ok {
			g.flowFunc(v, fn)
			return
		}
		if fv, ok := info.Uses[src.Sel].(*types.Var); ok && isFuncType(fv.Type()) {
			g.flowVars[v] = append(g.flowVars[v], fv)
			return
		}
	}
	if tv, ok := info.Types[src]; ok && isFuncType(tv.Type) {
		g.extern[v] = true // a call result or other opaque source
	}
}

func (g *callGraph) flowFunc(v *types.Var, fn *types.Func) {
	if n := g.node(fn); n != nil {
		g.flows[v] = append(g.flows[v], n)
	} else {
		g.extern[v] = true // external function: body invisible
	}
}

// propagateFlow closes candidate sets over v1 = v2 variable links.
func (g *callGraph) propagateFlow() {
	for changed := true; changed; {
		changed = false
		vars := make([]*types.Var, 0, len(g.flowVars))
		for v := range g.flowVars {
			vars = append(vars, v)
		}
		sort.Slice(vars, func(i, j int) bool { return varLess(g.m, vars[i], vars[j]) })
		for _, v := range vars {
			have := make(map[*cgNode]bool, len(g.flows[v]))
			for _, n := range g.flows[v] {
				have[n] = true
			}
			for _, src := range g.flowVars[v] {
				for _, n := range g.flows[src] {
					if !have[n] {
						have[n] = true
						g.flows[v] = append(g.flows[v], n)
						changed = true
					}
				}
				if g.extern[src] && !g.extern[v] {
					g.extern[v] = true
					changed = true
				}
			}
		}
	}
}

func varLess(m *Module, a, b *types.Var) bool {
	pa, pb := m.Fset.Position(a.Pos()), m.Fset.Position(b.Pos())
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	return pa.Offset < pb.Offset
}

// resolveEdges walks one node's body adding edges and unresolved dyn sites.
func (g *callGraph) resolveEdges(n *cgNode) {
	info := n.pkg.Info
	callFun := make(map[ast.Node]bool)
	n.inspectOwn(func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			callFun[ast.Unparen(call.Fun)] = true
		}
		return true
	})
	n.inspectOwn(func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.CallExpr:
			g.resolveCall(n, x)
		case *ast.FuncLit:
			// Creating a literal is treated as potentially calling it.
			if ln := g.lits[x]; ln != nil {
				n.edges = append(n.edges, cgEdge{to: ln, pos: x.Pos(), desc: "creates"})
			}
		case *ast.SelectorExpr:
			if callFun[x] {
				return true
			}
			if s, ok := info.Selections[x]; ok && s.Kind() == types.MethodVal {
				if fn, ok := info.Uses[x.Sel].(*types.Func); ok {
					if tn := g.node(fn); tn != nil {
						n.edges = append(n.edges, cgEdge{to: tn, pos: x.Pos(), desc: "binds method value"})
					}
				}
			}
		case *ast.Ident:
			if callFun[x] {
				return true
			}
			if fn, ok := info.Uses[x].(*types.Func); ok {
				if tn := g.node(fn); tn != nil {
					n.edges = append(n.edges, cgEdge{to: tn, pos: x.Pos(), desc: "references"})
				}
			}
		}
		return true
	})
}

// resolveCall adds edges for one call expression: direct, CHA-interface, or
// value-flow resolved; otherwise an unresolved dynamic site.
func (g *callGraph) resolveCall(n *cgNode, call *ast.CallExpr) {
	info := n.pkg.Info
	if builtinOf(info, call) != "" || isConversion(info, call) {
		return
	}
	// unsafe's pseudo-functions (SliceData, String, ...) resolve to
	// *types.Builtin, not *types.Func: never dynamic, never analyzable.
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, ok := objOf(info, f).(*types.Builtin); ok {
			return
		}
	case *ast.SelectorExpr:
		if _, ok := info.Uses[f.Sel].(*types.Builtin); ok {
			return
		}
	}
	if fn := calleeOf(info, call); fn != nil {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil && isInterface(sig.Recv().Type()) {
			g.resolveInterfaceCall(n, call, fn)
			return
		}
		if tn := g.node(fn); tn != nil {
			n.edges = append(n.edges, cgEdge{to: tn, pos: call.Pos(), desc: "calls"})
			g.calls[call] = append(g.calls[call], tn)
		}
		return // external concrete function: the allowlists judge it
	}
	// Immediately-invoked literal: a direct edge, not a dynamic call.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		if tn := g.lits[lit]; tn != nil {
			n.edges = append(n.edges, cgEdge{to: tn, pos: call.Pos(), desc: "calls"})
			g.calls[call] = append(g.calls[call], tn)
		}
		return
	}
	// A call through a function value: resolve via observed flow. A
	// //dbwlm:dyncall on the call (or on the declaration of the variable it
	// dispatches through) is a trusted boundary — the maintainer asserts the
	// dispatch is acceptable here — so no closure edges are added: generic
	// dispatchers (the simulator's event loop) would otherwise pull every
	// callback ever scheduled into every hot closure.
	var v *types.Var
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		v, _ = objOf(info, f).(*types.Var)
	case *ast.SelectorExpr:
		v, _ = info.Uses[f.Sel].(*types.Var)
	}
	justified := g.m.dyncallCovers(call.Pos())
	if v != nil && g.m.dyncallCovers(v.Pos()) {
		justified = true
	}
	if justified {
		n.dyn = append(n.dyn, dynSite{
			pos: call.Pos(), expr: types.ExprString(call.Fun), justified: true,
		})
		return
	}
	if v != nil && !g.extern[v] && len(g.flows[v]) > 0 {
		for _, tn := range g.flows[v] {
			n.edges = append(n.edges, cgEdge{to: tn, pos: call.Pos(), desc: "calls via " + v.Name()})
			g.calls[call] = append(g.calls[call], tn)
		}
		return
	}
	n.dyn = append(n.dyn, dynSite{
		pos: call.Pos(), expr: types.ExprString(call.Fun), justified: false,
	})
}

// resolveInterfaceCall adds CHA edges: every module method with the callee's
// name whose receiver type implements the interface may be the target.
func (g *callGraph) resolveInterfaceCall(n *cgNode, call *ast.CallExpr, fn *types.Func) {
	iface, ok := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return
	}
	for _, tn := range g.methodsByName[fn.Name()] {
		recv := tn.fn.Type().(*types.Signature).Recv().Type()
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			n.edges = append(n.edges, cgEdge{to: tn, pos: call.Pos(), desc: "dispatches to"})
			g.calls[call] = append(g.calls[call], tn)
		}
	}
}

// dyncallCovers reports whether a //dbwlm:dyncall directive covers pos (its
// own line or the line above), marking it used.
func (m *Module) dyncallCovers(pos token.Pos) bool {
	if !pos.IsValid() {
		return false
	}
	f := m.fileOf(pos)
	if f == nil {
		return false
	}
	line := m.Fset.Position(pos).Line
	for i := range f.dyn {
		d := &f.dyn[i]
		if d.line == line || d.line == line-1 {
			d.used = true
			return true
		}
	}
	return false
}

func sortEdges(m *Module, edges []cgEdge) {
	sort.SliceStable(edges, func(i, j int) bool {
		a, b := m.Fset.Position(edges[i].pos), m.Fset.Position(edges[j].pos)
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Offset != b.Offset {
			return a.Offset < b.Offset
		}
		return edges[i].to.name < edges[j].to.name
	})
}

// funcName renders a function for chains: "rt.(*Runtime).Admit", "sim.New".
func (m *Module) funcName(fn *types.Func) string {
	pkg := ""
	if p := fn.Pkg(); p != nil {
		pkg = p.Name() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			t, ptr = p.Elem(), "*"
		}
		name := t.String()
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name()
		}
		if ptr != "" {
			return pkg + "(*" + name + ")." + fn.Name()
		}
		return pkg + name + "." + fn.Name()
	}
	return pkg + fn.Name()
}

func isFuncType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

func baseName(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
