package lint

import (
	"go/ast"
	"go/types"
)

// Atomic forbids the pointer-taking half of sync/atomic (AddInt64(&x, ...),
// LoadUint32, CompareAndSwapPointer, ...) anywhere in the module, tests
// included: a word accessed atomically is declared atomic.Int64 & co. With
// the typed form a plain read or write of the word does not compile, so mixed
// plain/atomic access — direct or laundered through a helper's *int64
// parameter — is unrepresentable, and atomic.Int64/Uint64 are 8-byte aligned
// on 32-bit targets by construction. The rule flags any mention of such a
// function, not only calls, so binding one to a variable does not hide it.
var Atomic = &Analyzer{
	Name: "atomic",
	Doc:  "use the sync/atomic types (atomic.Int64 & co), never its pointer-taking functions",
	Run:  runAtomic,
}

func runAtomic(m *Module, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f.Ast, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pkg.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" ||
				fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			diags = append(diags, m.diag("atomic", id.Pos(),
				"atomic.%s operates on a raw word that plain code can also touch (and a 64-bit one may be misaligned on 32-bit targets); declare the word as a sync/atomic type and use its methods",
				fn.Name()))
			return true
		})
	}
	return diags
}
