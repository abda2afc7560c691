// Package lint is dbwlm's in-tree static-analysis suite: seven analyzers over
// go/ast + go/types that machine-check the invariants the runtime's
// correctness and performance rest on — zero-allocation, non-blocking hot
// paths (everything reachable from an annotated root over the static call
// graph), typed atomics only, deterministic iteration in the
// simulation/reporting packages, mutex-guarded field access, no nested
// locking, the coupling between AllocsPerRun tests and the hot paths they
// guard, and no product code that only tests reach. The driver (cmd/wlmlint)
// loads the whole module with full type information using only the standard
// library, keeping go.mod dependency-free.
//
// See DESIGN.md §10 for the analyzer catalogue and the //dbwlm: annotation
// vocabulary.
package lint

import (
	"fmt"
	"go/token"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one finding, positioned in module-relative file coordinates.
// Interprocedural findings carry the witness call chain from the annotated
// root to the function holding the offending statement.
type Diagnostic struct {
	Analyzer string   `json:"analyzer"`
	File     string   `json:"file"` // relative to the module root
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Message  string   `json:"message"`
	Chain    []string `json:"chain,omitempty"`
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
	if len(d.Chain) > 0 {
		s += "\n\tchain: " + strings.Join(d.Chain, " -> ")
	}
	return s
}

// Analyzer is one check. Run inspects a single package; cross-package facts
// (annotation sets, the call graph, the module-wide analyzers' findings) are
// prebuilt on the Module.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(m *Module, pkg *Package) []Diagnostic
}

// Analyzers is the full suite, in reporting order.
var Analyzers = []*Analyzer{
	HotPath,
	Atomic,
	DetLint,
	GuardedBy,
	LockOrder,
	NoEscapeTest,
	DeadCode,
}

var analyzerNames = func() map[string]bool {
	names := make(map[string]bool, len(Analyzers))
	for _, a := range Analyzers {
		names[a.Name] = true
	}
	return names
}()

// validNames renders the suite's analyzer names, in reporting order, for the
// unknown-analyzer error.
func validNames() string {
	names := make([]string, len(Analyzers))
	for i, a := range Analyzers {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// Options tunes one Run.
type Options struct {
	// Analyzers filters by analyzer name (nil runs the full suite).
	Analyzers []string
	// Packages filters which packages' findings are reported, as import-path
	// patterns relative to the module ("./...", "./internal/rt",
	// "internal/rt/...", or full import paths). Analysis always loads and
	// inspects the whole module — cross-package facts demand it — only the
	// reporting is filtered. nil reports everything.
	Packages []string
	// Workers bounds the (analyzer, package) fan-out; 0 means GOMAXPROCS.
	// Output is identical at any worker count: results land in indexed slots
	// and every post-pass (suppression, sorting) runs sequentially.
	Workers int
}

// Run executes the configured analyzers over the module and returns the
// surviving findings: suppressed diagnostics are dropped (their suppressions
// marked used), and — when the full suite runs, whatever the package filter —
// unused suppressions and malformed directives are reported as "directive"
// findings.
// A filter that can select nothing — an analyzer name not in Analyzers, a
// package pattern matching no loaded package — is an error, not a clean run.
func Run(m *Module, opts Options) ([]Diagnostic, error) {
	wantAnalyzer := func(string) bool { return true }
	if len(opts.Analyzers) > 0 {
		set := make(map[string]bool)
		for _, n := range opts.Analyzers {
			if !analyzerNames[n] {
				return nil, fmt.Errorf("lint: unknown analyzer %q (valid: %s)", n, validNames())
			}
			set[n] = true
		}
		wantAnalyzer = func(n string) bool { return set[n] }
	}
	match, err := m.packageMatcher(opts.Packages)
	if err != nil {
		return nil, err
	}

	// Fan the (analyzer, package) grid across workers. Analyzer Run functions
	// only read the module's shared fact tables, so they parallelize freely;
	// everything order-sensitive (suppression marking, directive reporting,
	// sorting) stays on this goroutine.
	type cell struct {
		a   *Analyzer
		pkg *Package
	}
	var work []cell
	for _, a := range Analyzers {
		if !wantAnalyzer(a.Name) {
			continue
		}
		for _, pkg := range m.Pkgs {
			work = append(work, cell{a, pkg})
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(work) {
		workers = max(len(work), 1)
	}
	results := make([][]Diagnostic, len(work))
	var next int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := int(next)
				next++
				mu.Unlock()
				if i >= len(work) {
					return
				}
				results[i] = work[i].a.Run(m, work[i].pkg)
			}
		}()
	}
	wg.Wait()
	var diags []Diagnostic
	for _, ds := range results {
		diags = append(diags, ds...)
	}

	// Apply suppressions: a //dbwlm:nolint comment silences matching
	// analyzers on its own line and the line below it.
	kept := diags[:0]
	for _, d := range diags {
		if m.waivedAt(d.Analyzer, m.absFile(d.File), d.Line) {
			continue
		}
		kept = append(kept, d)
	}
	diags = kept

	// Directive hygiene needs every analyzer to have had its chance to use a
	// suppression; a package filter narrows only what is reported (below).
	if len(opts.Analyzers) == 0 {
		diags = append(diags, m.dirDiags...)
		for _, pkg := range m.Pkgs {
			for _, f := range pkg.Files {
				for i := range f.suppress {
					if !f.suppress[i].used {
						diags = append(diags, Diagnostic{
							Analyzer: "directive",
							File:     m.relFile(f.Name),
							Line:     f.suppress[i].line,
							Col:      1,
							Message:  "unused //dbwlm:nolint suppression (nothing it suppresses fires here)",
						})
					}
				}
				for i := range f.dyn {
					if !f.dyn[i].used {
						diags = append(diags, Diagnostic{
							Analyzer: "directive",
							File:     m.relFile(f.Name),
							Line:     f.dyn[i].line,
							Col:      1,
							Message:  "unused //dbwlm:dyncall justification (no unresolved dynamic call dispatches through here)",
						})
					}
				}
			}
		}
	}

	if len(opts.Packages) > 0 {
		kept := diags[:0]
		for _, d := range diags {
			if match(d.File) {
				kept = append(kept, d)
			}
		}
		diags = kept
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// waivedAt reports whether a //dbwlm:nolint naming analyzer covers the line
// (it sits on it or on the line above), marking the suppression used.
func (m *Module) waivedAt(analyzer, file string, line int) bool {
	f := m.byFile[file]
	if f == nil {
		return false
	}
	for i := range f.suppress {
		s := &f.suppress[i]
		if (s.line == line || s.line == line-1) && s.analyzers[analyzer] {
			s.used = true
			return true
		}
	}
	return false
}

// waived is waivedAt for a token position; hotpath prunes its traversal at
// waived call sites with it.
func (m *Module) waived(analyzer string, pos token.Pos) bool {
	p := m.Fset.Position(pos)
	return m.waivedAt(analyzer, p.Filename, p.Line)
}

// packageMatcher compiles CLI package patterns into a predicate over
// module-relative file paths, rejecting a pattern no loaded package matches.
func (m *Module) packageMatcher(patterns []string) (func(file string) bool, error) {
	type pat struct {
		dir string // module-relative package dir, "" = root
		all bool   // trailing /...
	}
	matches := func(p pat, dir string) bool {
		if dir == p.dir {
			return true
		}
		return p.all && (p.dir == "" || strings.HasPrefix(dir, p.dir+"/"))
	}
	var pats []pat
	for _, arg := range patterns {
		p := strings.TrimPrefix(arg, m.Path+"/")
		p = strings.TrimPrefix(p, "./")
		all := false
		if p == "..." || p == m.Path {
			p, all = "", true
		}
		if rest, ok := strings.CutSuffix(p, "/..."); ok {
			p, all = rest, true
		}
		if p == "." {
			p = "" // the root package
		}
		pt := pat{dir: p, all: all}
		found := false
		for _, pkg := range m.Pkgs {
			if matches(pt, m.relDir(pkg)) {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: package pattern %q matches no package of module %s", arg, m.Path)
		}
		pats = append(pats, pt)
	}
	return func(file string) bool {
		dir := ""
		if i := strings.LastIndexByte(file, '/'); i >= 0 {
			dir = file[:i]
		}
		for _, p := range pats {
			if matches(p, dir) {
				return true
			}
		}
		return false
	}, nil
}

// diag builds a Diagnostic at a token position.
func (m *Module) diag(analyzer string, pos token.Pos, format string, args ...any) Diagnostic {
	p := m.Fset.Position(pos)
	return Diagnostic{
		Analyzer: analyzer,
		File:     m.relFile(p.Filename),
		Line:     p.Line,
		Col:      p.Column,
		Message:  fmt.Sprintf(format, args...),
	}
}

func (m *Module) relFile(name string) string {
	if rel, ok := strings.CutPrefix(name, m.Dir+"/"); ok {
		return rel
	}
	return name
}

// relDir is a package's directory relative to the module root ("" for the
// root package).
func (m *Module) relDir(pkg *Package) string {
	return strings.TrimPrefix(strings.TrimPrefix(pkg.Dir, m.Dir), "/")
}

func (m *Module) absFile(rel string) string {
	if strings.HasPrefix(rel, "/") {
		return rel
	}
	return m.Dir + "/" + rel
}
