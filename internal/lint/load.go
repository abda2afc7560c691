package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file loads an entire module — every package, including in-package and
// external test files — with full type information, using nothing but the
// standard library: go/parser for syntax, go/types for checking, and the
// go/importer "source" importer for standard-library dependencies. Module-
// internal imports are resolved against the packages we are loading ourselves,
// in topological order, so the loader needs no export data and no go command.

// Package is one type-checked package of the module under analysis. In-package
// _test.go files are checked together with the package proper; an external
// test package (package foo_test) is loaded as its own Package with IsXTest
// set.
type Package struct {
	// Path is the import path ("dbwlm/internal/rt"); external test packages
	// carry the base path plus a "_test" suffix, which is never imported.
	Path    string
	Dir     string
	Name    string
	IsXTest bool
	Files   []*File
	Types   *types.Package
	Info    *types.Info

	imports map[string]bool
}

// File pairs one parsed source file with the lint directives scanned from its
// comments.
type File struct {
	Name string // absolute path on disk
	Ast  *ast.File
	Test bool // a _test.go file

	suppress []suppression
	dyn      []dynDirective // //dbwlm:dyncall trust grants
	sorted   map[int]bool   // lines carrying //dbwlm:sorted
}

// Module is the fully loaded analysis unit: every package of one Go module,
// type-checked, plus the cross-package facts the analyzers share (annotation
// sets, guarded-field tables).
type Module struct {
	Path string // module path from go.mod
	Dir  string // module root directory
	Fset *token.FileSet
	Pkgs []*Package // topological order, external test packages last

	byPath map[string]*Package
	byFile map[string]*File

	// Facts built after type checking (annot.go, facts.go).
	hot      map[*types.Func]bool   // //dbwlm:hotpath functions: the closure's roots
	hotReach map[*types.Func]bool   // declared functions in the hot closure
	lockedBy map[*types.Func]string // caller-must-hold-mutex functions
	det      map[*Package]bool      // //dbwlm:deterministic packages
	dirDiags []Diagnostic           // malformed/misplaced directive findings
	guarded  map[*types.Var]string  // field -> sibling mutex field name

	// Interprocedural layer (callgraph.go): the module-wide call graph and
	// the per-package findings the module-level analyzers precompute from it.
	cg       *callGraph
	preDiags map[string]map[*Package][]Diagnostic
}

// LoadModule walks up from dir to the enclosing go.mod and loads every
// package beneath the module root.
func LoadModule(dir string) (*Module, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	return Load(root, modPath)
}

func findModule(dir string) (root, modPath string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s has no module line", filepath.Join(d, "go.mod"))
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod at or above %s", dir)
		}
		d = parent
	}
}

// Load parses and type-checks every package under root, treating root as the
// directory of a module named modPath. Fixture trees (testdata/src) load
// through here with a synthetic module path.
func Load(root, modPath string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	m := &Module{
		Path:   modPath,
		Dir:    root,
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*Package),
		byFile: make(map[string]*File),
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := m.parseDirs(dirs)
	if err != nil {
		return nil, err
	}
	order, err := topoSort(pkgs)
	if err != nil {
		return nil, err
	}
	if err := m.checkAll(order); err != nil {
		return nil, err
	}
	m.scanDirectives()
	m.buildFacts()
	return m, nil
}

// parseDirs parses every package directory across loadWorkers() goroutines.
// token.FileSet serializes AddFile internally, so one shared FileSet is safe;
// results are merged back in directory order, keeping every downstream
// structure (package lists, byFile) deterministic.
func (m *Module) parseDirs(dirs []string) ([]*Package, error) {
	type parsed struct {
		pkgs []*Package
		err  error
	}
	results := make([]parsed, len(dirs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, loadWorkers())
	for i, dir := range dirs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, dir string) {
			defer func() { <-sem; wg.Done() }()
			ps, err := m.parseDir(dir)
			results[i] = parsed{pkgs: ps, err: err}
		}(i, dir)
	}
	wg.Wait()
	var pkgs []*Package
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		for _, p := range r.pkgs {
			for _, f := range p.Files {
				m.byFile[f.Name] = f
			}
		}
		pkgs = append(pkgs, r.pkgs...)
	}
	return pkgs, nil
}

// checkAll type-checks the topologically ordered packages with as much
// parallelism as the import DAG allows: a package is scheduled the moment its
// last module-internal dependency completes. The shared source importer —
// the one mutable structure — is serialized behind a mutex in modImporter;
// completed internal packages are read without locking, which is safe because
// the scheduler orders every dependency's completion before its dependents
// start. m.Pkgs is rebuilt in topological order afterwards, so the result is
// identical to a sequential load.
func (m *Module) checkAll(order []*Package) error {
	// The source importer type-checks standard-library dependencies from
	// GOROOT source; with cgo disabled every package (net included) has a
	// pure-Go variant, so no C toolchain is ever consulted.
	build.Default.CgoEnabled = false
	std := importer.ForCompiler(m.Fset, "source", nil)
	imp := &modImporter{m: m, std: std}
	sizes := types.SizesFor("gc", build.Default.GOARCH)
	for _, p := range order {
		if !p.IsXTest {
			m.byPath[p.Path] = p
		}
	}

	// Dependency counts over module-internal edges only.
	waiting := make(map[*Package]int, len(order))
	dependents := make(map[*Package][]*Package)
	for _, p := range order {
		for ip := range p.imports {
			if dep := m.byPath[ip]; dep != nil && dep != p {
				waiting[p]++
				dependents[dep] = append(dependents[dep], p)
			}
		}
	}

	var (
		mu     sync.Mutex
		wg     sync.WaitGroup
		errs   = make(map[*Package]error)
		failed = make(map[*Package]bool)
	)
	sem := make(chan struct{}, loadWorkers())
	var schedule func(p *Package)
	finish := func(p *Package, err error) {
		mu.Lock()
		if err != nil {
			errs[p] = err
			failed[p] = true
		}
		var next []*Package
		for _, d := range dependents[p] {
			if failed[p] {
				failed[d] = true // poisoned: its import would fail anyway
			}
			waiting[d]--
			if waiting[d] == 0 {
				next = append(next, d)
			}
		}
		mu.Unlock()
		for _, d := range next {
			schedule(d)
		}
		wg.Done()
	}
	schedule = func(p *Package) {
		wg.Add(1)
		go func() {
			sem <- struct{}{}
			defer func() { <-sem }()
			mu.Lock()
			poisoned := failed[p]
			mu.Unlock()
			if poisoned {
				finish(p, nil)
				return
			}
			finish(p, m.checkOne(p, imp, sizes))
		}()
	}
	mu.Lock() // no worker may count a dependency down while this loop reads
	for _, p := range order {
		if waiting[p] == 0 {
			schedule(p)
		}
	}
	mu.Unlock()
	wg.Wait()

	// Report the first failure in topological order — the root cause, not a
	// cascade — and rebuild Pkgs deterministically.
	for _, p := range order {
		if err := errs[p]; err != nil {
			return err
		}
	}
	m.Pkgs = append(m.Pkgs, order...)
	return nil
}

// checkOne type-checks a single parsed package.
func (m *Module) checkOne(p *Package, imp types.Importer, sizes types.Sizes) error {
	conf := types.Config{Importer: imp, Sizes: sizes}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	files := make([]*ast.File, len(p.Files))
	for i, f := range p.Files {
		files[i] = f.Ast
	}
	tpkg, err := conf.Check(p.Path, m.Fset, files, info)
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %w", p.Path, err)
	}
	p.Types, p.Info = tpkg, info
	return nil
}

// loadWorkers is the loader's parallelism, GOMAXPROCS-bounded.
func loadWorkers() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// packageDirs lists every directory under root holding .go files, skipping
// testdata, vendor, hidden, and underscore-prefixed trees.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasPrefix(d.Name(), "_") &&
			!strings.HasPrefix(d.Name(), ".") {
			// WalkDir interleaves a directory's files with its subdirectories,
			// so dedup needs the full set, not just the previous entry.
			if dir := filepath.Dir(path); !seen[dir] {
				seen[dir] = true
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// parseDir parses one directory into its base package and, when external
// test files are present, a second *_test package.
func (m *Module) parseDir(dir string) ([]*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(m.Dir, dir)
	if err != nil {
		return nil, err
	}
	path := m.Path
	if rel != "." {
		path = m.Path + "/" + filepath.ToSlash(rel)
	}
	base := &Package{Path: path, Dir: dir}
	xtest := &Package{Path: path + "_test", Dir: dir, IsXTest: true}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		full := filepath.Join(dir, name)
		af, err := parser.ParseFile(m.Fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		f := &File{Name: full, Ast: af, Test: strings.HasSuffix(name, "_test.go")}
		p := base
		if strings.HasSuffix(af.Name.Name, "_test") {
			p = xtest
			xtest.Name = af.Name.Name
		} else {
			if base.Name != "" && base.Name != af.Name.Name {
				return nil, fmt.Errorf("lint: %s: packages %s and %s in one directory",
					dir, base.Name, af.Name.Name)
			}
			base.Name = af.Name.Name
		}
		p.Files = append(p.Files, f)
	}
	var out []*Package
	for _, p := range []*Package{base, xtest} {
		if len(p.Files) == 0 {
			continue
		}
		p.imports = make(map[string]bool)
		for _, f := range p.Files {
			for _, imp := range f.Ast.Imports {
				if ip, err := strconv.Unquote(imp.Path.Value); err == nil {
					p.imports[ip] = true
				}
			}
		}
		out = append(out, p)
	}
	return out, nil
}

// topoSort orders packages so every module-internal import precedes its
// importers (external test packages naturally land after their base package).
func topoSort(pkgs []*Package) ([]*Package, error) {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	var order []*Package
	state := make(map[*Package]int) // 0 new, 1 visiting, 2 done
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch state[p] {
		case 1:
			return fmt.Errorf("lint: import cycle through %s", p.Path)
		case 2:
			return nil
		}
		state[p] = 1
		deps := make([]string, 0, len(p.imports))
		for ip := range p.imports {
			deps = append(deps, ip)
		}
		sort.Strings(deps)
		for _, ip := range deps {
			if dep := byPath[ip]; dep != nil {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[p] = 2
		order = append(order, p)
		return nil
	}
	for _, p := range pkgs {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// modImporter resolves module-internal imports from the packages loaded so
// far and delegates everything else (the standard library) to the source
// importer. Internal lookups are lock-free — the scheduler guarantees a
// dependency's Types is published before any dependent starts — but the
// source importer's internal cache is not concurrency-safe, so stdlib
// imports are serialized.
type modImporter struct {
	m     *Module
	std   types.Importer
	stdMu sync.Mutex
}

func (i *modImporter) Import(path string) (*types.Package, error) {
	if path == i.m.Path || strings.HasPrefix(path, i.m.Path+"/") {
		if p := i.m.byPath[path]; p != nil && p.Types != nil {
			return p.Types, nil
		}
		return nil, fmt.Errorf("lint: internal package %s not loaded yet", path)
	}
	i.stdMu.Lock()
	defer i.stdMu.Unlock()
	//dbwlm:nolint lockorder -- std is go/importer's source importer, never a modImporter; interface dispatch cannot tell, and stdMu is the only lock beneath this call
	return i.std.Import(path)
}

// fileOf maps a token position back to the parsed file carrying it.
func (m *Module) fileOf(pos token.Pos) *File {
	return m.byFile[m.Fset.Position(pos).Filename]
}
