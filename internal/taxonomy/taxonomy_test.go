package taxonomy

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestTreeShapeMatchesFigure1(t *testing.T) {
	tree := Tree()
	if len(tree.Children) != 4 {
		t.Fatalf("figure 1 has four major classes, got %d", len(tree.Children))
	}
	leaves := tree.Leaves()
	wantLeaves := []string{
		ClassCharacterizationStatic,
		ClassCharacterizationDynamic,
		ClassAdmissionThreshold,
		ClassAdmissionPrediction,
		ClassSchedulingQueue,
		ClassSchedulingRestructure,
		ClassExecutionReprioritize,
		ClassExecutionCancel,
		ClassExecutionThrottle,
		ClassExecutionSuspendResume,
	}
	if len(leaves) != len(wantLeaves) {
		t.Fatalf("leaves = %d, want %d", len(leaves), len(wantLeaves))
	}
	for i, l := range leaves {
		if l.Path != wantLeaves[i] {
			t.Fatalf("leaf %d = %q, want %q", i, l.Path, wantLeaves[i])
		}
	}
}

func TestEveryLeafImplemented(t *testing.T) {
	if gaps := CoverageGaps(); len(gaps) != 0 {
		t.Fatalf("taxonomy leaves without implementations: %v", gaps)
	}
}

func TestRegistryWellFormed(t *testing.T) {
	valid := map[string]bool{"": true}
	Tree().Walk(func(n *Node, _ int) { valid[n.Path] = true })
	seen := map[string]bool{}
	for _, tech := range Registry() {
		if tech.Name == "" || tech.Source == "" || tech.Impl == "" {
			t.Fatalf("incomplete technique: %+v", tech)
		}
		if !valid[tech.Class] {
			t.Fatalf("technique %q references unknown class %q", tech.Name, tech.Class)
		}
		if seen[tech.Name] {
			t.Fatalf("duplicate technique name %q", tech.Name)
		}
		seen[tech.Name] = true
	}
	if len(Registry()) < 25 {
		t.Fatalf("registry has only %d techniques", len(Registry()))
	}
}

func TestRenderTree(t *testing.T) {
	out := RenderTree()
	for _, want := range []string{"Workload Characterization", "Admission Control", "Scheduling", "Execution Control", "Request Throttling", "[", "techniques]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered tree missing %q:\n%s", want, out)
		}
	}
}

func TestTablesRender(t *testing.T) {
	tables := AllTables()
	if len(tables) != 5 {
		t.Fatalf("want 5 tables, got %d", len(tables))
	}
	for i, tb := range tables {
		out := tb.Render()
		if !strings.Contains(out, "Table") {
			t.Fatalf("table %d missing title", i+1)
		}
		if len(tb.Rows) == 0 {
			t.Fatalf("table %d empty", i+1)
		}
		for _, r := range tb.Rows {
			if len(r) != len(tb.Header) {
				t.Fatalf("table %d row width mismatch", i+1)
			}
		}
	}
	// Table 2 carries the five threshold rows of the paper plus the two
	// prediction-based techniques.
	if len(Table2().Rows) != 7 {
		t.Fatalf("table 2 rows = %d", len(Table2().Rows))
	}
	// Table 3 carries the paper's five approaches.
	if len(Table3().Rows) != 5 {
		t.Fatalf("table 3 rows = %d", len(Table3().Rows))
	}
	// Tables 4 and 5: three systems, five techniques.
	if len(Table4().Rows) != 3 || len(Table5().Rows) != 5 {
		t.Fatal("table 4/5 row counts wrong")
	}
}

func TestWalkDepths(t *testing.T) {
	maxDepth := 0
	Tree().Walk(func(_ *Node, d int) {
		if d > maxDepth {
			maxDepth = d
		}
	})
	if maxDepth != 3 {
		t.Fatalf("max depth = %d, want 3 (suspension subclasses)", maxDepth)
	}
}

// implToken matches the Go identifiers an implementation string names:
// pkg.Name, or pkg.Type.Method.
var implToken = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)

// moduleFiles parses every non-test Go file of the module, comments kept.
func moduleFiles(t *testing.T) []*ast.File {
	t.Helper()
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			t.Fatal("no go.mod above the package directory")
		}
		root = parent
	}
	var files []*ast.File
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// funcKey names a function "Name" and a method "Type.Method".
func funcKey(decl *ast.FuncDecl) string {
	if decl.Recv == nil {
		return decl.Name.Name
	}
	recv := decl.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	switch r := recv.(type) {
	case *ast.IndexExpr:
		recv = r.X
	case *ast.IndexListExpr:
		recv = r.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return id.Name + "." + decl.Name.Name
	}
	return ""
}

// moduleDecls returns, per package name, the top-level declarations of the
// module's non-test files: "Name" for each func, type, var and const,
// "Type.Method" for each method.
func moduleDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decls := map[string]map[string]bool{}
	for _, f := range moduleFiles(t) {
		pkg := decls[f.Name.Name]
		if pkg == nil {
			pkg = map[string]bool{}
			decls[f.Name.Name] = pkg
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if key := funcKey(decl); key != "" {
					pkg[key] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						pkg[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							pkg[id.Name] = true
						}
					}
				}
			}
		}
	}
	return decls
}

// TestImplNamesResolve holds every identifier the registry and the rendered
// tables name to a non-test declaration of the module, so a rename or a
// deletion fails here instead of leaving the registry pointing at nothing.
func TestImplNamesResolve(t *testing.T) {
	decls := moduleDecls(t)
	check := func(where, impl string, required bool) {
		ms := implToken.FindAllStringSubmatch(impl, -1)
		if required && len(ms) == 0 {
			t.Errorf("%s: %q names no pkg.Name identifier", where, impl)
		}
		for _, m := range ms {
			pkg, name := m[1], m[2]
			if m[3] != "" {
				name += "." + m[3]
			}
			if decls[pkg] == nil {
				t.Errorf("%s: %q: the module has no package %s", where, impl, pkg)
			} else if !decls[pkg][name] {
				t.Errorf("%s: %q: package %s declares no %s outside its tests", where, impl, pkg, name)
			}
		}
	}
	for _, tech := range Registry() {
		check("registry "+tech.Name, tech.Impl, true)
	}
	for _, tb := range AllTables() {
		for _, row := range tb.Rows {
			for _, cell := range row {
				check(tb.Title, cell, false)
			}
		}
	}
}
