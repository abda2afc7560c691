package lint

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestDeadCodeNeverLive holds deadcode to the linker: build two real binaries
// with inlining off, so every function a binary can run keeps a symbol, and
// no function the analyzer finds unreachable from the real entry points — no
// waiver roots, no exempt directories — may be among them. CHA over-
// approximates, so the analyzer may miss dead code; it must never call live
// code dead.
func TestDeadCodeNeverLive(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two binaries and type-checks the whole module")
	}
	m := loadSelf(t)
	bin := t.TempDir()
	build := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin+string(os.PathSeparator), "./cmd/wlmd", "./cmd/benchtables")
	build.Dir = m.Dir
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dead := m.unreachable(false)
	for _, cmd := range []string{"wlmd", "benchtables"} {
		linked := textSymbols(t, filepath.Join(bin, cmd))
		deps := m.moduleDeps(m.byPath[m.Path+"/cmd/"+cmd])
		checked := 0
		for _, n := range dead {
			if !deps[n.pkg] {
				continue
			}
			checked++
			if sym := symbolOf(n); linked[sym] {
				t.Errorf("cmd/%s links %s, which deadcode calls unreachable", cmd, sym)
			}
		}
		if len(linked) == 0 || checked == 0 {
			t.Errorf("cmd/%s: %d linked module symbols, %d unreachable functions in its closure: the check checked nothing", cmd, len(linked), checked)
		}
	}
}

// textSymbols lists a binary's text symbols with type arguments stripped
// ("fifo.(*Queue[...]).Push" -> "fifo.(*Queue).Push").
func textSymbols(t *testing.T, bin string) map[string]bool {
	t.Helper()
	out, err := exec.Command("go", "tool", "nm", bin).Output()
	if err != nil {
		t.Fatalf("go tool nm %s: %v", bin, err)
	}
	syms := make(map[string]bool)
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
			syms[stripTypeArgs(f[2])] = true
		}
	}
	return syms
}

func stripTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// symbolOf is the linker's name for a declared function: the import path
// ("main" in a command) in place of the package name funcName prints.
func symbolOf(n *cgNode) string {
	path := n.pkg.Path
	if n.pkg.Name == "main" {
		path = "main"
	}
	return path + n.name[strings.IndexByte(n.name, '.'):]
}

// moduleDeps is the set of module packages pkg depends on, itself included.
func (m *Module) moduleDeps(pkg *Package) map[*Package]bool {
	deps := make(map[*Package]bool)
	var visit func(p *Package)
	visit = func(p *Package) {
		if p == nil || deps[p] {
			return
		}
		deps[p] = true
		for _, ip := range p.Types.Imports() {
			visit(m.byPath[ip.Path()])
		}
	}
	visit(pkg)
	return deps
}
