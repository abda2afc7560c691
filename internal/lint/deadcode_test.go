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

// TestDeadCodeNeverLive holds deadcode to the linker: build real binaries
// with inlining off, so every function a binary can run keeps a symbol, and
// no function the analyzer finds unreachable from the real entry points — no
// exempt directories — may be among them. CHA over-
// approximates, so the analyzer may miss dead code; it must never call live
// code dead. A binary's closure may hold no dead function at all (cmd/wlmd's
// holds none), so each binary proves the symbol mapping on a live library
// function it links, and the fixture binary testdata/deadbin, whose closure
// holds two dead functions, proves the negative side checks something.
func TestDeadCodeNeverLive(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three binaries and type-checks the whole module")
	}
	neverLive(t, loadSelf(t), "wlmd", "benchtables")
	fix, err := Load(filepath.Join("testdata", "deadbin"), "deadbin")
	if err != nil {
		t.Fatal(err)
	}
	if checked := neverLive(t, fix, "."); checked < 2 {
		t.Errorf("the fixture binary's closure has %d unreachable functions checked, want main.stray and lib.Dead", checked)
	}
}

// neverLive builds each command of m (a directory under cmd/, or "." for
// the module root) and checks no function the analyzer calls unreachable is
// linked into it. It returns how many unreachable functions the commands'
// closures hold.
func neverLive(t *testing.T, m *Module, cmds ...string) (checked int) {
	t.Helper()
	bin := t.TempDir()
	args := []string{"build", "-gcflags=all=-l", "-o", bin + string(os.PathSeparator)}
	for _, cmd := range cmds {
		if cmd == "." {
			args = append(args, ".")
		} else {
			args = append(args, "./cmd/"+cmd)
		}
	}
	build := exec.Command("go", args...)
	build.Dir = m.Dir
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build in %s: %v\n%s", m.Dir, err, out)
	}
	dead := m.unreachable()
	isDead := make(map[*cgNode]bool, len(dead))
	for _, n := range dead {
		isDead[n] = true
	}
	for _, cmd := range cmds {
		path, name := m.Path+"/cmd/"+cmd, cmd
		if cmd == "." {
			path, name = m.Path, filepath.Base(m.Path)
		}
		linked := textSymbols(t, filepath.Join(bin, name))
		deps := m.moduleDeps(m.byPath[path])
		live := 0
		for _, n := range m.cg.all {
			if n.fn == nil || !deps[n.pkg] {
				continue
			}
			sym := symbolOf(n)
			switch {
			case !isDead[n] && linked[sym] && n.pkg.Name != "main":
				live++
			case isDead[n]:
				checked++
				if linked[sym] {
					t.Errorf("%s links %s, which deadcode calls unreachable", path, sym)
				}
			}
		}
		if live == 0 {
			t.Errorf("%s: %d linked symbols, none matches a live library function: the symbol mapping is broken", path, len(linked))
		}
	}
	return checked
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
