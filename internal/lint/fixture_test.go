package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The fixture corpus under testdata/src is a synthetic module with one
// package per analyzer plus a directive-hygiene package. Expectations are
// inline `// want` comments carrying one or more quoted regexes; each applies
// to its own line, or to a nearby line via an offset suffix (`// want[-1]`
// pins the line above — used when the finding anchors on a comment, which
// cannot carry a trailing comment of its own).
//
// The contract is exact in both directions: every diagnostic the full suite
// emits must match a want on its line, and every want must match at least one
// diagnostic.

var wantRe = regexp.MustCompile(`// want(\[([+-]?\d+)\])? (.+)$`)

type wantExpect struct {
	file    string
	line    int
	pattern string
	re      *regexp.Regexp
	matched bool
}

func collectWants(t *testing.T, root string) []*wantExpect {
	t.Helper()
	var wants []*wantExpect
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for i, text := range strings.Split(string(data), "\n") {
			sub := wantRe.FindStringSubmatch(text)
			if sub == nil {
				continue
			}
			line := i + 1
			if sub[2] != "" {
				off, _ := strconv.Atoi(sub[2])
				line += off
			}
			for _, pat := range splitPatterns(sub[3]) {
				re, err := regexp.Compile(pat)
				if err != nil {
					return fmt.Errorf("%s:%d: bad want pattern %q: %v", rel, i+1, pat, err)
				}
				wants = append(wants, &wantExpect{file: filepath.ToSlash(rel), line: line, pattern: pat, re: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// runCorpus is the full suite over the fixture corpus. deadcode judges the
// corpus as one program, in which every other fixture package is a library
// of unexported functions no entry point reaches by construction: only the
// deadcode fixture's own findings are kept.
func runCorpus(t *testing.T, m *Module, opts Options) []Diagnostic {
	t.Helper()
	var kept []Diagnostic
	for _, d := range mustRun(t, m, opts) {
		if d.Analyzer != "deadcode" || strings.HasPrefix(d.File, "deadcode/") {
			kept = append(kept, d)
		}
	}
	return kept
}

// mustRun is Run for filters the test knows select something.
func mustRun(t *testing.T, m *Module, opts Options) []Diagnostic {
	t.Helper()
	diags, err := Run(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// splitPatterns parses the backquoted (or double-quoted) regexes following
// the want keyword.
func splitPatterns(rest string) []string {
	var pats []string
	for rest = strings.TrimSpace(rest); rest != ""; rest = strings.TrimSpace(rest) {
		switch rest[0] {
		case '`':
			end := strings.IndexByte(rest[1:], '`')
			if end < 0 {
				return append(pats, rest[1:])
			}
			pats = append(pats, rest[1:1+end])
			rest = rest[end+2:]
		case '"':
			var s string
			if _, err := fmt.Sscanf(rest, "%q", &s); err != nil {
				return pats
			}
			pats = append(pats, s)
			rest = rest[len(strconv.Quote(s)):]
		default:
			return pats
		}
	}
	return pats
}

// TestFixtures runs the full suite over the fixture corpus and holds the
// diagnostics to the inline want expectations, in both directions.
func TestFixtures(t *testing.T) {
	root := filepath.Join("testdata", "src")
	m, err := Load(root, "fix")
	if err != nil {
		t.Fatal(err)
	}
	diags := runCorpus(t, m, Options{})
	wants := collectWants(t, root)

	byLine := make(map[string][]*wantExpect)
	key := func(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }
	for _, w := range wants {
		byLine[key(w.file, w.line)] = append(byLine[key(w.file, w.line)], w)
	}
	for _, d := range diags {
		// Patterns match against the message plus the rendered witness chain,
		// so fixtures can pin the chain text interprocedural findings print.
		text := d.Message
		if len(d.Chain) > 0 {
			text += " chain: " + strings.Join(d.Chain, " -> ")
		}
		matched := false
		for _, w := range byLine[key(d.File, d.Line)] {
			if w.re.MatchString(text) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.pattern)
		}
	}
}

// TestFixtureAnalyzerFilter: a -run style filter restricts the output to the
// named analyzer and drops the directive hygiene findings (they only ride on
// full runs, where the unused-suppression check is meaningful).
func TestFixtureAnalyzerFilter(t *testing.T) {
	m, err := Load(filepath.Join("testdata", "src"), "fix")
	if err != nil {
		t.Fatal(err)
	}
	diags := mustRun(t, m, Options{Analyzers: []string{"detlint"}})
	if len(diags) == 0 {
		t.Fatal("detlint-only run found nothing in the fixture corpus")
	}
	for _, d := range diags {
		if d.Analyzer != "detlint" {
			t.Errorf("filtered run leaked %s", d)
		}
		if !strings.HasPrefix(d.File, "detlint/") {
			t.Errorf("detlint diagnostic outside its fixture package: %s", d)
		}
	}
}

// TestFixturePackageFilter: a package filter confines the run to one fixture
// directory.
func TestFixturePackageFilter(t *testing.T) {
	m, err := Load(filepath.Join("testdata", "src"), "fix")
	if err != nil {
		t.Fatal(err)
	}
	diags := mustRun(t, m, Options{Packages: []string{"guardedby"}})
	if len(diags) == 0 {
		t.Fatal("guardedby package run found nothing")
	}
	for _, d := range diags {
		if !strings.HasPrefix(d.File, "guardedby/") {
			t.Errorf("package-filtered run leaked %s", d)
		}
	}
}

// TestRunRejectsEmptyFilters: a -run name that is not an analyzer, or a
// package pattern matching no package, selects nothing — that is an error
// naming the valid choices, never a clean run.
func TestRunRejectsEmptyFilters(t *testing.T) {
	m, err := Load(filepath.Join("testdata", "src"), "fix")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(m, Options{Analyzers: []string{"hotpath", "nosuchanalyzer"}})
	if err == nil || !strings.Contains(err.Error(), `"nosuchanalyzer"`) || !strings.Contains(err.Error(), "noescape-test") {
		t.Errorf("unknown analyzer: got %v, want an error naming it and listing the valid names", err)
	}
	_, err = Run(m, Options{Packages: []string{"guardedby", "./nosuchdir/..."}})
	if err == nil || !strings.Contains(err.Error(), `"./nosuchdir/..."`) {
		t.Errorf("unmatched package pattern: got %v, want an error naming it", err)
	}
	for _, ok := range [][]string{{"./..."}, {"lockorder/..."}, {"fix/lockorder/locka"}} {
		if _, err := Run(m, Options{Packages: ok}); err != nil {
			t.Errorf("pattern %v: %v", ok, err)
		}
	}
}
