package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOnlyE0PrintsCoverage: -only e0 renders Figure 1 and the coverage line,
// and runs no simulation section.
func TestOnlyE0PrintsCoverage(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-only", "e0"}, &out); code != 0 {
		t.Fatalf("benchtables -only e0 exited %d", code)
	}
	if !strings.Contains(out.String(), "all taxonomy leaves implemented: OK\n") {
		t.Fatalf("no coverage line in:\n%s", out.String())
	}
	if strings.Contains(out.String(), "Table 1") {
		t.Fatal("-only e0 ran another section")
	}
}

func TestUnknownSection(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-only", "nosuch"}, &out); code != 2 {
		t.Fatalf("unknown -only exited %d, want 2", code)
	}
}

// goldenSections are benchtables' sections in output order; the full run
// prints them one after another, so their -only outputs concatenate to it.
var goldenSections = []string{"e0", "t1", "knee", "t2", "t3", "t4", "t5", "e6", "a1", "a2", "a3", "a4", "a5"}

// TestSeed42MatchesGolden holds `benchtables -seed 42` byte for byte to
// testdata/seed42.golden. Each section runs as its own parallel subtest with
// -only, is compared at its place in the golden, and together they must
// cover it exactly. After a deliberate output change, regenerate it with
// `go run ./cmd/benchtables -seed 42 > cmd/benchtables/testdata/seed42.golden`.
func TestSeed42MatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every simulation section")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "seed42.golden"))
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]string, len(goldenSections))
	t.Run("sections", func(t *testing.T) {
		for i, key := range goldenSections {
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				var out strings.Builder
				if code := run([]string{"-only", key, "-seed", "42"}, &out); code != 0 {
					t.Fatalf("benchtables -only %s exited %d", key, code)
				}
				outs[i] = out.String()
			})
		}
	})
	rest := string(golden)
	for i, key := range goldenSections {
		got := outs[i]
		if want := rest[:min(len(got), len(rest))]; got != want {
			t.Errorf("-only %s diverges from the golden at line %d", key, firstDiffLine(got, want))
			return
		}
		rest = rest[len(got):]
	}
	if rest != "" {
		t.Errorf("the sections end %d bytes before the golden does; does a section run that goldenSections does not list?", len(rest))
	}
}

// firstDiffLine is the 1-based line of a and b where they first differ.
func firstDiffLine(a, b string) int {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return i + 1
		}
	}
	return min(len(al), len(bl)) + 1
}
