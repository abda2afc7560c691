package lint

import "testing"

// TestModuleClean is the self-check the Makefile's lint target relies on:
// the full suite over the real module — every package, every analyzer,
// directive hygiene included — reports nothing. Any new finding is either a
// real violation to fix or a line to suppress with an in-place justification.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	m, err := LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range mustRun(t, m, Options{}) {
		t.Errorf("%s", d)
	}
}
