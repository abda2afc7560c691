package lint

import (
	"sync"
	"testing"
)

var self struct {
	once sync.Once
	m    *Module
	err  error
}

// loadSelf loads the real module once for every test that inspects it.
func loadSelf(t *testing.T) *Module {
	t.Helper()
	self.once.Do(func() { self.m, self.err = LoadModule(".") })
	if self.err != nil {
		t.Fatal(self.err)
	}
	return self.m
}

// TestModuleClean is the self-check the Makefile's lint target relies on:
// the full suite over the real module — every package, every analyzer,
// directive hygiene included — reports nothing. Any new finding is either a
// real violation to fix or a line to suppress with an in-place justification.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	for _, d := range mustRun(t, loadSelf(t), Options{}) {
		t.Errorf("%s", d)
	}
}
