package main

import (
	"strings"
	"testing"

	"dbwlm/internal/taxonomy"
)

// TestRegistryListsEveryTechnique: -registry prints every registered
// technique with its implementation, and exits 0 because every taxonomy leaf
// is covered.
func TestRegistryListsEveryTechnique(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-registry"}, &out); code != 0 {
		t.Fatalf("taxonomy -registry exited %d", code)
	}
	for _, tech := range taxonomy.Registry() {
		if !strings.Contains(out.String(), tech.Name) || !strings.Contains(out.String(), tech.Impl) {
			t.Errorf("-registry output lacks %q (%s)", tech.Name, tech.Impl)
		}
	}
	if strings.Contains(out.String(), "Figure 1") || strings.Contains(out.String(), "Table 1") {
		t.Error("-registry printed more than the registry")
	}
}
