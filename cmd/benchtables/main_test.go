package main

import (
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
