package lint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestJSONGolden pins the -json wire format byte-for-byte: the full suite
// over the fixture corpus, rendered with WriteJSON, must match the checked-in
// golden. Regenerate with `go test ./internal/lint -run TestJSONGolden
// -update` after deliberate fixture or message changes.
func TestJSONGolden(t *testing.T) {
	m, err := Load(filepath.Join("testdata", "src"), "fix")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, runCorpus(t, m, Options{})); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSON output diverged from %s (run with -update after deliberate changes)\ngot %d bytes, want %d",
			golden, buf.Len(), len(want))
	}
}

// TestJSONEmpty: no findings must render as [], not null.
func TestJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "[]\n" {
		t.Errorf("empty diagnostics rendered %q, want %q", got, "[]\n")
	}
}

// TestRunDeterministic: the diagnostic stream is identical at any worker
// count — the parallel fan-out may not reorder, drop, or duplicate findings.
func TestRunDeterministic(t *testing.T) {
	m, err := Load(filepath.Join("testdata", "src"), "fix")
	if err != nil {
		t.Fatal(err)
	}
	var base bytes.Buffer
	if err := WriteJSON(&base, mustRun(t, m, Options{Workers: 1})); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, mustRun(t, m, Options{Workers: workers})); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(base.Bytes(), buf.Bytes()) {
			t.Errorf("workers=%d produced different output than workers=1", workers)
		}
	}
}
