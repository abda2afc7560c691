package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dbwlm/internal/trace"
)

func readRows(t *testing.T, path string) []trace.Row {
	t.Helper()
	src, f, err := trace.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := trace.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestPipeline runs the subcommands end to end on a few hundred rows:
// synth, info, a binary -> JSONL -> binary round trip that must give back
// the same bytes, compress, and divergence with and without its gate.
func TestPipeline(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.trace")
	jsonl := filepath.Join(dir, "full.jsonl")
	back := filepath.Join(dir, "back.trace")
	comp := filepath.Join(dir, "comp.trace")
	for _, step := range []struct {
		name string
		run  func([]string) error
		args []string
	}{
		{"synth", cmdSynth, []string{"-rows", "400", full}},
		{"info", cmdInfo, []string{full}},
		{"convert to JSONL", cmdConvert, []string{full, jsonl}},
		{"convert to binary", cmdConvert, []string{jsonl, back}},
		{"compress", cmdCompress, []string{"-ratio", "4", full, comp}},
		{"divergence", cmdDivergence, []string{"-bound", "0", full, comp}},
	} {
		if err := step.run(step.args); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
	}

	a, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("binary -> JSONL -> binary changed the trace (%d -> %d bytes)", len(a), len(b))
	}
	if n := len(readRows(t, full)); n != 400 {
		t.Fatalf("synth wrote %d rows, want 400", n)
	}
	if n := len(readRows(t, comp)); n == 0 || n >= 400 {
		t.Fatalf("compress kept %d of 400 rows", n)
	}
	err = cmdDivergence([]string{"-bound", "1e-9", full, comp})
	if err == nil || !strings.Contains(err.Error(), "exceeds bound") {
		t.Fatalf("divergence gate at 1e-9: got %v, want an exceeds-bound error", err)
	}
}

func TestInfoWantsOneFile(t *testing.T) {
	if err := cmdInfo(nil); err == nil {
		t.Fatal("info with no file succeeded")
	}
}

// TestCompressRatioAndStrata checks compress's flag contract: a ratio below 1
// or fewer than one stratum is an error rather than a silent fall back to the
// defaults, ratio 1 keeps every row, and an empty trace reports a defined
// ratio.
func TestCompressRatioAndStrata(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.trace")
	comp := filepath.Join(dir, "comp.trace")
	if err := cmdSynth([]string{"-rows", "300", full}); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-ratio", "0.5"}, {"-ratio", "0"}, {"-ratio", "NaN"}, {"-strata", "0"}, {"-ratio", "0.5", "-strata", "0"}} {
		if err := cmdCompress(append(args, full, comp)); err == nil {
			t.Errorf("compress %v succeeded", args)
		}
	}
	if err := cmdCompress([]string{"-ratio", "1", full, comp}); err != nil {
		t.Fatal(err)
	}
	for i, r := range readRows(t, comp) {
		if r.ID != int64(i+1) || r.Weight != 1 {
			t.Fatalf("ratio 1: row %d is ID %d weight %v", i, r.ID, r.Weight)
		}
	}
	if n := len(readRows(t, comp)); n != 300 {
		t.Fatalf("ratio 1 kept %d of 300 rows", n)
	}

	empty := filepath.Join(dir, "empty.trace")
	h, _ := trace.Synth(1, 0)
	if err := trace.WriteFile(empty, h, nil); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error { return cmdCompress([]string{empty, comp}) })
	if strings.Contains(out, "NaN") || !strings.Contains(out, "ratio 1.0") {
		t.Fatalf("empty trace: %q", out)
	}
}

// captureStdout runs fn with os.Stdout redirected to a file and returns what
// it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	prev := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = prev
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
