package dbwlm

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesMatchGolden builds every program under examples/, runs it,
// and requires its stdout to equal examples/testdata/<name>.golden byte for
// byte. The examples are deterministic (seeded simulators, no wall-clock
// output), so any difference is a behaviour change. After a deliberate one,
// regenerate a golden with
//
//	go run ./examples/<name> > examples/testdata/<name>.golden
func TestExamplesMatchGolden(t *testing.T) {
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() && e.Name() != "testdata" {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		t.Fatal("no examples found")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("examples", "testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			run := exec.Command(filepath.Join(bin, name))
			run.Stdout, run.Stderr = &stdout, &stderr
			if err := run.Run(); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.Bytes())
			}
			if got := stdout.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("%s: stdout differs from its golden\n--- got:\n%s--- want:\n%s", name, got, want)
			}
		})
	}
}
