package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// BENCHMARK.json at the module root is SpecJSON's output, byte for byte:
// the bounds compare applies and the bounds the acceptance driver reads are
// one table. Regenerate with `go run ./cmd/wlmbench spec > BENCHMARK.json`.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	root, err := FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, SpecJSON()) {
		t.Fatalf("BENCHMARK.json differs from the tables in spec.go; regenerate it with `go run ./cmd/wlmbench spec > BENCHMARK.json`")
	}
}

// The limits the acceptance driver refuses a benchmark over.
func TestSpecWithinDriverLimits(t *testing.T) {
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []MetricSpec `json:"end_to_end"`
		PerLayer   []MetricSpec `json:"per_layer"`
	}
	raw := SpecJSON()
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("spec is %d bytes, limit 64 KiB", len(raw))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the allowed alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range doc.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	setup := false
	for _, m := range doc.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == MSetup && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range doc.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", doc.RunSeconds)
	}
	if len(doc.Paths) < 1 || len(doc.Paths) > 16 || len(doc.Command) > 32 {
		t.Errorf("paths %v, command %v", doc.Paths, doc.Command)
	}
}

func TestResultLineHasExactlyTheDriverKeys(t *testing.T) {
	res := newResult()
	res.Attempted = 10
	for _, m := range EndToEnd {
		res.set(m.Name, 1.5, 3)
	}
	res.set("wire.rtt_p99_us", 9, 0) // a per-layer value must not leak into an untraced result
	res.finish(false)
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(res.Line()), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 {
		t.Fatalf("result line has keys %v", line)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(EndToEnd) {
		t.Fatalf("untraced result carries %d metrics, want %d", len(metrics), len(EndToEnd))
	}
	for n, v := range metrics {
		if len(v) != 2 || v["unit"] == nil || v["value"] == nil {
			t.Errorf("metric %s has fields %v, want value and unit", n, v)
		}
	}
	// A traced result carries every per-layer metric, 0 where the layer is
	// off the workload's path; an end-to-end result with a hole is incorrect.
	traced := newResult()
	traced.finish(true)
	if len(traced.Metrics) != len(PerLayer) || !traced.Correct {
		t.Fatalf("traced result: %d metrics, correct %v", len(traced.Metrics), traced.Correct)
	}
	holed := newResult()
	holed.finish(false)
	if holed.Correct {
		t.Fatal("an untraced result with no metrics passed")
	}
}
