package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// report cuts a wlmsim run's output down to the report proper: from the
// profile line through the engine line, without the lines that name the
// trace file.
func report(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "profile=")
	j := strings.Index(out, "\nengine: ")
	if i < 0 || j < i {
		t.Fatalf("no report in output:\n%s", out)
	}
	return out[i : j+strings.IndexByte(out[j+1:], '\n')+1]
}

// TestRecordReplayIdentical holds wlmsim to its doc comment: a recorded
// trace replays bit-identically, so the replay prints the recording run's
// report, in both encodings.
func TestRecordReplayIdentical(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"run.trace", "run.jsonl"} {
		path := filepath.Join(dir, name)
		var rec, rep strings.Builder
		if code := run([]string{"-horizon", "10", "-drain", "10", "-record", path}, &rec); code != 0 {
			t.Fatalf("%s: record exited %d:\n%s", name, code, rec.String())
		}
		if !strings.Contains(rec.String(), "recorded ") {
			t.Fatalf("%s: record run wrote no trace:\n%s", name, rec.String())
		}
		if code := run([]string{"-horizon", "10", "-drain", "10", "-replay-trace", path}, &rep); code != 0 {
			t.Fatalf("%s: replay exited %d:\n%s", name, code, rep.String())
		}
		if got, want := report(t, rep.String()), report(t, rec.String()); got != want {
			t.Fatalf("%s: replay report differs from the recording's:\nrecorded:\n%s\nreplayed:\n%s", name, want, got)
		}
	}
}

func TestUnknownProfile(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-profile", "nosuch"}, &out); code != 2 {
		t.Fatalf("unknown profile exited %d, want 2", code)
	}
}
