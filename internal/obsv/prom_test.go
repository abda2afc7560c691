package obsv

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dbwlm/internal/metrics"
)

// TestPromWriterGolden renders a fixed page of families — counters with
// escaped labels, gauges, and a concurrent histogram — and compares it byte
// for byte against testdata/prom.golden. Regenerate with UPDATE_GOLDEN=1.
func TestPromWriterGolden(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)

	p.Counter("dbwlm_decisions_total", "Admission decisions by class and verdict.")
	p.Val(41, "class", "interactive", "verdict", "admitted")
	p.Val(7, "class", "batch", "verdict", "rejected-cost")
	p.Val(0, "class", "weird\"name\\x", "verdict", "line\nbreak")

	p.Gauge("dbwlm_mem_pressure", "Reported memory pressure (1 = at budget).")
	p.Val(0.75)

	var h metrics.ConcurrentHistogram
	for _, v := range []float64{0.0009765625, 0.0009765625, 0.00390625, 0.25, 0.25, 0.25, 2} {
		h.Record(v)
	}
	p.Histogram("dbwlm_latency_seconds", "Service latency.")
	p.Hist(&h, "class", "interactive")

	var empty metrics.ConcurrentHistogram
	p.Histogram("dbwlm_queue_wait_seconds", "Queue wait.")
	p.Hist(&empty)

	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prom.golden")
	if update() {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden file:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// update reports whether golden files should be rewritten (UPDATE_GOLDEN=1
// in the environment; an env var avoids fighting other packages over test
// flag registration).
func update() bool { return os.Getenv("UPDATE_GOLDEN") == "1" }

// TestPromWriterStickyError: the first write failure latches and later calls
// are no-ops, so a page renderer checks once at the end.
func TestPromWriterStickyError(t *testing.T) {
	p := NewPromWriter(failWriter{})
	p.Counter("x_total", "x")
	p.Val(1)
	p.Val(2)
	if p.Err() == nil {
		t.Fatal("error not surfaced")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("sink closed") }

// TestPromHistogramCumulative checks the le-bucket invariants directly: the
// counts are cumulative, the +Inf terminal equals _count, and the sum is the
// sum of observations.
func TestPromHistogramCumulative(t *testing.T) {
	var h metrics.ConcurrentHistogram
	vals := []float64{0.01, 0.02, 0.02, 5}
	total := 0.0
	for _, v := range vals {
		h.Record(v)
		total += v
	}
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Histogram("h_seconds", "h")
	p.Hist(&h)
	out := buf.String()
	if !strings.Contains(out, "h_seconds_count 4") {
		t.Fatalf("missing count:\n%s", out)
	}
	if !strings.Contains(out, `h_seconds_bucket{le="+Inf"} 4`) {
		t.Fatalf("missing +Inf terminal:\n%s", out)
	}
	prev := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "h_seconds_bucket") {
			continue
		}
		cum, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if cum < prev {
			t.Fatalf("buckets not cumulative:\n%s", out)
		}
		prev = cum
	}
}
