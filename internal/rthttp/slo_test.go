package rthttp

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dbwlm/internal/obsv"
	"dbwlm/internal/rt"
	"dbwlm/internal/slo"
)

// newSLOTestRuntime builds the standard three-class runtime on an injected
// clock with an attached SLO engine whose windows are short enough to age
// within a test.
func newSLOTestRuntime(t testing.TB, clock *int64) *rt.Runtime {
	t.Helper()
	r, err := rt.New(testSpecs(), rt.Options{Now: func() int64 { return *clock }})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := slo.New([]slo.Spec{
		{Class: "interactive", Target: 0.001, MissBudget: 0.01,
			FastWindow: time.Second, SlowWindow: 4 * time.Second},
		{Class: "reporting", Target: 0.5},
		{Class: "batch"},
	}, slo.Options{Now: r.NowNanos, Epoch: 250 * time.Millisecond, HistShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.SetSLO(eng)
	return r
}

// TestSLOGolden drives a fixed admit/done sequence on an injected clock and
// compares the full GET /slo document against testdata/slo.golden, plus
// repeated GETs for byte stability. Every value in the report is an integer
// count or a ratio of integer counts, so the page is exactly reproducible.
// Regenerate with UPDATE_GOLDEN=1.
func TestSLOGolden(t *testing.T) {
	clock := int64(0)
	r := newSLOTestRuntime(t, &clock)

	g := r.Admit(0, 100) // interactive, within target
	clock += 500_000     // 0.5ms
	r.Done(g, 0.0004)

	g = r.Admit(0, 100) // interactive, 5ms: a deadline miss
	clock += 5_000_000
	r.Done(g, 0.004)

	g = r.Admit(1, 100) // reporting, within its 500ms target
	clock += 20_000_000
	r.Done(g, 0.02)

	g = r.Admit(2, 10) // batch, best-effort
	clock += 40_000_000
	r.Done(g, 0.04)

	// Evaluate just past the first closed epoch so the whole sequence sits
	// inside both windows (their starts clamp to process start).
	clock = int64(300 * time.Millisecond)

	srv := httptest.NewServer(NewServer(r))
	defer srv.Close()
	get := func() []byte {
		resp, err := http.Get(srv.URL + "/slo")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /slo: status %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("GET /slo: Content-Type %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	body := get()
	for i := 0; i < 3; i++ {
		if again := get(); !bytes.Equal(body, again) {
			t.Fatalf("GET /slo changed between reads:\n%s\nvs\n%s", body, again)
		}
	}

	golden := filepath.Join("testdata", "slo.golden")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("/slo drifted from golden file:\n--- got ---\n%s--- want ---\n%s", body, want)
	}

	// Sanity beyond bytes: the document says what the sequence did.
	var sr SLOResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Classes) != 3 {
		t.Fatalf("classes %d, want 3", len(sr.Classes))
	}
	ia := sr.Classes[0]
	if ia.Class != "interactive" || ia.Total != 2 || ia.Missed != 1 {
		t.Fatalf("interactive report %+v, want 1/2 missed", ia)
	}
	if ia.Windows[0].MissRate != 0.5 || ia.Windows[0].BurnRate != 50 {
		t.Fatalf("interactive fast window %+v, want miss rate 0.5 burn 50", ia.Windows[0])
	}
}

// TestMetricsSLOGolden is TestMetricsGolden with the SLO engine attached:
// the same deterministic page now ends with the dbwlm_slo_* families.
// Regenerate with UPDATE_GOLDEN=1.
func TestMetricsSLOGolden(t *testing.T) {
	clock := int64(0)
	r := newSLOTestRuntime(t, &clock)
	r.SetRecorder(obsv.NewRecorderShards(1024, 8))

	g := r.Admit(0, 100)
	clock += 5_000_000 // 5ms: misses the 1ms interactive target
	r.Done(g, 0.004)
	g = r.Admit(2, 10)
	clock += 20_000_000
	r.Done(g, 0.02)
	clock = int64(300 * time.Millisecond)

	srv := httptest.NewServer(NewServer(r))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte("dbwlm_slo_deadline_misses_total")) {
		t.Fatalf("/metrics missing slo families:\n%s", body)
	}

	golden := filepath.Join("testdata", "metrics_slo.golden")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("/metrics drifted from golden file:\n--- got ---\n%s--- want ---\n%s", body, want)
	}
}

// TestTraceSinceFilter: the since= parameter narrows the drain to events
// newer than now minus the duration, and malformed values are JSON 400s.
func TestTraceSinceFilter(t *testing.T) {
	clock := int64(0)
	r, err := rt.New(testSpecs(), rt.Options{Now: func() int64 { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	r.SetRecorder(obsv.NewRecorder(1024))
	g := r.Admit(0, 100) // at t=0
	r.Done(g, 0.001)     // at t=0
	clock = int64(10 * time.Second)
	r.Admit(1, 100) // at t=10s
	clock = int64(12 * time.Second)

	srv := httptest.NewServer(NewServer(r))
	defer srv.Close()

	for _, q := range []string{"?since=wat", "?since=-3s", "?since=5"} {
		resp, err := http.Get(srv.URL + "/trace" + q)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("trace%s: status %d, want 400 (%s)", q, resp.StatusCode, body)
		}
	}

	get := func(q string) TraceResponse {
		t.Helper()
		resp, err := http.Get(srv.URL + "/trace" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var tr TraceResponse
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	if all := get(""); len(all.Events) != 3 {
		t.Fatalf("unfiltered drain %d events, want 3", len(all.Events))
	}
	recent := get("?since=5s") // cutoff at t=7s: only the t=10s admit
	if len(recent.Events) != 1 || recent.Events[0].Class != "reporting" {
		t.Fatalf("since=5s drained %+v, want the recent admit only", recent.Events)
	}
	// A window wider than the process lifetime matches everything.
	if wide := get("?since=1h"); len(wide.Events) != 3 {
		t.Fatalf("since=1h drained %d events, want 3", len(wide.Events))
	}
	// since composes with the other filters.
	if mixed := get("?since=5s&kind=done"); len(mixed.Events) != 0 {
		t.Fatalf("since+kind drained %+v, want none", mixed.Events)
	}
}
