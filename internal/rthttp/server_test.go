package rthttp

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dbwlm/internal/admission"
	"dbwlm/internal/obsv"
	"dbwlm/internal/policy"
	"dbwlm/internal/rt"
	"dbwlm/internal/sqlmini"
	"dbwlm/internal/wire"
)

func testSpecs() []rt.ClassSpec {
	return []rt.ClassSpec{
		{Name: "interactive", Priority: policy.PriorityHigh, MaxMPL: 32},
		{Name: "reporting", Priority: policy.PriorityMedium, MaxMPL: 8, MaxCostTimerons: 50000},
		{Name: "batch", Priority: policy.PriorityLow, MaxMPL: 4,
			MaxQueueDelay: 5 * time.Second, RetryBatch: 8},
	}
}

func newTestServer(t *testing.T, opts rt.Options) (*rt.Runtime, *httptest.Server) {
	t.Helper()
	r, err := rt.New(testSpecs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(r))
	t.Cleanup(srv.Close)
	return r, srv
}

// TestJSONEverywhere: every endpoint response — success or error — carries
// Content-Type: application/json and, on errors, a JSON body with an "error"
// key. The one deliberate exception is the Prometheus page.
func TestJSONEverywhere(t *testing.T) {
	_, srv := newTestServer(t, rt.Options{})
	cases := []struct {
		method, path string
		form         url.Values
		status       int
	}{
		{"POST", "/admit", url.Values{"class": {"interactive"}}, http.StatusOK},
		{"POST", "/admit", url.Values{"class": {"nope"}}, http.StatusBadRequest},
		{"POST", "/admit", url.Values{"class": {"interactive"}, "cost": {"spam"}}, http.StatusBadRequest},
		{"POST", "/done", url.Values{"token": {"garbage"}}, http.StatusBadRequest},
		{"GET", "/stats", nil, http.StatusOK},
		{"GET", "/policy", nil, http.StatusOK},
		{"GET", "/trace", nil, http.StatusNotFound}, // recorder not attached
		{"GET", "/slo", nil, http.StatusNotFound},   // slo engine not attached
		{"POST", "/load", url.Values{"mem": {"wat"}}, http.StatusBadRequest},
		{"GET", "/nosuch", nil, http.StatusNotFound},
	}
	for _, c := range cases {
		var resp *http.Response
		var err error
		if c.method == "POST" {
			resp, err = http.PostForm(srv.URL+c.path, c.form)
		} else {
			resp, err = http.Get(srv.URL + c.path)
		}
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Fatalf("%s %s: status %d, want %d (%s)", c.method, c.path, resp.StatusCode, c.status, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s %s: Content-Type %q", c.method, c.path, ct)
		}
		if c.status >= 400 {
			var e map[string]string
			if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
				t.Fatalf("%s %s: error body %q not JSON with error key", c.method, c.path, body)
			}
		}
	}
}

// TestStatsPolicyByteStable: two servers driven through the same admit
// sequence serve byte-identical /stats and /policy documents, and repeated
// GETs against a quiescent server never change a byte. This pins the
// map-order audit on the HTTP surface the same way TestDashboardDeterministic
// pins the simulated dashboard: any map-order iteration feeding these
// replies shows up here as flaky bytes. (The sequence uses admits only —
// completions record wall-clock latencies, which are real nondeterminism,
// not rendering nondeterminism.)
func TestStatsPolicyByteStable(t *testing.T) {
	drive := func() *httptest.Server {
		_, srv := newTestServer(t, rt.Options{})
		for i := 0; i < 6; i++ {
			class := []string{"interactive", "reporting", "batch"}[i%3]
			resp, err := http.PostForm(srv.URL+"/admit", url.Values{"class": {class}})
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
		return srv
	}
	get := func(srv *httptest.Server, path string) []byte {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d (%s)", path, resp.StatusCode, body)
		}
		return body
	}
	a, b := drive(), drive()
	for _, path := range []string{"/stats", "/policy"} {
		first := get(a, path)
		for i := 0; i < 3; i++ {
			if again := get(a, path); !bytes.Equal(first, again) {
				t.Fatalf("GET %s changed between reads:\n%s\nvs\n%s", path, first, again)
			}
		}
		if other := get(b, path); !bytes.Equal(first, other) {
			t.Fatalf("GET %s differs across identically-driven servers:\n%s\nvs\n%s", path, first, other)
		}
	}
}

// TestMethodNotAllowed: a wrong method gets a JSON 405 plus the Allow header
// listing what the path supports.
func TestMethodNotAllowed(t *testing.T) {
	_, srv := newTestServer(t, rt.Options{})
	cases := []struct {
		method, path, allow string
	}{
		{"GET", "/admit", "POST"},
		{"DELETE", "/done", "POST"},
		{"POST", "/stats", "GET"},
		{"POST", "/metrics", "GET"},
		{"DELETE", "/policy", "GET, POST"},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, srv.URL+c.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", c.method, c.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Fatalf("%s %s: Allow %q, want %q", c.method, c.path, got, c.allow)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s %s: 405 Content-Type %q", c.method, c.path, ct)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e["error"], "not allowed") {
			t.Fatalf("%s %s: 405 body %q", c.method, c.path, body)
		}
	}
}

// TestMetricsGolden drives a fixed admit/done sequence on an injected clock
// and compares the full GET /metrics page against testdata/metrics.golden.
// Everything on the page is deterministic: each statistic is one record, the
// recorder's capacity is the requested one, and the injected clock fixes
// every latency.
// Regenerate with UPDATE_GOLDEN=1.
func TestMetricsGolden(t *testing.T) {
	clock := int64(0)
	r, err := rt.New(testSpecs(), rt.Options{Now: func() int64 { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	r.SetRecorder(obsv.NewRecorder(1024))
	r.SetLoad(0.5, 0.25, 0.75)

	g1 := r.Admit(0, 100) // interactive, fast path
	clock += 5_000_000    // 5ms of service
	r.Done(g1, 0.004)     // velocity 0.8

	if g := r.Admit(1, 60000); g.Verdict() == rt.Admitted { // reporting, over the cost cap
		t.Fatal("over-cost admit")
	}

	g3 := r.Admit(2, 10) // batch
	clock += 20_000_000
	r.Done(g3, 0.02) // velocity 1.0

	srv := httptest.NewServer(NewServer(r))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "metrics.golden")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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

// TestMetricsWireGolden is TestMetricsGolden with everything wlmd -predict
// attaches: an (untrained) prediction gate, whose families follow the
// runtime's, and the TCP listener — two good frames on one connection and a
// zero-length frame on another — whose dbwlm_wire_* families end the page.
// Regenerate with UPDATE_GOLDEN=1.
func TestMetricsWireGolden(t *testing.T) {
	r, err := rt.New(testSpecs(), rt.Options{Now: func() int64 { return 0 }})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(r)
	cache := sqlmini.NewPlanCache(sqlmini.NewCostModel(sqlmini.DefaultCatalog()), 64, 1)
	s.EnablePredict(rt.NewPredictGate(r, cache, &admission.KNNPredictor{MaxSeconds: 60}, admission.BucketMonster))
	ws := s.EnableWire()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ws.Serve(l)
	defer ws.Close()

	send := dialWire(t, l.Addr().String())
	g := send([]wire.Op{{Code: wire.OpAdmit, Class: 0, Cost: 100}})[0]
	send([]wire.Op{{Code: wire.OpDone, Class: g.Class, Start: g.Start}})
	bad, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	bad.Write([]byte{0, 0, 0, 0})
	// The listener counts the violation before it hangs up.
	if _, err := bad.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after a zero-length frame: %v, want EOF", err)
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.Bytes()

	golden := filepath.Join("testdata", "metrics_wire.golden")
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

// TestTraceEndpointFilters exercises the /trace surface over a recorder fed
// through real admissions: bad parameters are JSON 400s, filters narrow the
// drain, and events carry renderable names.
func TestTraceEndpointFilters(t *testing.T) {
	clock := int64(0)
	r, err := rt.New(testSpecs(), rt.Options{Now: func() int64 { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	r.SetRecorder(obsv.NewRecorder(1024))
	g := r.Admit(0, 100)
	clock += 1_000_000
	r.Done(g, 0.001)
	r.Admit(1, 60000) // rejected-cost

	srv := httptest.NewServer(NewServer(r))
	defer srv.Close()

	for _, q := range []string{"?n=spam", "?class=nope", "?verdict=nope", "?kind=nope", "?qid=x"} {
		resp, err := http.Get(srv.URL + "/trace" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("trace%s: status %d, want 400", q, resp.StatusCode)
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
	all := get("")
	if all.Recorded != 3 || len(all.Events) != 3 {
		t.Fatalf("trace %+v, want 3 events", all)
	}
	admits := get("?kind=admit&verdict=admitted")
	if len(admits.Events) != 1 {
		t.Fatalf("admit filter drained %d", len(admits.Events))
	}
	e := admits.Events[0]
	if e.Kind != "admit" || e.Reason != "fast-path" || e.Class != "interactive" ||
		e.Verdict != "admitted" || e.QID == 0 {
		t.Fatalf("admit event %+v", e)
	}
	// Class 0 with verdict 0 is a real selection, not "everything".
	if got := get("?class=interactive&verdict=admitted"); len(got.Events) != 1 || got.Events[0].QID != e.QID {
		t.Fatalf("interactive admitted events %+v, want the one admit", got.Events)
	}
	rejected := get("?class=reporting")
	if len(rejected.Events) != 1 || rejected.Events[0].Verdict != "rejected-cost" {
		t.Fatalf("reporting events %+v", rejected.Events)
	}
	done := get("?kind=done")
	if len(done.Events) != 1 || done.Events[0].Value != 0.001 || done.Events[0].QID != e.QID {
		t.Fatalf("done event %+v (admit qid %d)", done.Events, e.QID)
	}
}
