package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"dbwlm/internal/admission"
	"dbwlm/internal/rt"
	"dbwlm/internal/rthttp"
	"dbwlm/internal/sqlmini"
)

// predictServer builds a predict-enabled daemon: inline (non-background)
// retraining and a low MinTraining so the model lands deterministically
// within the test.
func predictServer(t *testing.T, maxBucket admission.RuntimeBucket) (*rt.Runtime, *httptest.Server, *rt.PredictGate) {
	t.Helper()
	r, err := rt.New(defaultClasses(), rt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := sqlmini.NewPlanCache(sqlmini.NewCostModel(sqlmini.DefaultCatalog()), 0, 0)
	knn := &admission.KNNPredictor{MaxSeconds: 10, MinTraining: 4, K: 3, Indexed: true}
	gate := rt.NewPredictGate(r, cache, knn, maxBucket)
	s := rthttp.NewServer(r)
	s.EnablePredict(gate)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return r, srv, gate
}

func TestAdmitRawSQLRoundTrip(t *testing.T) {
	r, srv, gate := predictServer(t, admission.BucketMonster)
	const sql = "SELECT name FROM customers WHERE id = 42"

	// First admit: cache miss, no model yet — falls through to cost admission.
	var ar rthttp.AdmitResponse
	if code := post(t, srv, "/admit", url.Values{"class": {"interactive"}, "sql": {sql}}, &ar); code != http.StatusOK {
		t.Fatalf("admit status %d", code)
	}
	if ar.Verdict != "admitted" || ar.Token == "" {
		t.Fatalf("admit response %+v", ar)
	}
	if ar.CacheHit || ar.Modeled {
		t.Fatalf("first admit should miss cache and model: %+v", ar)
	}
	if ar.Cost <= 0 {
		t.Fatalf("planned cost %v, want > 0", ar.Cost)
	}
	// Done with the statement echoed trains the model.
	if code := post(t, srv, "/done", url.Values{"token": {ar.Token}, "sql": {sql}}, nil); code != http.StatusOK {
		t.Fatalf("done status %d", code)
	}
	if got := r.InEngine(); got != 0 {
		t.Fatalf("in-engine %d after done", got)
	}

	// Warm the model past MinTraining, then admit again: cache hit + modeled.
	for i := 0; i < 8; i++ {
		gate.ObserveFP(sqlmini.FingerprintSQL(sql), 0.01)
	}
	var ar2 rthttp.AdmitResponse
	if code := post(t, srv, "/admit", url.Values{"class": {"interactive"}, "sql": {sql}}, &ar2); code != http.StatusOK {
		t.Fatalf("second admit status %d", code)
	}
	if !ar2.CacheHit || !ar2.Modeled {
		t.Fatalf("second admit should hit cache and model: %+v", ar2)
	}
	if ar2.PredictedBucket != "short" {
		t.Fatalf("predicted bucket %q, want short", ar2.PredictedBucket)
	}
	post(t, srv, "/done", url.Values{"token": {ar2.Token}, "sql": {sql}}, nil)
}

func TestAdmitRawSQLGated(t *testing.T) {
	_, srv, gate := predictServer(t, admission.BucketShort)
	const heavy = "SELECT d.year, SUM(f.amount) FROM sales_fact f JOIN date_dim d ON f.date_id = d.id GROUP BY d.year"
	// Intern the shape (no model yet: admitted on cost alone), then train it.
	var ar rthttp.AdmitResponse
	post(t, srv, "/admit", url.Values{"class": {"reporting"}, "sql": {heavy}}, &ar)
	post(t, srv, "/done", url.Values{"token": {ar.Token}}, nil)
	for i := 0; i < 8; i++ {
		gate.ObserveFP(sqlmini.FingerprintSQL(heavy), 900) // monster completions
	}
	if code := post(t, srv, "/admit", url.Values{"class": {"reporting"}, "sql": {heavy}}, &ar); code != http.StatusTooManyRequests {
		t.Fatalf("gated admit status %d, response %+v", code, ar)
	}
	if ar.Verdict != "rejected-predicted" || ar.Token != "" {
		t.Fatalf("gated response %+v", ar)
	}
	if !ar.Modeled || ar.PredictedBucket != "monster" {
		t.Fatalf("gated prediction %+v", ar)
	}

	// /stats exposes the predict section.
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st rthttp.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Predict == nil {
		t.Fatal("stats missing predict section")
	}
	if st.Predict.Gated != 1 || !st.Predict.Trained {
		t.Fatalf("predict stats %+v", st.Predict)
	}
	if st.Predict.Cache.Hits == 0 {
		t.Fatalf("predict stats report no cache hits: %+v", st.Predict.Cache)
	}
}

func TestAdmitRawSQLParseError(t *testing.T) {
	_, srv, _ := predictServer(t, admission.BucketMonster)
	if code := post(t, srv, "/admit", url.Values{"class": {"interactive"}, "sql": {"SELEKT nope"}}, nil); code != http.StatusBadRequest {
		t.Fatalf("parse-error status %d", code)
	}
}

// TestPredictFlagsParse pins the wlmd flag surface: BucketFromName accepts
// every documented value and rejects garbage.
func TestPredictFlagsParse(t *testing.T) {
	for _, name := range []string{"short", "medium", "long", "monster"} {
		if _, ok := admission.BucketFromName(name); !ok {
			t.Fatalf("BucketFromName(%q) not ok", name)
		}
	}
	if _, ok := admission.BucketFromName("gigantic"); ok {
		t.Fatal("BucketFromName accepted garbage")
	}
}
