package rt

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"

	"dbwlm/internal/admission"
	"dbwlm/internal/obsv"
	"dbwlm/internal/policy"
	"dbwlm/internal/sqlmini"
)

const (
	predictCheapSQL = "SELECT name FROM customers WHERE id = 42"
	predictHeavySQL = "SELECT d.year, SUM(f.amount) FROM sales_fact f JOIN date_dim d ON f.date_id = d.id GROUP BY d.year"
)

func newPredictGate(t testing.TB, maxBucket admission.RuntimeBucket) *PredictGate {
	t.Helper()
	r, err := New([]ClassSpec{
		{Name: "c", Priority: policy.PriorityHigh, MaxMPL: 1024},
	}, Options{GlobalMaxMPL: 4096})
	if err != nil {
		t.Fatal(err)
	}
	cache := sqlmini.NewPlanCache(sqlmini.NewCostModel(sqlmini.DefaultCatalog()), 0, 0)
	knn := &admission.KNNPredictor{MaxSeconds: 10, MinTraining: 4, K: 3, Indexed: true}
	return NewPredictGate(r, cache, knn, maxBucket)
}

// AdmitSQL and Observe are the string-typed forms these tests are written
// against, over the byte and fingerprint entry points the transports use. The
// byte view is zero-copy so the allocation tests measure the gate, not the
// shim.
func (g *PredictGate) AdmitSQL(class ClassID, sql string) (Grant, Prediction, error) {
	return g.AdmitSQLBytes(class, unsafe.Slice(unsafe.StringData(sql), len(sql)), true)
}

// Observe interns the statement's plan, as an admit would have, and trains on
// it; unparseable SQL is a silent no-op.
func (g *PredictGate) Observe(sql string, seconds float64) {
	if e, _, err := g.cache.PlanInfoBytes([]byte(sql)); err == nil {
		g.ObserveFP(e.FP, seconds)
	}
}

// train feeds repeated completions so the inline trainer publishes a model:
// the cheap shape completes fast (short bucket), the heavy shape slow
// (monster bucket). Enough observations to cross the every-25 retrain
// cadence so the last model holds a balanced history of both shapes.
func train(g *PredictGate) {
	for i := 0; i < 32; i++ {
		g.Observe(predictCheapSQL, 0.05)
		g.Observe(predictHeavySQL, 900)
	}
}

func TestPredictGateGatesByBucket(t *testing.T) {
	g := newPredictGate(t, admission.BucketMedium)
	train(g)

	grant, pred, err := g.AdmitSQL(0, predictCheapSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Modeled || pred.Bucket != admission.BucketShort {
		t.Fatalf("cheap prediction = %+v, want modeled short", pred)
	}
	if !grant.Admitted() {
		t.Fatalf("cheap statement rejected: %v", grant.Verdict())
	}
	g.rt.Done(grant, 0)

	grant, pred, err = g.AdmitSQL(0, predictHeavySQL)
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Modeled || pred.Bucket != admission.BucketMonster {
		t.Fatalf("heavy prediction = %+v, want modeled monster", pred)
	}
	if grant.Verdict() != RejectedPredicted {
		t.Fatalf("heavy verdict = %v, want rejected-predicted", grant.Verdict())
	}
	if grant.Verdict().String() != "rejected-predicted" {
		t.Fatalf("verdict string = %q", grant.Verdict().String())
	}
	// A rejected grant is a no-op to release.
	g.rt.Done(grant, 0)

	st := g.Stats()
	if st.Gated != 1 {
		t.Fatalf("gated = %d, want 1", st.Gated)
	}
	if !st.Trained {
		t.Fatal("stats report untrained model")
	}
	if cs := g.rt.StatsOf(0); cs.Rejected != 1 {
		t.Fatalf("class rejected = %d, want 1", cs.Rejected)
	}
}

func TestPredictGateUnmodeledFallsThrough(t *testing.T) {
	g := newPredictGate(t, admission.BucketShort)
	// No training: the gate must fall back to cost-only admission.
	grant, pred, err := g.AdmitSQL(0, predictHeavySQL)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Modeled {
		t.Fatal("untrained predictor claims a modeled prediction")
	}
	if !grant.Admitted() {
		t.Fatalf("unmodeled statement rejected: %v", grant.Verdict())
	}
	g.rt.Done(grant, 0)
	if st := g.Stats(); st.Unmodeled != 1 {
		t.Fatalf("unmodeled = %d, want 1", st.Unmodeled)
	}
}

func TestPredictGateParseErrors(t *testing.T) {
	g := newPredictGate(t, admission.BucketMonster)
	if _, _, err := g.AdmitSQL(0, "SELEKT banana"); err == nil {
		t.Fatal("want parse error")
	}
	// Observe on unparseable SQL is a silent no-op.
	g.Observe("SELEKT banana", 1)
}

// TestPredictAdmitZeroAllocHit pins the tentpole's hot path: cache hit +
// trained model + open gate admits with zero allocations, and stays inside
// the recorder's one-alloc budget once a flight recorder is attached.
func TestPredictAdmitZeroAllocHit(t *testing.T) {
	g := newPredictGate(t, admission.BucketMonster)
	train(g)
	// Warm: cache populated by train; one admit cycle outside the measurement.
	grant, _, err := g.AdmitSQL(0, predictCheapSQL)
	if err != nil || !grant.Admitted() {
		t.Fatalf("warmup admit failed: %v %v", grant.Verdict(), err)
	}
	g.rt.Done(grant, 0)

	cycle := func() {
		grant, pred, err := g.AdmitSQL(0, predictCheapSQL)
		if err != nil || !grant.Admitted() || !pred.Modeled || !pred.CacheHit {
			t.Fatal("hot path fell off the fast path")
		}
		g.rt.Done(grant, 0)
	}
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("predict-admit hot path allocates %v allocs/op, want 0", avg)
	}
	g.rt.SetRecorder(obsv.NewRecorder(4096))
	if avg := testing.AllocsPerRun(1000, cycle); avg > 1 {
		t.Fatalf("recorder-on predict-admit allocates %v allocs/op, want <= 1", avg)
	}
}

// BenchmarkPredictAdmit measures the full wire-speed pipeline on a cache hit:
// fingerprint, cached plan lookup, feature extraction, indexed k-NN predict,
// bucket gate, and the runtime admit/release cycle.
func BenchmarkPredictAdmit(b *testing.B) {
	g := newPredictGate(b, admission.BucketMonster)
	train(g)
	grant, _, err := g.AdmitSQL(0, predictCheapSQL)
	if err != nil || !grant.Admitted() {
		b.Fatalf("warmup admit failed: %v %v", grant.Verdict(), err)
	}
	g.rt.Done(grant, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grant, _, _ := g.AdmitSQL(0, predictCheapSQL)
		g.rt.Done(grant, 0)
	}
}

// BenchmarkPredictAdmitParallel stresses the lock-free read structures —
// cache shards, model pointer, gate shards — under contention.
func BenchmarkPredictAdmitParallel(b *testing.B) {
	g := newPredictGate(b, admission.BucketMonster)
	train(g)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			grant, _, _ := g.AdmitSQL(0, predictCheapSQL)
			g.rt.Done(grant, 0)
		}
	})
}

// TestPredictGateReportsModelAge: the two model-freshness gauges read 0 until
// a model lands, then report the last fit on /metrics and in Stats alike.
func TestPredictGateReportsModelAge(t *testing.T) {
	g := newPredictGate(t, admission.BucketMonster)
	page := func() string {
		var buf bytes.Buffer
		p := obsv.NewPromWriter(&buf)
		g.WritePrometheus(p)
		if err := p.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	before := page()
	for _, line := range []string{
		"# TYPE dbwlm_predict_model_age_seconds gauge\ndbwlm_predict_model_age_seconds 0\n",
		"# TYPE dbwlm_predict_refit_seconds gauge\ndbwlm_predict_refit_seconds 0\n",
	} {
		if !strings.Contains(before, line) {
			t.Fatalf("untrained /metrics lacks %q:\n%s", line, before)
		}
	}
	if st := g.Stats(); st.ModelAgeSeconds != 0 || st.RefitSeconds != 0 {
		t.Fatalf("untrained stats report a fit: %+v", st)
	}
	train(g)
	st := g.Stats()
	if st.RefitSeconds <= 0 || st.ModelAgeSeconds < 0 || st.ModelAgeSeconds > 60 {
		t.Fatalf("trained stats: age %v s, refit %v s", st.ModelAgeSeconds, st.RefitSeconds)
	}
	if after := page(); strings.Contains(after, "dbwlm_predict_refit_seconds 0\n") {
		t.Fatalf("trained /metrics still reports no fit:\n%s", after)
	}
}
