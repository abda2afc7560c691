package rt

import (
	"dbwlm/internal/admission"
	"dbwlm/internal/metrics"
	"dbwlm/internal/obsv"
	"dbwlm/internal/sqlmini"
	"dbwlm/internal/workload"
)

// numBuckets is the runtime-bucket cardinality (short..monster).
const numBuckets = int(admission.BucketMonster) + 1

// Prediction is the wire-speed forecast attached to an admission decision:
// everything the gate learned about the statement before deciding. Plain data
// — the predict-admit path allocates nothing.
type Prediction struct {
	// Timerons is the optimizer cost estimate derived from the (possibly
	// cached) plan.
	Timerons float64
	// FP is the statement fingerprint, the stable identity the batched wire
	// protocol hands back so clients can train (OpDone) or re-admit
	// (OpAdmitFP) without resending the SQL text.
	FP sqlmini.Fingerprint
	// Seconds is the k-NN predicted service time; meaningful only when
	// Modeled is true.
	Seconds float64
	// Bucket classifies Seconds into the paper's runtime buckets.
	Bucket admission.RuntimeBucket
	// Modeled reports whether a trained model produced Seconds; before the
	// predictor has seen MinTraining completions the gate falls back to
	// cost-only admission.
	Modeled bool
	// CacheHit reports whether the plan came from the fingerprint cache.
	CacheHit bool
}

// PredictGate composes the wire-speed admission pipeline over a Runtime:
// fingerprint-cache plan lookup → feature extraction → k-NN runtime
// prediction → bucket gate → the runtime's cost/MPL admission. Statements
// whose predicted runtime bucket exceeds MaxBucket are rejected with
// RejectedPredicted before they take a slot — the paper's prediction-based
// admission control running against raw SQL.
//
// The steady-state path (cache hit, trained model, open gate) is lock-free
// and allocation-free end to end.
type PredictGate struct {
	rt        *Runtime
	cache     *sqlmini.PlanCache
	knn       *admission.KNNPredictor
	maxBucket admission.RuntimeBucket

	predicted *metrics.StripedHistogram // predicted seconds on modeled admits
	gated     *metrics.StripedCounter   // RejectedPredicted count
	unmodeled *metrics.StripedCounter   // decisions taken without a model
	// byBucket counts modeled predictions per runtime bucket — the
	// bucket-labeled series of the /metrics exposition.
	byBucket [numBuckets]*metrics.StripedCounter
}

// NewPredictGate wires a prediction gate over the runtime. maxBucket is the
// largest admissible predicted bucket (BucketMonster admits everything the
// cost limits allow, i.e. disables the bucket gate).
func NewPredictGate(r *Runtime, cache *sqlmini.PlanCache, knn *admission.KNNPredictor, maxBucket admission.RuntimeBucket) *PredictGate {
	shards := defaultShards()
	g := &PredictGate{
		rt:        r,
		cache:     cache,
		knn:       knn,
		maxBucket: maxBucket,
		predicted: metrics.NewStripedHistogram(shards),
		gated:     metrics.NewStripedCounter(shards),
		unmodeled: metrics.NewStripedCounter(shards),
	}
	for b := range g.byBucket {
		g.byBucket[b] = metrics.NewStripedCounter(shards)
	}
	return g
}

// AdmitSQLBytes runs one raw SQL statement through the full prediction
// pipeline. A non-nil error means the statement did not parse; a
// RejectedPredicted grant means the model forecast a runtime beyond the
// bucket ceiling. Admitted grants must be released via Runtime.Done. The
// text typically sits in a transport's decode scratch: the bytes are only
// read while the call runs (PlanCache.PlanInfoBytes copies to a stable string
// before caching anything), so the caller may reuse its buffer immediately.
// wait as in Admit vs AdmitNoWait.
//
//dbwlm:hotpath
func (g *PredictGate) AdmitSQLBytes(class ClassID, sql []byte, wait bool) (Grant, Prediction, error) {
	e, hit, err := g.cache.PlanInfoBytes(sql)
	if err != nil {
		return Grant{}, Prediction{}, err
	}
	return g.admitPlanned(class, e, hit, wait)
}

// AdmitFP runs prediction-based admission on a statement fingerprint alone —
// the wire protocol's repeat-traffic path, which skips even the fingerprint
// hash. cached is false when the shape is not interned (nothing is admitted;
// the client falls back to sending the SQL text).
//
//dbwlm:hotpath
func (g *PredictGate) AdmitFP(class ClassID, fp sqlmini.Fingerprint, wait bool) (grant Grant, pred Prediction, cached bool) {
	e := g.cache.Lookup(fp)
	if e == nil {
		return Grant{}, Prediction{}, false
	}
	grant, pred, _ = g.admitPlanned(class, e, true, wait)
	return grant, pred, true
}

// admitPlanned is the shared back half of every predict-admit path: feature
// extraction from the (cached) plan, k-NN runtime prediction, the bucket
// gate, then the runtime's cost/MPL admission.
//
//dbwlm:hotpath
func (g *PredictGate) admitPlanned(class ClassID, e *sqlmini.CachedPlan, hit, wait bool) (Grant, Prediction, error) {
	pred := Prediction{
		Timerons: workload.TimeronsOf(e.Cost.CPUSeconds, e.Cost.IOMB),
		FP:       e.FP,
		CacheHit: hit,
	}
	var f admission.FeatureVec
	admission.FeaturesFrom(pred.Timerons, e.Cost.Rows, e.Cost.MemMB, e.Cost.IOMB,
		e.Cost.Type == sqlmini.StmtRead, &f)
	if s, ok := g.knn.PredictSeconds(&f); ok {
		pred.Seconds, pred.Bucket, pred.Modeled = s, admission.BucketOf(s), true
		if b := int(pred.Bucket); b >= 0 && b < numBuckets {
			g.byBucket[b].Inc()
		}
		if pred.Bucket > g.maxBucket {
			g.gated.Inc()
			g.rt.classes[class].rejected.Inc()
			var qid int64
			if rec := g.rt.rec; rec != nil {
				qid = g.rt.qids.next()
				rec.Record(obsv.Event{At: g.rt.now(), QID: qid, FP: e.FP.Lo,
					Kind: obsv.KindAdmit, Reason: obsv.ReasonPredictedBucket,
					Verdict: uint8(RejectedPredicted), Class: int32(class),
					Value: pred.Timerons, Aux: s})
			}
			return Grant{verdict: RejectedPredicted, class: class, id: qid}, pred, nil
		}
		g.predicted.Record(s)
	} else {
		g.unmodeled.Inc()
	}
	return g.rt.admitWith(class, pred.Timerons, e.FP.Lo, pred.Seconds, wait), pred, nil
}

// ObserveFP trains the predictor on a completed observation identified by
// statement fingerprint — the done path of every transport: wire clients
// carry the 16-byte fingerprint from their admit result, HTTP clients echo
// the SQL text and the codec fingerprints it. Reports whether the shape was
// still interned (a miss drops the observation; the model only ever trains
// on features it can recompute).
func (g *PredictGate) ObserveFP(fp sqlmini.Fingerprint, seconds float64) bool {
	e := g.cache.Lookup(fp)
	if e == nil {
		return false
	}
	var f admission.FeatureVec
	admission.FeaturesFrom(workload.TimeronsOf(e.Cost.CPUSeconds, e.Cost.IOMB),
		e.Cost.Rows, e.Cost.MemMB, e.Cost.IOMB, e.Cost.Type == sqlmini.StmtRead, &f)
	g.knn.Observe(&f, seconds)
	return true
}

// BucketName names the runtime bucket a predicted service time falls in, as
// transports render Prediction.Seconds.
func BucketName(seconds float64) string { return admission.BucketOf(seconds).String() }

// PredictStats is the merged monitoring view of the prediction pipeline.
type PredictStats struct {
	Cache     sqlmini.CacheStats `json:"cache"`
	Gated     int64              `json:"gated"`
	Unmodeled int64              `json:"unmodeled"`
	Predicted metrics.Snapshot   `json:"predicted_seconds"`
	Retrains  int64              `json:"retrains"`
	Trained   bool               `json:"trained"`
	MaxBucket string             `json:"max_bucket"`
	// ModelAgeSeconds is how long ago the model now answering predictions
	// was published, RefitSeconds how long fitting it took; both 0 before
	// the first model.
	ModelAgeSeconds float64 `json:"model_age_seconds"`
	RefitSeconds    float64 `json:"refit_seconds"`
}

// Stats merges the gate's stripes and the plan cache's shards.
func (g *PredictGate) Stats() PredictStats {
	age, took := g.knn.LastFit()
	return PredictStats{
		Cache:           g.cache.Stats(),
		Gated:           g.gated.Value(),
		Unmodeled:       g.unmodeled.Value(),
		Predicted:       g.predicted.Snapshot(),
		Retrains:        g.knn.Retrains(),
		Trained:         g.knn.Trained(),
		ModelAgeSeconds: age.Seconds(),
		RefitSeconds:    took.Seconds(),
		MaxBucket:       g.maxBucket.String(),
	}
}
