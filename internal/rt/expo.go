package rt

import (
	"dbwlm/internal/admission"
	"dbwlm/internal/obsv"
)

// WritePrometheus renders the runtime's merged-shard statistics as
// Prometheus text-format families — the GET /metrics body. Counters are the
// striped per-class recorders (monotone, so scrape-to-scrape rates are
// meaningful); histograms export their cumulative log-bucket arrays with
// per-class labels.
func (r *Runtime) WritePrometheus(p *obsv.PromWriter) {
	p.Gauge("dbwlm_in_engine", "Requests currently admitted across all classes.")
	p.Val(float64(r.InEngine()))
	p.Gauge("dbwlm_low_priority_gate", "1 while the congestion gate is holding low-priority work.")
	gate := 0.0
	if r.LowPriorityGate() {
		gate = 1
	}
	p.Val(gate)
	p.Gauge("dbwlm_mem_pressure", "Externally fed memory demand / capacity.")
	p.Val(r.memPressure.Value())
	p.Gauge("dbwlm_conflict_ratio", "Externally fed lock-conflict ratio.")
	p.Val(r.conflictRatio.Value())
	p.Gauge("dbwlm_cpu_utilization", "Externally fed CPU utilization fraction.")
	p.Val(r.cpuUtil.Value())

	p.Gauge("dbwlm_class_in_engine", "Admitted requests per class.")
	for _, cs := range r.classes {
		p.Val(float64(cs.gate.occupancy()), "class", cs.spec.Name)
	}
	p.Gauge("dbwlm_class_queue_len", "Waiters parked per class queue.")
	for _, cs := range r.classes {
		p.Val(float64(cs.gate.waiters.Load()), "class", cs.spec.Name)
	}
	p.Counter("dbwlm_decisions_total", "Admission decisions by class and verdict (rejected spans cost and predicted-bucket rejections).")
	for _, cs := range r.classes {
		p.Val(float64(cs.admitted.Value()), "class", cs.spec.Name, "verdict", Admitted.String())
		p.Val(float64(cs.rejected.Value()), "class", cs.spec.Name, "verdict", RejectedCost.String())
		p.Val(float64(cs.timeouts.Value()), "class", cs.spec.Name, "verdict", RejectedTimeout.String())
	}
	p.Counter("dbwlm_queued_total", "Requests that parked in a wait queue before their verdict.")
	for _, cs := range r.classes {
		p.Val(float64(cs.queued.Value()), "class", cs.spec.Name)
	}
	p.Counter("dbwlm_done_total", "Admitted requests released via Done.")
	for _, cs := range r.classes {
		p.Val(float64(cs.completed.Value()), "class", cs.spec.Name)
	}
	p.Histogram("dbwlm_latency_seconds", "Service time between grant and release.")
	for _, cs := range r.classes {
		p.Hist(cs.latency, "class", cs.spec.Name)
	}
	p.Histogram("dbwlm_queue_wait_seconds", "Time parked in the wait queue before admission.")
	for _, cs := range r.classes {
		p.Hist(cs.wait, "class", cs.spec.Name)
	}
	p.Histogram("dbwlm_velocity_ratio", "Execution velocity (ideal seconds / observed seconds) of completed work.")
	for _, cs := range r.classes {
		p.Hist(cs.velocity, "class", cs.spec.Name)
	}

	if rec := r.rec; rec != nil {
		p.Counter("dbwlm_trace_recorded_total", "Flight-recorder events ever recorded.")
		p.Val(float64(rec.Recorded()))
		p.Counter("dbwlm_trace_overwritten_total", "Flight-recorder events overwritten by ring wrap.")
		p.Val(float64(rec.Overwritten()))
		p.Gauge("dbwlm_trace_capacity", "Flight-recorder slot capacity.")
		p.Val(float64(rec.Cap()))
	}

	// The dbwlm_slo_* families appear only when the SLO engine is attached,
	// same gating as the recorder families above.
	r.slo.WritePrometheus(p)
}

// WritePrometheus renders the prediction pipeline's families: plan-cache
// traffic, bucket-labeled prediction counts, the predicted-seconds
// distribution, and model training state.
func (g *PredictGate) WritePrometheus(p *obsv.PromWriter) {
	cache := g.cache.Stats()
	p.Counter("dbwlm_plan_cache_hits_total", "Fingerprint plan-cache hits.")
	p.Val(float64(cache.Hits))
	p.Counter("dbwlm_plan_cache_misses_total", "Fingerprint plan-cache misses (parse+plan paid).")
	p.Val(float64(cache.Misses))
	p.Gauge("dbwlm_plan_cache_entries", "Interned plans resident in the cache.")
	p.Val(float64(cache.Entries))
	p.Counter("dbwlm_predictions_total", "Modeled runtime predictions by bucket.")
	for b := 0; b < numBuckets; b++ {
		p.Val(float64(g.byBucket[b].Value()), "bucket", admission.RuntimeBucket(b).String())
	}
	p.Counter("dbwlm_predict_gated_total", "Admissions rejected because the predicted bucket exceeded the ceiling.")
	p.Val(float64(g.gated.Value()))
	p.Counter("dbwlm_predict_unmodeled_total", "Decisions taken before the model was trained.")
	p.Val(float64(g.unmodeled.Value()))
	p.Counter("dbwlm_predict_retrains_total", "Background model retrains completed.")
	p.Val(float64(g.knn.Retrains()))
	p.Gauge("dbwlm_predict_trained", "1 once the predictor gates on a trained model.")
	trained := 0.0
	if g.knn.Trained() {
		trained = 1
	}
	p.Val(trained)
	age, took := g.knn.LastFit()
	p.Gauge("dbwlm_predict_model_age_seconds", "Time since the model predictions are read from was published.")
	p.Val(age.Seconds())
	p.Gauge("dbwlm_predict_refit_seconds", "How long fitting that model took.")
	p.Val(took.Seconds())
	p.Histogram("dbwlm_predicted_seconds", "Predicted service seconds on modeled admits.")
	p.Hist(g.predicted)
}
