package bench

import (
	"time"

	"dbwlm/internal/admission"
	"dbwlm/internal/learn"
	"dbwlm/internal/obsv"
	"dbwlm/internal/rt"
	"dbwlm/internal/sim"
	"dbwlm/internal/slo"
	"dbwlm/internal/sqlmini"
)

// layerCosts are the per-call prices the layer replays measured, kept so the
// dispatch span's self time can be computed against them.
type layerCosts struct {
	admitDone  float64 // one AdmitNoWait + Done pair
	rejectCost float64
	rejectFull float64
	fpHash     float64 // FingerprintSQL
	planHit    float64 // PlanInfoBytes on a resident shape (hash + lookup)
	planMiss   float64 // PlanInfoBytes on an evicted shape (hash + parse + plan + insert)
	knn        float64 // PredictSeconds
	observe    float64 // KNNPredictor.Observe, retrain triggers amortised
}

// perOp is the nanoseconds per operation the replays attribute to the layers
// beneath the dispatcher, at the op mix one stage pass produced. An admit
// and its done split a pair's cost; a text admit pays a plan hit or miss
// (both include the fingerprint hash), a fingerprint admit only the lookup.
func (c *layerCosts) perOp(t *Tally) float64 {
	if t.Attempted == 0 {
		return 0
	}
	textMiss := float64(t.Predicted - t.CacheHits)
	textHit := float64(t.ViaText) - textMiss
	byFP := float64(t.Predicted - t.ViaText)
	total := float64(t.Admitted+t.Released)/2*c.admitDone +
		float64(t.RejectedCost)*c.rejectCost + float64(t.RejectedFull)*c.rejectFull +
		textHit*c.planHit + textMiss*c.planMiss + byFP*max(c.planHit-c.fpHash, 0) +
		float64(t.Predicted)*c.knn
	if t.Predicted > 0 {
		total += float64(t.Released) * c.observe // every done of the SQL workload trains
	}
	return total / float64(t.Attempted)
}

// layerReplays times each inner layer's public function alone, on the
// layers the workload's path crosses: rt, obsv and slo for every live
// workload; sqlmini, learn, admission and the control-plane calls for the
// SQL workload. One span covers a chunk of calls, so the timers' own cost is
// amortised.
func layerReplays(o *Options, in *Inputs, ip *inproc, tr *Tracer, res *Result) (layerCosts, error) {
	var c layerCosts
	n := 200_000
	if o.Short {
		n = 10_000
	}
	const chunk = 256
	r := ip.rt

	c.admitDone = timeCalls(tr, "rt.admit_done", n, chunk, func(int) {
		r.Done(r.AdmitNoWait(classInteractive, plainCost), 0)
	})
	res.set("rt.admit_done_ns", c.admitDone, n)
	if o.Workload == LiveRTT {
		return c, nil // one interactive admit and its done is all the round-trip workload sends
	}

	rec := obsv.NewRecorder(16384)
	res.set("obsv.record_ns", timeCalls(tr, "obsv.record", n, chunk, func(i int) {
		rec.Record(obsv.Event{At: int64(i), QID: int64(i), Kind: obsv.KindAdmit,
			Reason: obsv.ReasonFastPath, Class: classInteractive, Value: plainCost})
	}), n)
	eng, err := slo.New(benchSLOs(), slo.Options{})
	if err != nil {
		return c, err
	}
	res.set("slo.observe_ns", timeCalls(tr, "slo.observe", n, chunk, func(int) {
		eng.Observe(classInteractive, 0.001)
	}), n)
	res.set("slo.evaluate_us", timeCalls(tr, "slo.evaluate", n/100, 16, func(int) {
		eng.Evaluate()
	})/1e3, n/100)

	if o.Workload == LiveCost {
		c.rejectCost = timeCalls(tr, "rt.reject_cost", n, chunk, func(int) {
			r.AdmitNoWait(classReporting, overLimitCost)
		})
		res.set("rt.reject_cost_ns", c.rejectCost, n)
		var held [4]rt.Grant // BenchPolicy's batch gate has four slots
		for i := range held {
			held[i] = r.AdmitNoWait(classBatch, plainCost)
		}
		c.rejectFull = timeCalls(tr, "rt.reject_full", n, chunk, func(int) {
			r.AdmitNoWait(classBatch, plainCost)
		})
		for _, g := range held {
			r.Done(g, 0)
		}
		res.set("rt.reject_full_ns", c.rejectFull, n)
		return c, nil
	}

	// SQL workload: the prediction path's layers and the control-plane calls
	// the operator makes.
	texts := make([]string, 0, 4096)
	for _, blk := range in.Conns[0].Blocks {
		for i := range blk {
			if len(texts) < cap(texts) {
				texts = append(texts, string(blk[i].op.SQL))
			}
		}
	}
	c.fpHash = timeCalls(tr, "sqlmini.fingerprint", n, chunk, func(i int) {
		sqlmini.FingerprintSQL(texts[i%len(texts)])
	})
	res.set("sqlmini.fingerprint_ns", c.fpHash, n)

	// One text per shape, so resident and evicted shapes can be addressed.
	lit := shapeTexts(in, o.Seed)
	cache := sqlmini.NewPlanCache(sqlmini.NewCostModel(sqlmini.DefaultCatalog()), 4096, 0)
	const resident = 2048 // half the capacity: nothing is evicted while they are re-read
	for _, sql := range lit[:resident] {
		if _, _, err := cache.PlanInfoBytes(sql); err != nil {
			return c, err
		}
	}
	c.planHit = timeCalls(tr, "sqlmini.plan_hit", n, chunk, func(i int) {
		cache.PlanInfoBytes(lit[i%resident])
	})
	res.set("sqlmini.plan_hit_ns", c.planHit, n)
	// Walking the whole 16 384-shape population in order against a 4 096-entry
	// cache evicts every shape long before its turn comes again.
	misses := n / 50
	c.planMiss = timeCalls(tr, "sqlmini.plan_miss", misses, 32, func(i int) {
		cache.PlanInfoBytes(lit[(resident+i)%len(lit)])
	})
	res.set("sqlmini.plan_miss_ns", c.planMiss, misses)

	// k-NN at the 2 000-sample history the live predictor retains.
	samples := make([]learn.RegSample, 2000)
	for i := range samples {
		f := in.Shapes[i%len(in.Shapes)].Feat
		samples[i] = learn.RegSample{Features: f[:], Value: 0.0002 + 1e-7*float64(i)}
	}
	trains := 20
	if o.Short {
		trains = 3
	}
	res.set("learn.knn_train_us", timeCalls(tr, "learn.knn_train", trains, 1, func(int) {
		learn.TrainKNN(samples, 5).BuildIndex()
	})/1e3, trains)
	trained := &admission.KNNPredictor{MaxSeconds: 60, MinTraining: 30, MaxHistory: 8000, Indexed: true}
	for i := range samples {
		trained.Observe(&in.Shapes[i%len(in.Shapes)].Feat, samples[i].Value)
	}
	c.knn = timeCalls(tr, "learn.knn_predict", n, chunk, func(i int) {
		trained.PredictSeconds(&in.Shapes[i%len(in.Shapes)].Feat)
	})
	res.set("learn.knn_predict_ns", c.knn, n)

	// Observe as the daemon runs it: background, indexed, a retrain every 25
	// observations on whichever core is free.
	bg := &admission.KNNPredictor{MaxSeconds: 60, MinTraining: 30, Background: true, Indexed: true}
	c.observe = timeCalls(tr, "admission.observe", n/4, chunk, func(i int) {
		bg.Observe(&in.Shapes[i%len(in.Shapes)].Feat, 0.0002)
	})
	res.set("admission.observe_ns", c.observe, n/4)
	for last := int64(-1); last != bg.Retrains(); time.Sleep(5 * time.Millisecond) {
		last = bg.Retrains() // let the last background trainer finish before the next timing
	}

	var snap []rt.ClassStats
	res.set("rt.snapshot_us", timeCalls(tr, "rt.snapshot", n/20, 16, func(int) {
		snap = r.SnapshotInto(snap)
	})/1e3, n/20)
	pol := BenchPolicy()
	var applyErr error
	res.set("rt.policy_apply_us", timeCalls(tr, "rt.policy_apply", n/20, 16, func(int) {
		if err := r.ApplyPolicy(pol); err != nil {
			applyErr = err
		}
	})/1e3, n/20)
	return c, applyErr
}

// shapeTexts renders one statement per shape, indexed like Inputs.Shapes.
func shapeTexts(in *Inputs, seed uint64) [][]byte {
	rng := sim.NewRNG(seed).Fork(9)
	out := make([][]byte, len(in.Shapes))
	for i := range in.Shapes {
		out[i] = []byte(in.Shapes[i].Render(rng))
	}
	return out
}
