// Package progress implements query progress indicators (Section 3.4 of the
// paper; Chaudhuri et al. [11], Luo et al. [45], Li et al. [43]): estimators
// that track a running query and continuously predict its remaining
// execution time. Unlike manually set execution-time thresholds, progress
// indicators need no human intervention, which is what lets execution
// control be automated (the paper's closing observation of Section 3.4).
package progress

import (
	"math"

	"dbwlm/internal/engine"
	"dbwlm/internal/metrics"
	"dbwlm/internal/sim"
)

// Estimate is one progress report for a running query.
type Estimate struct {
	// Done is the completed fraction of work in [0, 1].
	Done float64
	// RemainingSeconds is the predicted time to completion.
	RemainingSeconds float64
	// Confident reports whether enough observations exist to trust the
	// estimate (the "when can we trust progress estimators" caveat [11]).
	Confident bool
}

// Estimator predicts remaining time from a stream of (time, progress)
// observations using an exponentially smoothed progress rate — the
// GetNext-driven model of the SQL progress-indicator literature.
type Estimator struct {
	lastT   sim.Time
	lastP   float64
	started bool
	obs     int
	rate    *metrics.EWMA // progress fraction per second
	minObs  int
}

// NewEstimator returns an estimator that reports Confident after minObs
// rate observations (default 3).
func NewEstimator(minObs int) *Estimator {
	if minObs <= 0 {
		minObs = 3
	}
	return &Estimator{rate: metrics.NewEWMA(0.3), minObs: minObs}
}

// Observe feeds one (time, progress) sample. Progress moving backwards (a
// GoBack resume) resets the rate model.
func (e *Estimator) Observe(t sim.Time, p float64) {
	if !e.started {
		e.lastT, e.lastP, e.started = t, p, true
		return
	}
	if t <= e.lastT {
		return
	}
	if p < e.lastP {
		// Work was lost (suspend/restart); restart the model.
		e.lastT, e.lastP = t, p
		e.rate = metrics.NewEWMA(0.3)
		e.obs = 0
		return
	}
	dt := t.Sub(e.lastT).Seconds()
	e.rate.Observe((p - e.lastP) / dt)
	e.obs++
	e.lastT, e.lastP = t, p
}

// Estimate reports the current prediction.
func (e *Estimator) Estimate() Estimate {
	est := Estimate{Done: e.lastP, Confident: e.obs >= e.minObs}
	r := e.rate.Value()
	if r <= 1e-12 {
		est.RemainingSeconds = math.Inf(1)
		if e.lastP >= 1 {
			est.RemainingSeconds = 0
		}
		return est
	}
	est.RemainingSeconds = (1 - e.lastP) / r
	if est.RemainingSeconds < 0 {
		est.RemainingSeconds = 0
	}
	return est
}

// Tracker maintains an Estimator per engine query, sampled every interval.
// It is the monitoring half of automated execution control: controllers ask
// it for a query's remaining time instead of relying on manual thresholds.
type Tracker struct {
	eng      *engine.Engine
	interval sim.Duration
	ests     map[int64]*Estimator
	stop     func()
}

// NewTracker starts sampling the engine's resident queries every interval.
//
//dbwlm:nolint deadcode -- registry row "query progress indicators" runs only under tests; the ROADMAP item "Every registry row runs in a binary, or is deleted" wires it in or deletes it
func NewTracker(eng *engine.Engine, interval sim.Duration) *Tracker {
	if interval <= 0 {
		interval = 250 * sim.Millisecond
	}
	t := &Tracker{eng: eng, interval: interval, ests: make(map[int64]*Estimator)}
	t.stop = eng.Sim().Every(interval, func() bool {
		t.sample()
		return true
	})
	return t
}

func (t *Tracker) sample() {
	now := t.eng.Now()
	live := map[int64]bool{}
	for _, q := range t.eng.Running() {
		live[q.ID] = true
		est := t.ests[q.ID]
		if est == nil {
			est = NewEstimator(0)
			t.ests[q.ID] = est
		}
		est.Observe(now, q.Progress())
	}
	for id := range t.ests {
		if !live[id] {
			delete(t.ests, id)
		}
	}
}

// Estimate returns the current estimate for query id; ok is false when the
// query is unknown (not yet sampled or already gone).
//
//dbwlm:nolint deadcode -- registry row "query progress indicators" runs only under tests; the ROADMAP item "Every registry row runs in a binary, or is deleted" wires it in or deletes it
func (t *Tracker) Estimate(id int64) (Estimate, bool) {
	est := t.ests[id]
	if est == nil {
		return Estimate{}, false
	}
	return est.Estimate(), true
}

// Stop halts sampling.
//
//dbwlm:nolint deadcode -- registry row "query progress indicators" runs only under tests; the ROADMAP item "Every registry row runs in a binary, or is deleted" wires it in or deletes it
func (t *Tracker) Stop() { t.stop() }

// OptimizerEstimate is the threshold-era alternative: remaining time from
// the optimizer's total-cost estimate and the query's elapsed time, which
// inherits the optimizer's estimation error. Provided for the A3-style
// comparisons of indicator quality.
//
//dbwlm:nolint deadcode -- registry row "query progress indicators" runs only under tests; the ROADMAP item "Every registry row runs in a binary, or is deleted" wires it in or deletes it
func OptimizerEstimate(estTotalSeconds float64, elapsed sim.Duration) float64 {
	rem := estTotalSeconds - elapsed.Seconds()
	if rem < 0 {
		return 0
	}
	return rem
}
