package admission

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dbwlm/internal/learn"
	"dbwlm/internal/sim"
	"dbwlm/internal/sqlmini"
	"dbwlm/internal/workload"
)

// RuntimeBucket is a predicted execution-time range — the output of the
// PQR-style decision tree of Gupta et al. [23], which predicts ranges rather
// than point values.
type RuntimeBucket int

// Runtime buckets: boundaries at 1s, 10s, 100s.
const (
	BucketShort   RuntimeBucket = iota // < 1s
	BucketMedium                       // 1s - 10s
	BucketLong                         // 10s - 100s
	BucketMonster                      // >= 100s
)

// String names the bucket; values outside the defined range (negative or
// past BucketMonster) render as "unknown".
func (b RuntimeBucket) String() string {
	names := []string{"short", "medium", "long", "monster"}
	if b >= 0 && int(b) < len(names) {
		return names[b]
	}
	return "unknown"
}

// BucketFromName parses a bucket name ("short", "medium", "long",
// "monster") — the wlmd -predict-max-bucket flag value.
func BucketFromName(name string) (RuntimeBucket, bool) {
	for b := BucketShort; b <= BucketMonster; b++ {
		if b.String() == name {
			return b, true
		}
	}
	return 0, false
}

// numBuckets is the label-space size.
const numBuckets = 4

// BucketOf classifies an observed runtime.
//
//dbwlm:hotpath
func BucketOf(seconds float64) RuntimeBucket {
	switch {
	case seconds < 1:
		return BucketShort
	case seconds < 10:
		return BucketMedium
	case seconds < 100:
		return BucketLong
	default:
		return BucketMonster
	}
}

// NumFeatures is the dimensionality of the pre-execution feature vector.
const NumFeatures = 5

// FeatureVec is the fixed-size feature array the zero-alloc extraction path
// fills; f[:] adapts it to the []float64 the models consume.
type FeatureVec [NumFeatures]float64

// FeaturesFrom fills out with the pre-execution features prediction models
// use (Ganapathi et al. [21]: properties available before a query runs — its
// plan's estimates and its statement class). Allocation-free: the live admit
// path extracts into a stack array.
//
//dbwlm:hotpath
func FeaturesFrom(timerons, rows, memMB, ioMB float64, isRead bool, out *FeatureVec) {
	read := 0.0
	if isRead {
		read = 1
	}
	out[0] = math.Log1p(timerons)
	out[1] = math.Log1p(rows)
	out[2] = math.Log1p(memMB)
	out[3] = math.Log1p(ioMB)
	out[4] = read
}

// RequestFeaturesInto extracts a request's features into out without
// allocating.
//
//dbwlm:hotpath
func RequestFeaturesInto(r *workload.Request, out *FeatureVec) {
	FeaturesFrom(r.Est.Timerons, r.Est.Rows, r.Est.MemMB, r.Est.IOMB, r.Type == sqlmini.StmtRead, out)
}

// RequestFeatures extracts the pre-execution features as a fresh slice; the
// allocation-free path is RequestFeaturesInto.
func RequestFeatures(r *workload.Request) []float64 {
	var f FeatureVec
	RequestFeaturesInto(r, &f)
	out := make([]float64, NumFeatures)
	copy(out, f[:])
	return out
}

// refitInterval is the least time between the starts of two background
// refits. Counting observations alone cannot pace a live trainer: at wire
// rates "every 25 observations" is always already due, so a faster fit only
// buys more fits. One constant, not a knob: 10 ms keeps a model at most a few
// hundred observations stale at any rate the daemon sustains and costs about
// 1 % of one core in fits.
const refitInterval = 10 * time.Millisecond

// refitPace is the refit schedule both online predictors share, so that
// Background means one thing. A refit is due once the predictor holds enough
// history and either has never refit or has seen `every` observations since
// the last refit began. The synchronous (simulated) path is paced by that
// count alone and stays deterministic; a background refit additionally waits
// until refitInterval has passed since the previous one began, and at most
// one is in flight. The clock is read once per `every` observations, not once
// per observation, so a model is never staler than refitInterval plus `every`
// observations plus one fit.
//
// refitPace is only ever embedded in a predictor; the mu its counters name is
// that predictor's.
type refitPace struct {
	sinceFit  int              // observations since the last refit began; guarded by mu
	begun     bool             // a first refit has been claimed; guarded by mu
	lastBegan time.Time        // guarded by mu
	now       func() time.Time // test seam; nil reads the wall clock

	retraining atomic.Bool
	retrains   atomic.Int64
	fittedAt   atomic.Int64 // unix nanoseconds the current model was published; 0 before the first
	fitNanos   atomic.Int64 // how long that fit took
}

func (r *refitPace) clock() time.Time {
	if r.now != nil {
		return r.now()
	}
	return time.Now()
}

// observed counts one observation and reports whether a refit starts now,
// claiming it if so. Whether a first refit has begun is the pace's own state,
// not read off the model pointer: the trainer publishes the model before it
// releases the in-flight flag, and an observer that saw "no model" in between
// would otherwise claim a second first fit.
//
//dbwlm:locked mu
func (r *refitPace) observed(background, enough bool, every int) bool {
	r.sinceFit++
	if !enough || (r.begun && r.sinceFit < every) {
		return false
	}
	if background {
		if r.begun && r.sinceFit%every != 0 {
			return false
		}
		t := r.clock()
		if r.begun && t.Sub(r.lastBegan) < refitInterval {
			return false
		}
		if !r.retraining.CompareAndSwap(false, true) {
			// A trainer is in flight; sinceFit keeps accumulating and a later
			// observation starts the next round.
			return false
		}
		r.lastBegan = t
	}
	r.begun = true
	r.sinceFit = 0
	return true
}

// run executes a claimed refit — fit trains and publishes the model — inline,
// or on a goroutine when background is set, and records its duration and the
// moment the model landed.
func (r *refitPace) run(background bool, fit func()) {
	timed := func() {
		began := r.clock()
		fit()
		landed := r.clock()
		r.fitNanos.Store(int64(landed.Sub(began)))
		r.fittedAt.Store(landed.UnixNano())
		r.retrains.Add(1)
		r.retraining.Store(false)
	}
	if background {
		go timed()
	} else {
		timed()
	}
}

// Retrains reports how many models have been fit and swapped in.
func (r *refitPace) Retrains() int64 { return r.retrains.Load() }

// LastFit reports how long ago the current model was published and how long
// fitting it took; both are zero before the first model lands. With paced
// refits the age is what tells an operator how stale a prediction can be.
func (r *refitPace) LastFit() (age, took time.Duration) {
	at := r.fittedAt.Load()
	if at == 0 {
		return 0, 0
	}
	return r.clock().Sub(time.Unix(0, at)), time.Duration(r.fitNanos.Load())
}

// TreePredictor predicts runtime ranges with a decision tree (Gupta PQR).
// It accumulates observations online and retrains every RetrainEvery
// completions. The model lives behind an atomic pointer — the decision path
// is lock-free and never observes a torn tree — and with Background set the
// retrain itself runs on a goroutine and swaps the pointer when done
// (mirroring the limits-block reload pattern of internal/rt), so a decision
// never blocks on training.
type TreePredictor struct {
	// MaxBucket is the largest admissible predicted bucket; work predicted
	// beyond it is queued (or rejected with Reject=true).
	MaxBucket RuntimeBucket
	// Reject rejects over-limit work instead of queueing.
	Reject bool
	// RetrainEvery controls retraining cadence (default 50).
	RetrainEvery int
	// MinTraining is the number of observations required before the
	// predictor starts gating (default 30); before that it admits all.
	MinTraining int
	// Background moves retraining onto a goroutine and paces it by time as
	// well as by count (see refitPace). The simulated path keeps the default
	// (synchronous, count-paced, deterministic); the live runtime sets it.
	Background bool

	mu      sync.Mutex // guards history and the pace's counters
	history []learn.Sample
	refitPace

	model atomic.Pointer[learn.DecisionTree]
}

// Name implements Controller.
func (p *TreePredictor) Name() string { return "predict-tree" }

// Decide implements Controller.
func (p *TreePredictor) Decide(r *workload.Request, _ sim.Time) Decision {
	t := p.model.Load()
	if t == nil {
		return Admit
	}
	var f FeatureVec
	RequestFeaturesInto(r, &f)
	b := RuntimeBucket(t.Predict(f[:]))
	if b <= p.MaxBucket {
		return Admit
	}
	if p.Reject {
		return Reject
	}
	return Queue
}

// ObserveCompletion implements CompletionObserver: record the actual runtime
// and periodically retrain (inline, or in the background when Background is
// set).
func (p *TreePredictor) ObserveCompletion(r *workload.Request, responseSeconds float64, _ sim.Time) {
	p.mu.Lock()
	p.history = append(p.history, learn.Sample{
		Features: RequestFeatures(r),
		Label:    int(BucketOf(responseSeconds)),
	})
	min := p.MinTraining
	if min <= 0 {
		min = 30
	}
	every := p.RetrainEvery
	if every <= 0 {
		every = 50
	}
	if !p.observed(p.Background, len(p.history) >= min, every) {
		p.mu.Unlock()
		return
	}
	// Snapshot: history only ever grows and samples are immutable once
	// appended, so the trainer can read a prefix copy without the lock.
	snap := make([]learn.Sample, len(p.history))
	copy(snap, p.history)
	p.mu.Unlock()

	p.run(p.Background, func() {
		p.model.Store(learn.TrainDecisionTree(snap, numBuckets, learn.TreeConfig{MaxDepth: 8, MinLeafSize: 3}))
	})
}

// KNNPredictor predicts runtime seconds from the k nearest historical
// queries in feature space (Ganapathi-style similarity) and gates work whose
// predicted runtime exceeds MaxSeconds. History is retained stratified by
// runtime bucket so that a flood of fast transactions cannot evict the few
// observations of slow queries — the class imbalance that otherwise
// un-trains the model exactly when it is gating well.
//
// The fitted model sits behind an atomic pointer: Decide and Predict are
// lock-free and torn-read-free however many goroutines call them. With
// Background set, retraining happens on a goroutine (at most one in flight,
// no sooner than refitInterval after the previous one began) and the finished
// model — including its k-d tree index when Indexed is set — swaps in
// atomically.
type KNNPredictor struct {
	MaxSeconds float64
	K          int // default 5
	Reject     bool
	// MinTraining before gating begins (default 30).
	MinTraining int
	// MaxHistory bounds memory (default 2000, split evenly across runtime
	// buckets with FIFO eviction within a bucket). A bucket's share is fixed
	// when its first run is observed.
	MaxHistory int
	// Background moves retraining onto a goroutine and paces it by time as
	// well as by count (live runtime; see refitPace); the simulated path
	// keeps the synchronous, count-paced, deterministic default.
	Background bool
	// Indexed builds the k-d tree index at train time, replacing the O(n)
	// prediction scan with a pruned search, and the table of predictions at
	// the window's recurring points (learn.KNN.BuildMemo), which skips even
	// that for repeats.
	Indexed bool

	mu sync.Mutex // guards history, oldest and the pace's counters
	// history is one flat ring per runtime bucket: it fills to the bucket's
	// share of MaxHistory, then each new run overwrites the oldest.
	history [numBuckets][]knnRun
	oldest  [numBuckets]int // where a full ring's oldest run sits
	refitPace

	model atomic.Pointer[learn.KNN]
}

// knnRun is one retained observation, features inline, so a bucket's window
// is a single allocation and recording a run makes none.
type knnRun struct {
	features FeatureVec
	seconds  float64
}

// Name implements Controller.
func (p *KNNPredictor) Name() string { return "predict-knn" }

// Decide implements Controller.
func (p *KNNPredictor) Decide(r *workload.Request, _ sim.Time) Decision {
	m := p.model.Load()
	if m == nil {
		return Admit
	}
	var f FeatureVec
	RequestFeaturesInto(r, &f)
	if m.PredictValue(f[:]) <= p.MaxSeconds {
		return Admit
	}
	if p.Reject {
		return Reject
	}
	return Queue
}

// PredictSeconds predicts the runtime for an extracted feature vector; ok is
// false before the first model lands. Lock-free and allocation-free — the
// live admit path calls it on every request.
//
//dbwlm:hotpath
func (p *KNNPredictor) PredictSeconds(f *FeatureVec) (seconds float64, ok bool) {
	seconds, _, ok = p.PredictSecondsMemo(f)
	return seconds, ok
}

// PredictSecondsMemo is PredictSeconds that also reports whether the model's
// table of recurring training points answered (memo) instead of a search.
// The table travels inside the model, so one pointer load pairs them.
//
//dbwlm:hotpath
func (p *KNNPredictor) PredictSecondsMemo(f *FeatureVec) (seconds float64, memo, ok bool) {
	m := p.model.Load()
	if m == nil {
		return 0, false, false
	}
	seconds, memo = m.PredictValueMemo(f[:])
	return seconds, memo, true
}

// ObserveCompletion implements CompletionObserver.
func (p *KNNPredictor) ObserveCompletion(r *workload.Request, responseSeconds float64, _ sim.Time) {
	var f FeatureVec
	RequestFeaturesInto(r, &f)
	p.Observe(&f, responseSeconds)
}

// Observe records one completed run (features already extracted — the live
// /done path calls this directly) and retrains at the usual cadence.
func (p *KNNPredictor) Observe(f *FeatureVec, responseSeconds float64) {
	maxH := p.MaxHistory
	if maxH <= 0 {
		maxH = 2000
	}
	perBucket := maxH / numBuckets
	if perBucket < 1 {
		perBucket = 1
	}
	p.mu.Lock()
	b := BucketOf(responseSeconds)
	hs := p.history[b]
	if hs == nil {
		hs = make([]knnRun, 0, perBucket)
	}
	if len(hs) < cap(hs) {
		p.history[b] = append(hs, knnRun{*f, responseSeconds})
	} else {
		hs[p.oldest[b]] = knnRun{*f, responseSeconds}
		p.oldest[b] = (p.oldest[b] + 1) % len(hs)
	}
	min := p.MinTraining
	if min <= 0 {
		min = 30
	}
	k := p.K
	if k <= 0 {
		k = 5
	}
	n := p.historySize()
	if !p.observed(p.Background, n >= min, 25) {
		p.mu.Unlock()
		return
	}
	// Snapshot for the trainer: buckets in fixed order, each ring oldest
	// first. k-NN breaks distance ties by sample position, so this order is
	// part of every prediction (and admission decision).
	all := make([]learn.RegSample, 0, n)
	flat := make([]float64, n*NumFeatures)
	for b, hs := range p.history {
		for i := range hs {
			run := &hs[(p.oldest[b]+i)%len(hs)]
			row := flat[len(all)*NumFeatures:][:NumFeatures:NumFeatures]
			copy(row, run.features[:])
			all = append(all, learn.RegSample{Features: row, Value: run.seconds})
		}
	}
	p.mu.Unlock()

	p.run(p.Background, func() {
		m := learn.TrainKNN(all, k)
		if p.Indexed {
			m.BuildIndex()
			m.BuildMemo()
		}
		p.model.Store(m)
	})
}

// Trained reports whether a model has been fit and swapped in.
func (p *KNNPredictor) Trained() bool { return p.model.Load() != nil }

// historySize must be called with mu held (or from single-threaded tests).
func (p *KNNPredictor) historySize() int {
	n := 0
	for _, hs := range p.history {
		n += len(hs)
	}
	return n
}
