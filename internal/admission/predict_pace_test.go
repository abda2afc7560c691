package admission

import (
	"sync/atomic"
	"testing"
	"time"

	"dbwlm/internal/learn"
)

// fakeClock is the injected time source of the pacing tests; the background
// trainer reads it too, hence the atomic.
type fakeClock struct{ nanos atomic.Int64 }

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.nanos.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.nanos.Add(int64(d)) }

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.nanos.Store(int64(time.Hour))
	return c
}

// observeRuns feeds n runs spread over all four runtime buckets, with
// recurring feature vectors so distance ties exist.
func observeRuns(p *KNNPredictor, from, n int) {
	seconds := []float64{0.5, 5, 50, 500}
	for i := from; i < from+n; i++ {
		var f FeatureVec
		FeaturesFrom(float64(i%97), float64(i%13), 1, 1, i%2 == 0, &f)
		p.Observe(&f, seconds[i%7%4])
	}
}

// waitIdle waits for the in-flight trainer, if any, to land.
func waitIdle(t *testing.T, r *refitPace) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r.retraining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("retraining flag stuck")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestKNNBackgroundRefitsPacedByClock pins the live pacing rule: however many
// observations arrive, a background refit starts only once refitInterval has
// passed since the previous one began.
func TestKNNBackgroundRefitsPacedByClock(t *testing.T) {
	clock := newFakeClock()
	p := &KNNPredictor{MaxSeconds: 10, Background: true, Indexed: true}
	p.now = clock.now
	if age, took := p.LastFit(); age != 0 || took != 0 {
		t.Fatalf("LastFit before any model: %v, %v", age, took)
	}
	observeRuns(p, 0, 100)
	waitRetrained(t, p.Retrains, 1) // history reached MinTraining: the first fit needs no interval
	observeRuns(p, 100, 9900)
	waitIdle(t, &p.refitPace)
	if got := p.Retrains(); got != 1 {
		t.Fatalf("10 000 observations at a frozen clock published %d models, want 1", got)
	}

	clock.advance(refitInterval - 1)
	observeRuns(p, 0, 100)
	waitIdle(t, &p.refitPace)
	if got := p.Retrains(); got != 1 {
		t.Fatalf("a refit started %v short of the interval (%d models)", time.Duration(1), got)
	}
	clock.advance(1)
	observeRuns(p, 0, 25) // the clock is consulted once per 25 observations
	waitRetrained(t, p.Retrains, 2)
	observeRuns(p, 0, 10000)
	waitIdle(t, &p.refitPace)
	if got := p.Retrains(); got != 2 {
		t.Fatalf("one interval admitted %d refits, want exactly 1 more", got-1)
	}

	clock.advance(3 * time.Second)
	if age, _ := p.LastFit(); age != 3*time.Second {
		t.Fatalf("model age %v, want 3s on the injected clock", age)
	}
}

// TestTreeBackgroundRefitsPacedByClock is the same rule through the same
// helper on the decision-tree predictor.
func TestTreeBackgroundRefitsPacedByClock(t *testing.T) {
	clock := newFakeClock()
	p := &TreePredictor{MaxBucket: BucketMedium, RetrainEvery: 20, Background: true}
	p.now = clock.now
	observe := func(n int) {
		for i := 0; i < n; i++ {
			p.ObserveCompletion(mkReq(0, float64(100+i)), 0.2, 0)
			p.ObserveCompletion(mkReq(0, float64(500000+i*1000)), 200, 0)
		}
	}
	observe(50)
	waitRetrained(t, p.Retrains, 1)
	observe(2000)
	waitIdle(t, &p.refitPace)
	if got := p.Retrains(); got != 1 {
		t.Fatalf("frozen clock published %d trees, want 1", got)
	}
	clock.advance(refitInterval)
	observe(10)
	waitRetrained(t, p.Retrains, 2)
	observe(2000)
	waitIdle(t, &p.refitPace)
	if got := p.Retrains(); got != 2 {
		t.Fatalf("one interval admitted %d refits, want exactly 1 more", got-1)
	}
}

// TestSyncRefitsStayCountPaced pins the simulated path: with Background unset
// the clock plays no part, and a fixed observation sequence refits exactly as
// often — and predicts exactly what — it did before pacing existed (numbers
// recorded on the parent commit).
func TestSyncRefitsStayCountPaced(t *testing.T) {
	clock := newFakeClock() // frozen: would starve a time-paced trainer
	p := &KNNPredictor{MaxSeconds: 10}
	p.now = clock.now
	observeRuns(p, 0, 1000)
	if got := p.Retrains(); got != 39 {
		t.Fatalf("k-NN refit %d times over 1000 observations, want 39", got)
	}
	var f FeatureVec
	FeaturesFrom(40, 5, 1, 1, true, &f)
	if s, _ := p.PredictSeconds(&f); s != 21.2 || p.model.Load().Len() != 980 {
		t.Fatalf("prediction %v from %d samples, want 21.2 from 980", s, p.model.Load().Len())
	}

	tp := &TreePredictor{MaxBucket: BucketMedium}
	tp.now = clock.now
	seconds := []float64{0.5, 5, 50, 500}
	for i := 0; i < 1000; i++ {
		tp.ObserveCompletion(mkReq(0, float64(100+i)), seconds[i%7%4], 0)
	}
	if got := tp.Retrains(); got != 20 {
		t.Fatalf("tree refit %d times over 1000 completions, want 20", got)
	}
}

// TestKNNObserveSteadyStateZeroAlloc: with the rings full and no refit due
// (frozen clock), recording a run allocates nothing.
func TestKNNObserveSteadyStateZeroAlloc(t *testing.T) {
	clock := newFakeClock()
	p := &KNNPredictor{MaxSeconds: 10, MaxHistory: 400, Background: true}
	p.now = clock.now
	observeRuns(p, 0, 2000)
	waitRetrained(t, p.Retrains, 1)
	waitIdle(t, &p.refitPace)
	i := 0
	if avg := testing.AllocsPerRun(2000, func() {
		var f FeatureVec
		FeaturesFrom(float64(i%97), float64(i%13), 1, 1, i%2 == 0, &f)
		p.Observe(&f, 0.5)
		i++
	}); avg != 0 {
		t.Fatalf("steady-state Observe allocates %v allocs/op, want 0", avg)
	}
	if p.Retrains() != 1 {
		t.Fatal("a refit ran inside the measured window")
	}
}

// TestKNNRingMatchesSliceWindow replays the window the rings replaced — per
// bucket a slice trimmed from the front and appended at the back, buckets
// concatenated in order — and checks the published model predicts exactly
// what a model trained on that window does, through several wrap-arounds.
// Sample order is part of the prediction: ties go to the earlier sample.
func TestKNNRingMatchesSliceWindow(t *testing.T) {
	p := &KNNPredictor{MaxSeconds: 10, MaxHistory: 44, MinTraining: 10}
	ref := make(map[RuntimeBucket][]learn.RegSample)
	seconds := []float64{0.5, 5, 50, 500}
	for i := 0; i < 600; i++ {
		var f FeatureVec
		FeaturesFrom(float64(i%9), float64(i%4), 1, 1, i%2 == 0, &f)
		s := seconds[i%7%4] * (1 + float64(i%5)/10)
		before := p.Retrains()
		p.Observe(&f, s)

		b := BucketOf(s)
		hs := ref[b]
		if len(hs) >= 11 {
			hs = hs[1:]
		}
		ref[b] = append(hs, learn.RegSample{Features: append([]float64(nil), f[:]...), Value: s})
		if p.Retrains() == before {
			continue
		}
		var all []learn.RegSample
		for b := RuntimeBucket(0); b < numBuckets; b++ {
			all = append(all, ref[b]...)
		}
		want := learn.TrainKNN(all, 5)
		if got := p.model.Load().Len(); got != len(all) {
			t.Fatalf("observation %d: model holds %d samples, window %d", i, got, len(all))
		}
		for q := 0; q < 36; q++ {
			var qf FeatureVec
			FeaturesFrom(float64(q%9), float64(q%4), 1, 1, q%2 == 0, &qf)
			got, _ := p.PredictSeconds(&qf)
			if w := want.PredictValue(qf[:]); got != w {
				t.Fatalf("observation %d query %d: ring model predicts %v, slice window %v", i, q, got, w)
			}
		}
	}
}
