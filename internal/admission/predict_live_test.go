package admission

import (
	"sync"
	"testing"
	"time"
)

func TestRuntimeBucketStringUnknown(t *testing.T) {
	for _, b := range []RuntimeBucket{-1, -100, RuntimeBucket(numBuckets), 99} {
		if got := b.String(); got != "unknown" {
			t.Fatalf("RuntimeBucket(%d).String() = %q, want \"unknown\"", int(b), got)
		}
	}
	if BucketShort.String() != "short" || BucketMonster.String() != "monster" {
		t.Fatal("named buckets broke")
	}
}

func TestFeaturesIntoMatchesSlice(t *testing.T) {
	r := mkReq(0, 12345)
	var f FeatureVec
	RequestFeaturesInto(r, &f)
	slice := RequestFeatures(r)
	for i := range slice {
		if f[i] != slice[i] {
			t.Fatalf("feature %d: %v != %v", i, f[i], slice[i])
		}
	}
	if avg := testing.AllocsPerRun(500, func() {
		RequestFeaturesInto(r, &f)
	}); avg != 0 {
		t.Fatalf("RequestFeaturesInto allocates %v allocs/op, want 0", avg)
	}
}

// waitRetrained polls until at least n models have been swapped in; the
// background trainer owns the swap, so tests must wait rather than assume.
func waitRetrained(t *testing.T, retrains func() int64, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for retrains() < n {
		if time.Now().After(deadline) {
			t.Fatalf("retrains stuck at %d, want >= %d", retrains(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestKNNBackgroundRetrainConcurrent drives observations and predictions from
// many goroutines at once with background retraining on: under -race this
// pins the no-torn-model-read guarantee of the atomic.Pointer swap.
func TestKNNBackgroundRetrainConcurrent(t *testing.T) {
	p := &KNNPredictor{MaxSeconds: 10, MinTraining: 10, Background: true, Indexed: true}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var f FeatureVec
				seconds := 0.5
				if i%2 == 1 {
					seconds = 300
				}
				FeaturesFrom(float64(100+i*w), float64(i), 10, 5, i%2 == 0, &f)
				p.Observe(&f, seconds)
				if s, ok := p.PredictSeconds(&f); ok && (s < 0 || s != s) {
					t.Errorf("torn prediction %v", s)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	waitRetrained(t, p.Retrains, 1)
	if p.model.Load() == nil {
		t.Fatal("background trainer never published a model")
	}
}

// TestKNNHistoryTrimWithBackgroundRetrain combines the MaxHistory bound with
// background retraining: trimming must hold under concurrent observation and
// the swapped-in model must train on at most MaxHistory samples.
func TestKNNHistoryTrimWithBackgroundRetrain(t *testing.T) {
	p := &KNNPredictor{MaxSeconds: 10, MaxHistory: 40, MinTraining: 10, Background: true}
	var wg sync.WaitGroup
	seconds := []float64{0.5, 5, 50, 500} // one per runtime bucket
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				var f FeatureVec
				FeaturesFrom(float64(i), 1, 1, 1, true, &f)
				p.Observe(&f, seconds[w])
			}
		}(w)
	}
	wg.Wait()
	waitRetrained(t, p.Retrains, 1)
	p.mu.Lock()
	size := p.historySize()
	for b, hs := range p.history {
		if len(hs) > 10 {
			t.Errorf("bucket %v holds %d samples, want <= 10", b, len(hs))
		}
	}
	p.mu.Unlock()
	if size > 40 {
		t.Fatalf("history %d exceeds MaxHistory 40", size)
	}
	if m := p.model.Load(); m.Len() > 40 {
		t.Fatalf("model trained on %d samples, want <= 40", m.Len())
	}
}

// TestTreeBackgroundRetrainConcurrent is the decision-tree analogue: Decide
// runs lock-free against the swapped pointer while completions retrain.
func TestTreeBackgroundRetrainConcurrent(t *testing.T) {
	p := &TreePredictor{MaxBucket: BucketMedium, MinTraining: 10, RetrainEvery: 20, Background: true}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				cheap := mkReq(0, float64(100+i))
				p.ObserveCompletion(cheap, 0.2, 0)
				big := mkReq(0, float64(500000+i*1000))
				p.ObserveCompletion(big, 200, 0)
				p.Decide(cheap, 0)
				p.Decide(big, 0)
			}
		}(w)
	}
	wg.Wait()
	waitRetrained(t, p.Retrains, 1)
	if p.model.Load() == nil {
		t.Fatal("tree never trained")
	}
	// With training drained, the learnable relationship must hold.
	deadline := time.Now().Add(5 * time.Second)
	for p.retraining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("retraining flag stuck")
		}
		time.Sleep(time.Millisecond)
	}
	if p.Decide(mkReq(0, 1e6), 0) != Queue {
		t.Fatal("trained tree should gate monsters")
	}
}
