package admission

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// memoShapes are a few recurring feature vectors: the repeat traffic the
// table exists for.
func memoShapes() []FeatureVec {
	shapes := make([]FeatureVec, 7)
	for i := range shapes {
		FeaturesFrom(float64(100+40*i), float64(1+i*i), 16, float64(i), i%2 == 0, &shapes[i])
	}
	return shapes
}

// memoSeconds is the observed runtime of the i-th observation: it drifts, so
// consecutive models disagree at every shape and a value left over from an
// earlier model cannot pass for the current one.
func memoSeconds(i int) float64 { return 0.05 + 0.0003*float64(i%997) }

// TestKNNMemoFollowsEveryModel: after every refit, the published model answers
// every shape it holds twice from its own table and every other point by
// search, and both equal that model's linear scan — so a table kept across a
// swap, or entries computed from an older model, fail here. Without Indexed
// (the simulated predictor) no table is built.
func TestKNNMemoFollowsEveryModel(t *testing.T) {
	shapes := memoShapes()
	var single FeatureVec
	FeaturesFrom(7777, 3, 16, 2, false, &single)
	for _, indexed := range []bool{true, false} {
		p := &KNNPredictor{MaxSeconds: 10, MinTraining: 14, MaxHistory: 4 * 60, Indexed: indexed}
		models, hits := 0, 0
		for i := 0; i < 3000; i++ {
			if i == 1500 {
				p.Observe(&single, memoSeconds(i)) // one copy: searched, never tabled
			} else {
				p.Observe(&shapes[i%len(shapes)], memoSeconds(i))
			}
			if int(p.Retrains()) == models {
				continue
			}
			models = int(p.Retrains())
			m := p.model.Load()
			for j := range shapes {
				f := shapes[j][:]
				got, hit := m.PredictValueMemo(f)
				if want := m.PredictValueLinear(f); got != want {
					t.Fatalf("indexed=%v model %d shape %d: %v, linear %v", indexed, models, j, got, want)
				}
				if s, ok := p.PredictSeconds(&shapes[j]); !ok || s != got {
					t.Fatalf("indexed=%v model %d shape %d: PredictSeconds %v, model %v", indexed, models, j, s, got)
				}
				if hit {
					hits++
				}
				if hit != indexed {
					t.Fatalf("indexed=%v model %d shape %d: table hit %v", indexed, models, j, hit)
				}
			}
			if got, hit := m.PredictValueMemo(single[:]); hit || got != m.PredictValueLinear(single[:]) {
				t.Fatalf("indexed=%v model %d: the singleton hit=%v %v, linear %v",
					indexed, models, hit, got, m.PredictValueLinear(single[:]))
			}
		}
		if models < 100 || (indexed && hits == 0) {
			t.Fatalf("indexed=%v: %d models, %d table hits", indexed, models, hits)
		}
	}
}

// TestKNNMemoConcurrentRefits runs predictions against background refits:
// whenever the model pointer is the same before and after a PredictSecondsMemo
// call, that call read this model, and its answer — table or search — must be
// this model's linear scan. A table published apart from its model would pair
// one model's table with another's window here. Run under -race (make race).
func TestKNNMemoConcurrentRefits(t *testing.T) {
	shapes := memoShapes()
	p := &KNNPredictor{MaxSeconds: 10, MinTraining: 10, MaxHistory: 4 * 60, Background: true, Indexed: true}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			p.Observe(&shapes[i%len(shapes)], memoSeconds(i))
			if i%64 == 0 {
				time.Sleep(50 * time.Microsecond) // let refits land between bursts
			}
		}
	}()
	var checked, hits atomic.Int64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; !stop.Load(); i++ {
				f := &shapes[i%len(shapes)]
				before := p.model.Load()
				s, memo, ok := p.PredictSecondsMemo(f)
				if after := p.model.Load(); before == nil || before != after {
					continue
				}
				if !ok {
					t.Error("a published model predicted nothing")
					return
				}
				if want := before.PredictValueLinear(f[:]); math.Float64bits(s) != math.Float64bits(want) {
					t.Errorf("model %p shape %d: %v (memo %v), its linear scan %v", before, i%len(shapes), s, memo, want)
					return
				}
				checked.Add(1)
				if memo {
					hits.Add(1)
				}
			}
		}(w)
	}
	deadline := time.Now().Add(10 * time.Second)
	for (p.Retrains() < 20 || hits.Load() < 1000) && time.Now().Before(deadline) && !t.Failed() {
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if p.Retrains() < 20 || hits.Load() < 1000 {
		t.Fatalf("%d refits, %d checked predictions, %d table hits: the race never ran", p.Retrains(), checked.Load(), hits.Load())
	}
}
