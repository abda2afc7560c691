package learn

import (
	"math"
	"testing"

	"dbwlm/internal/sim"
)

// Accuracy reports the fraction of samples a classifier labels correctly.
func Accuracy(c Classifier, samples []Sample) float64 {
	right := 0
	for _, s := range samples {
		if c.Predict(s.Features) == s.Label {
			right++
		}
	}
	return float64(right) / float64(len(samples))
}

// Nodes reports the number of nodes in the tree.
func (t *DecisionTree) Nodes() int { return t.nodes }

// twoBlobs generates two well-separated Gaussian clusters.
func twoBlobs(rng *sim.RNG, n int) []Sample {
	var out []Sample
	for i := 0; i < n; i++ {
		label := i % 2
		cx := float64(label) * 10
		out = append(out, Sample{
			Features: []float64{cx + rng.NormFloat64(), cx + rng.NormFloat64()},
			Label:    label,
		})
	}
	return out
}

func TestNaiveBayesSeparableBlobs(t *testing.T) {
	rng := sim.NewRNG(1)
	train := twoBlobs(rng, 200)
	test := twoBlobs(rng, 100)
	nb := TrainNaiveBayes(train, 2)
	if acc := Accuracy(nb, test); acc < 0.95 {
		t.Fatalf("naive Bayes accuracy = %v, want >= 0.95", acc)
	}
}

func TestNaiveBayesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty training set accepted")
		}
	}()
	TrainNaiveBayes(nil, 2)
}

func TestNaiveBayesBadLabel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range label accepted")
		}
	}()
	TrainNaiveBayes([]Sample{{Features: []float64{1}, Label: 5}}, 2)
}

func TestDecisionTreeRectangle(t *testing.T) {
	// Axis-aligned conjunction (x > 0.5 AND y > 0.5): requires two splits —
	// not linearly separable in one feature, natural for a tree.
	rng := sim.NewRNG(2)
	var samples []Sample
	for i := 0; i < 400; i++ {
		x := rng.Float64()
		y := rng.Float64()
		label := 0
		if x > 0.5 && y > 0.5 {
			label = 1
		}
		samples = append(samples, Sample{Features: []float64{x, y}, Label: label})
	}
	train, test := samples[:300], samples[300:]
	dt := TrainDecisionTree(train, 2, TreeConfig{MaxDepth: 6, MinLeafSize: 2})
	if acc := Accuracy(dt, test); acc < 0.9 {
		t.Fatalf("decision tree rectangle accuracy = %v, want >= 0.9", acc)
	}
	if dt.Nodes() < 3 {
		t.Fatalf("tree did not split: %d nodes", dt.Nodes())
	}
}

func TestDecisionTreePureLeaf(t *testing.T) {
	samples := []Sample{
		{Features: []float64{1}, Label: 1},
		{Features: []float64{2}, Label: 1},
		{Features: []float64{3}, Label: 1},
	}
	dt := TrainDecisionTree(samples, 2, TreeConfig{})
	if dt.Nodes() != 1 {
		t.Fatalf("pure data should give a single leaf, got %d nodes", dt.Nodes())
	}
	if dt.Predict([]float64{99}) != 1 {
		t.Fatal("leaf label wrong")
	}
}

func TestDecisionTreeDepthBound(t *testing.T) {
	rng := sim.NewRNG(3)
	var samples []Sample
	for i := 0; i < 500; i++ {
		samples = append(samples, Sample{
			Features: []float64{rng.Float64(), rng.Float64()},
			Label:    rng.Intn(2), // pure noise
		})
	}
	dt := TrainDecisionTree(samples, 2, TreeConfig{MaxDepth: 3, MinLeafSize: 10})
	// Depth 3 allows at most 2^4 - 1 = 15 nodes.
	if dt.Nodes() > 15 {
		t.Fatalf("tree exceeded depth bound: %d nodes", dt.Nodes())
	}
}

func TestKNNRegression(t *testing.T) {
	// y = 2x; prediction at midpoints should interpolate.
	var samples []RegSample
	for i := 0; i <= 100; i++ {
		x := float64(i) / 10
		samples = append(samples, RegSample{Features: []float64{x}, Value: 2 * x})
	}
	knn := TrainKNN(samples, 3)
	got := knn.PredictValue([]float64{5.05})
	if math.Abs(got-10.1) > 0.3 {
		t.Fatalf("kNN(5.05) = %v, want ~10.1", got)
	}
}

func TestKNNNormalization(t *testing.T) {
	// One feature with a huge range must not drown a discriminative small one.
	samples := []RegSample{
		{Features: []float64{0, 1e6}, Value: 0},
		{Features: []float64{1, 1e6}, Value: 100},
		{Features: []float64{0, 1.0001e6}, Value: 0},
		{Features: []float64{1, 1.0001e6}, Value: 100},
	}
	knn := TrainKNN(samples, 1)
	if got := knn.PredictValue([]float64{0.9, 1e6}); got != 100 {
		t.Fatalf("normalized kNN = %v, want 100", got)
	}
}

func TestKNNKLargerThanData(t *testing.T) {
	knn := TrainKNN([]RegSample{{Features: []float64{1}, Value: 5}}, 10)
	if got := knn.PredictValue([]float64{1}); got != 5 {
		t.Fatalf("got %v", got)
	}
}

func TestLinRegExactFit(t *testing.T) {
	// y = 3 + 2a - b
	var samples []RegSample
	rng := sim.NewRNG(4)
	for i := 0; i < 50; i++ {
		a := rng.Float64() * 10
		b := rng.Float64() * 5
		samples = append(samples, RegSample{Features: []float64{a, b}, Value: 3 + 2*a - b})
	}
	lr := TrainLinReg(samples)
	coef := lr.Coefficients()
	if math.Abs(coef[0]-3) > 1e-6 || math.Abs(coef[1]-2) > 1e-6 || math.Abs(coef[2]+1) > 1e-6 {
		t.Fatalf("coefficients = %v, want [3 2 -1]", coef)
	}
}

func TestLinRegNoisyFit(t *testing.T) {
	rng := sim.NewRNG(5)
	var samples []RegSample
	for i := 0; i < 500; i++ {
		x := rng.Float64() * 10
		samples = append(samples, RegSample{Features: []float64{x}, Value: 5*x + 1 + rng.NormFloat64()*0.5})
	}
	lr := TrainLinReg(samples)
	coef := lr.Coefficients()
	if math.Abs(coef[1]-5) > 0.1 {
		t.Fatalf("slope = %v, want ~5", coef[1])
	}
}

func TestLinRegSingular(t *testing.T) {
	// Constant feature makes X^T X singular (column duplicates intercept).
	samples := []RegSample{
		{Features: []float64{1}, Value: 2},
		{Features: []float64{1}, Value: 4},
	}
	// Must not panic; a singular fit is the zero model.
	for _, c := range TrainLinReg(samples).Coefficients() {
		if c != 0 {
			t.Fatalf("singular fit coefficient %v, want 0", c)
		}
	}
}
