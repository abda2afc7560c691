// Package learn provides the small, dependency-free machine-learning
// algorithms the paper's learned techniques rely on: decision trees for
// dynamic workload classification (Elnaffar et al. [19], Section 3.1) and
// runtime-range prediction (Gupta et al. PQR [23], Section 3.2),
// k-nearest-neighbour plan-similarity prediction (Ganapathi et al. [21]),
// k-means query-log clustering, and least-squares linear regression for
// black-box controller models (Powley et al. [65][66]).
package learn

import (
	"math"
	"sort"
)

// Sample is one labeled training example for classification.
type Sample struct {
	Features []float64
	Label    int
}

// RegSample is one training example for regression.
type RegSample struct {
	Features []float64
	Value    float64
}

// ---------- Decision tree (CART, entropy) ----------

// TreeConfig bounds decision-tree growth.
type TreeConfig struct {
	MaxDepth    int // default 8
	MinLeafSize int // default 4
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 8
	}
	if c.MinLeafSize <= 0 {
		c.MinLeafSize = 4
	}
	return c
}

type treeNode struct {
	leaf      bool
	label     int
	feature   int
	threshold float64
	left      *treeNode // feature <= threshold
	right     *treeNode
}

// DecisionTree is a binary classification tree split on feature thresholds
// by information gain.
type DecisionTree struct {
	root    *treeNode
	classes int
	nodes   int
}

// TrainDecisionTree grows a tree over the samples.
func TrainDecisionTree(samples []Sample, classes int, cfg TreeConfig) *DecisionTree {
	if len(samples) == 0 {
		panic("learn: TrainDecisionTree with no samples")
	}
	cfg = cfg.withDefaults()
	t := &DecisionTree{classes: classes}
	t.root = t.grow(samples, cfg, 0)
	return t
}

func (t *DecisionTree) grow(samples []Sample, cfg TreeConfig, depth int) *treeNode {
	t.nodes++
	maj := majority(samples, t.classes)
	if depth >= cfg.MaxDepth || len(samples) < 2*cfg.MinLeafSize || pure(samples) {
		return &treeNode{leaf: true, label: maj}
	}
	feat, thr, gain := bestSplit(samples, t.classes)
	if gain <= 1e-12 {
		return &treeNode{leaf: true, label: maj}
	}
	var left, right []Sample
	for _, s := range samples {
		if s.Features[feat] <= thr {
			left = append(left, s)
		} else {
			right = append(right, s)
		}
	}
	if len(left) < cfg.MinLeafSize || len(right) < cfg.MinLeafSize {
		return &treeNode{leaf: true, label: maj}
	}
	return &treeNode{
		feature:   feat,
		threshold: thr,
		left:      t.grow(left, cfg, depth+1),
		right:     t.grow(right, cfg, depth+1),
	}
}

// Predict returns the class for features.
func (t *DecisionTree) Predict(features []float64) int {
	n := t.root
	for !n.leaf {
		if features[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.label
}

func majority(samples []Sample, classes int) int {
	counts := make([]int, classes)
	for _, s := range samples {
		counts[s.Label]++
	}
	best := 0
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	return best
}

func pure(samples []Sample) bool {
	for _, s := range samples[1:] {
		if s.Label != samples[0].Label {
			return false
		}
	}
	return true
}

func entropy(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	var h float64
	for _, n := range counts {
		if n == 0 {
			continue
		}
		p := float64(n) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// bestSplit scans every feature and candidate threshold for the split with
// maximum information gain.
func bestSplit(samples []Sample, classes int) (feat int, thr float64, gain float64) {
	dims := len(samples[0].Features)
	baseCounts := make([]int, classes)
	for _, s := range samples {
		baseCounts[s.Label]++
	}
	baseH := entropy(baseCounts, len(samples))
	bestGain := -1.0
	bestFeat, bestThr := 0, 0.0
	idx := make([]int, len(samples))
	for d := 0; d < dims; d++ {
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			return samples[idx[a]].Features[d] < samples[idx[b]].Features[d]
		})
		leftCounts := make([]int, classes)
		rightCounts := append([]int(nil), baseCounts...)
		for i := 0; i < len(idx)-1; i++ {
			s := samples[idx[i]]
			leftCounts[s.Label]++
			rightCounts[s.Label]--
			v, vn := s.Features[d], samples[idx[i+1]].Features[d]
			if v == vn {
				continue
			}
			nl, nr := i+1, len(samples)-i-1
			h := (float64(nl)*entropy(leftCounts, nl) + float64(nr)*entropy(rightCounts, nr)) / float64(len(samples))
			g := baseH - h
			if g > bestGain {
				bestGain, bestFeat, bestThr = g, d, (v+vn)/2
			}
		}
	}
	return bestFeat, bestThr, bestGain
}

// ---------- k-nearest neighbours ----------

// KNN is a k-nearest-neighbour regressor/classifier with per-dimension
// min-max normalization. BuildIndex adds a k-d tree over the samples so
// prediction prunes the scan instead of examining every sample; indexed and
// linear predictions are bit-identical (see kdtree.go). BuildMemo adds an
// exact table of the predictions at recurring training points (memo.go).
type KNN struct {
	k       int
	samples []RegSample
	lo, hi  []float64
	tree    *kdTree
	memo    *memo
}

// TrainKNN stores the samples and fits the normalization ranges.
func TrainKNN(samples []RegSample, k int) *KNN {
	if len(samples) == 0 {
		panic("learn: TrainKNN with no samples")
	}
	if k <= 0 {
		k = 3
	}
	dims := len(samples[0].Features)
	lo := make([]float64, dims)
	hi := make([]float64, dims)
	copy(lo, samples[0].Features)
	copy(hi, samples[0].Features)
	for _, s := range samples {
		for d, v := range s.Features {
			if v < lo[d] {
				lo[d] = v
			}
			if v > hi[d] {
				hi[d] = v
			}
		}
	}
	return &KNN{k: k, samples: samples, lo: lo, hi: hi}
}

//dbwlm:hotpath
func (m *KNN) dist(a, b []float64) float64 {
	var d2 float64
	for d := range a {
		span := m.hi[d] - m.lo[d]
		if span <= 0 {
			continue
		}
		diff := (a[d] - b[d]) / span
		d2 += diff * diff
	}
	return d2
}

// BuildIndex constructs the k-d tree over the trained samples. Predictions
// through the index are identical to the linear scan; only their cost
// changes. Call once after TrainKNN; the model is read-only afterwards and
// safe for concurrent prediction.
func (m *KNN) BuildIndex() { m.tree = buildKD(m) }

// Len reports the number of training samples.
func (m *KNN) Len() int { return len(m.samples) }

// TrainKNNIndexed trains the model and builds its k-d tree in one step.
func TrainKNNIndexed(samples []RegSample, k int) *KNN {
	m := TrainKNN(samples, k)
	m.BuildIndex()
	return m
}

// PredictValue returns the mean value of the k nearest samples (nearest by
// normalized distance, distance ties broken by sample position). With a
// built index the k-d tree prunes the search and the call performs no heap
// allocation for k <= kMaxNeighbors; otherwise the samples are scanned
// linearly. Both paths return bit-identical results, and so does the
// BuildMemo table, which answers recurring training points first.
//
//dbwlm:hotpath
func (m *KNN) PredictValue(features []float64) float64 {
	v, _ := m.PredictValueMemo(features)
	return v
}

// PredictValueMemo is PredictValue that also reports whether the BuildMemo
// table answered (hit) instead of a search.
//
//dbwlm:hotpath
func (m *KNN) PredictValueMemo(features []float64) (v float64, hit bool) {
	if v, ok := m.memo.get(features); ok {
		return v, true
	}
	if m.tree != nil && m.k <= kMaxNeighbors {
		return m.tree.predict(m, features), false
	}
	//dbwlm:nolint hotpath -- exhaustive-scan fallback for oversized k or a treeless model; live models always take the tree path
	return m.PredictValueLinear(features), false
}

// Nearest returns the index (into the training set) of the single sample
// nearest to features, under the same weighted metric and (distance,
// sample-index) total order as PredictValue — so distance ties always resolve
// to the earliest sample and the result is deterministic. With a built index
// the k-d tree prunes the search; both paths return the same index. The
// workload compressor uses this to snap cluster centroids back onto real
// trace rows.
//
//dbwlm:hotpath
func (m *KNN) Nearest(features []float64) int {
	var b kbest
	b.init(1)
	if m.tree != nil {
		m.tree.search(m, features, &b)
	} else {
		for i := range m.samples {
			b.add(m.dist(features, m.samples[i].Features), int32(i))
		}
	}
	return int(b.idx[0])
}

// PredictValueLinear is the exhaustive-scan reference implementation; the
// equivalence test pins PredictValue against it.
func (m *KNN) PredictValueLinear(features []float64) float64 {
	if m.k <= kMaxNeighbors {
		var b kbest
		b.init(min(m.k, len(m.samples)))
		for i := range m.samples {
			b.add(m.dist(features, m.samples[i].Features), int32(i))
		}
		return b.mean(m.samples)
	}
	// Large k: full sort under the same (distance, index) order, summed in
	// ascending index order.
	type nd struct {
		d   float64
		idx int32
	}
	nds := make([]nd, 0, len(m.samples))
	for i, s := range m.samples {
		nds = append(nds, nd{m.dist(features, s.Features), int32(i)})
	}
	sort.Slice(nds, func(i, j int) bool { return better(nds[i].d, nds[i].idx, nds[j].d, nds[j].idx) })
	k := min(m.k, len(nds))
	sel := nds[:k]
	sort.Slice(sel, func(i, j int) bool { return sel[i].idx < sel[j].idx })
	var sum float64
	for _, n := range sel {
		sum += m.samples[n.idx].Value
	}
	return sum / float64(k)
}

// ---------- Linear regression ----------

// LinReg is ordinary least squares with an intercept, solved by Gaussian
// elimination on the normal equations (suitable for the few-feature models
// the controllers use).
type LinReg struct {
	coef []float64 // [intercept, w1, ..., wd]
}

// TrainLinReg fits y = b0 + sum(bi * xi). It panics on empty input and
// returns a zero model if the system is singular.
func TrainLinReg(samples []RegSample) *LinReg {
	if len(samples) == 0 {
		panic("learn: TrainLinReg with no samples")
	}
	d := len(samples[0].Features) + 1
	// Normal equations: (X^T X) b = X^T y.
	a := make2d(d, d+1)
	for _, s := range samples {
		x := make([]float64, d)
		x[0] = 1
		copy(x[1:], s.Features)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				a[i][j] += x[i] * x[j]
			}
			a[i][d] += x[i] * s.Value
		}
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < d; col++ {
		piv := col
		for r := col + 1; r < d; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		if math.Abs(a[col][col]) < 1e-12 {
			return &LinReg{coef: make([]float64, d)}
		}
		for r := 0; r < d; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c <= d; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	coef := make([]float64, d)
	for i := 0; i < d; i++ {
		coef[i] = a[i][d] / a[i][i]
	}
	return &LinReg{coef: coef}
}

// Coefficients returns [intercept, w1, ..., wd].
func (m *LinReg) Coefficients() []float64 { return m.coef }

func make2d(r, c int) [][]float64 {
	out := make([][]float64, r)
	for i := range out {
		out[i] = make([]float64, c)
	}
	return out
}
