package learn

import (
	"math"
	"math/bits"
	"slices"
)

// This file replaces KNN.PredictValue's O(n) scan with a k-d tree over the
// normalized feature space. The tree stores sample indices; distances are
// computed with exactly the same weighted metric as the linear scan
// (KNN.dist), neighbours are selected under the same (distance, sample-index)
// total order, and the selected values are summed in the same (ascending
// sample-index) order — so an indexed prediction is bit-for-bit identical to
// the linear one, which the equivalence test pins. The search path performs
// no heap allocation for k <= kMaxNeighbors: the k-best set and the traversal
// live in fixed-size stack arrays.

// kMaxNeighbors bounds the allocation-free k-best set; larger k falls back to
// the (allocating) sort-based linear path.
const kMaxNeighbors = 32

// kdMaxDepth bounds the explicit traversal stack. The tree is median-split
// and therefore balanced: depth is ceil(log2(n))+1, so 64 covers any n that
// fits in memory.
const kdMaxDepth = 64

type kdNode struct {
	idx         int32 // sample index stored at this node (the split point)
	left, right int32 // child node indices, -1 when absent
	split       int16 // split dimension
}

type kdTree struct {
	nodes []kdNode
	root  int32
	// rows is the tree's own copy of the sample features, row-major with
	// stride dims (row i = sample i), so build and search read contiguous
	// memory instead of chasing one slice header per sample.
	rows []float64
	dims int
}

// row returns sample i's features.
//
//dbwlm:hotpath
func (t *kdTree) row(i int32) []float64 {
	return t.rows[int(i)*t.dims:][:t.dims]
}

// better reports whether neighbour (d1,i1) ranks before (d2,i2): nearer
// first, distance ties broken by sample position. This total order is what
// makes the k-nearest set unique and both predict paths identical.
//
//dbwlm:hotpath
func better(d1 float64, i1 int32, d2 float64, i2 int32) bool {
	return d1 < d2 || (d1 == d2 && i1 < i2)
}

// kbest is the bounded best-k accumulator. wi tracks the worst element once
// the set is full, so add is O(1) amortized with an O(k) rescan on replace.
type kbest struct {
	k, n int
	wi   int
	d    [kMaxNeighbors]float64
	idx  [kMaxNeighbors]int32
}

//dbwlm:hotpath
func (b *kbest) init(k int) { b.k, b.n, b.wi = k, 0, 0 }

// bound is the pruning radius: the worst kept distance, or +Inf while the set
// is not yet full.
//
//dbwlm:hotpath
func (b *kbest) bound() float64 {
	if b.n < b.k {
		return math.Inf(1)
	}
	return b.d[b.wi]
}

//dbwlm:hotpath
func (b *kbest) findWorst() {
	b.wi = 0
	for i := 1; i < b.n; i++ {
		if better(b.d[b.wi], b.idx[b.wi], b.d[i], b.idx[i]) {
			b.wi = i
		}
	}
}

//dbwlm:hotpath
func (b *kbest) add(d float64, idx int32) {
	if b.n < b.k {
		b.d[b.n], b.idx[b.n] = d, idx
		b.n++
		if b.n == b.k {
			b.findWorst()
		}
		return
	}
	if better(d, idx, b.d[b.wi], b.idx[b.wi]) {
		b.d[b.wi], b.idx[b.wi] = d, idx
		b.findWorst()
	}
}

// mean sums the selected values in ascending sample-index order — a fixed
// float addition order shared by both predict paths — and divides by the
// count.
//
//dbwlm:hotpath
func (b *kbest) mean(samples []RegSample) float64 {
	// Insertion sort by sample index; k is small.
	for i := 1; i < b.n; i++ {
		for j := i; j > 0 && b.idx[j-1] > b.idx[j]; j-- {
			b.idx[j-1], b.idx[j] = b.idx[j], b.idx[j-1]
			b.d[j-1], b.d[j] = b.d[j], b.d[j-1]
		}
	}
	var sum float64
	for i := 0; i < b.n; i++ {
		sum += samples[b.idx[i]].Value
	}
	return sum / float64(b.n)
}

// kdKey is one sample in a subset being split: its value on the split
// dimension beside its index, so selection compares contiguous pairs.
type kdKey struct {
	v   float64
	idx int32
}

// kdBefore is the build's total order: (feature value, sample index).
func kdBefore(a, b kdKey) bool {
	return a.v < b.v || (a.v == b.v && a.idx < b.idx)
}

// buildKD constructs the tree over the model's samples: median split on the
// dimension with the largest normalized spread in each subset. The median and
// the two sides are those of the subset sorted by (feature value, sample
// index) — a total order, so there is one tree per sample set — but they are
// found by selection, which never orders a side it is about to re-split on
// another dimension.
func buildKD(m *KNN) *kdTree {
	n, dims := len(m.samples), len(m.lo)
	t := &kdTree{nodes: make([]kdNode, 0, n), rows: make([]float64, n*dims), dims: dims}
	keys := make([]kdKey, n)
	for i := range m.samples {
		copy(t.row(int32(i)), m.samples[i].Features)
		keys[i].idx = int32(i)
	}
	t.root = t.build(m, keys, make([]float64, 2*dims))
	return t
}

// splitDim picks the dimension with the widest normalized spread over the
// subset; every dimension degenerate (identical points in the weighted
// space) means any split works and dimension 0 is used. ext is scratch for
// the subset's per-dimension extremes, 2·dims long; one pass over the rows
// fills it, branch-free (min and max of a set do not depend on the order it
// is walked in; a NaN feature, which no total order covers, drops its
// dimension).
func (t *kdTree) splitDim(m *KNN, subset []kdKey, ext []float64) int {
	lo, hi := ext[:t.dims], ext[t.dims:]
	for d := range lo {
		lo[d], hi[d] = math.Inf(1), math.Inf(-1)
	}
	for _, k := range subset {
		for d, v := range t.row(k.idx) {
			lo[d], hi[d] = min(lo[d], v), max(hi[d], v)
		}
	}
	bestDim, bestSpread := 0, 0.0
	for d := range lo {
		span := m.hi[d] - m.lo[d]
		if span <= 0 {
			continue
		}
		if spread := (hi[d] - lo[d]) / span; spread > bestSpread {
			bestSpread, bestDim = spread, d
		}
	}
	return bestDim
}

func (t *kdTree) build(m *KNN, subset []kdKey, ext []float64) int32 {
	if len(subset) == 0 {
		return -1
	}
	d := t.splitDim(m, subset, ext)
	for i := range subset {
		subset[i].v = t.rows[int(subset[i].idx)*t.dims+d]
	}
	mid := len(subset) / 2
	selectKth(subset, mid, 2*bits.Len(uint(len(subset))))
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, kdNode{idx: subset[mid].idx, split: int16(d)})
	left := t.build(m, subset[:mid], ext)
	right := t.build(m, subset[mid+1:], ext)
	t.nodes[id].left, t.nodes[id].right = left, right
	return id
}

// selectKth partially orders keys so that keys[k] is the element a full sort
// under kdBefore would put there, everything before it ranks before it and
// everything after it after. Quickselect with a median-of-three pivot; a
// range still open after budget partitions (the build allows 2·log2(n)) is
// sorted outright, which bounds the worst case without changing the result.
func selectKth(keys []kdKey, k, budget int) {
	lo, hi := 0, len(keys)-1
	for ; lo < hi; budget-- {
		if budget == 0 {
			slices.SortFunc(keys[lo:hi+1], func(a, b kdKey) int {
				switch {
				case kdBefore(a, b):
					return -1
				case kdBefore(b, a):
					return 1
				}
				return 0
			})
			return
		}
		// Median of three to keys[lo+(hi-lo)/2], then Hoare partition.
		mid := lo + (hi-lo)/2
		if kdBefore(keys[mid], keys[lo]) {
			keys[mid], keys[lo] = keys[lo], keys[mid]
		}
		if kdBefore(keys[hi], keys[lo]) {
			keys[hi], keys[lo] = keys[lo], keys[hi]
		}
		if kdBefore(keys[hi], keys[mid]) {
			keys[hi], keys[mid] = keys[mid], keys[hi]
		}
		pivot := keys[mid]
		i, j := lo, hi
		for i <= j {
			for kdBefore(keys[i], pivot) {
				i++
			}
			for kdBefore(pivot, keys[j]) {
				j--
			}
			if i <= j {
				keys[i], keys[j] = keys[j], keys[i]
				i++
				j--
			}
		}
		// keys[lo..j] rank at or before the pivot, keys[i..hi] at or after it,
		// and anything strictly between j and i is the pivot itself.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// predict runs the pruned search and averages the selected values.
//
//dbwlm:hotpath
func (t *kdTree) predict(m *KNN, features []float64) float64 {
	var b kbest
	b.init(min(m.k, len(m.samples)))
	t.search(m, features, &b)
	return b.mean(m.samples)
}

// search runs the pruned k-best search: descend to the near side first, visit
// the far side only if the splitting plane is strictly closer than the
// current bound (ties must descend — an equal-distance sample with a smaller
// index can still displace the worst neighbour). The caller initializes b;
// on return it holds the k nearest sample indices under the (distance,
// sample-index) total order.
//
//dbwlm:hotpath
func (t *kdTree) search(m *KNN, features []float64, b *kbest) {
	// Explicit traversal stack: {node, deferred far child, plane distance}.
	type frame struct {
		node int32
	}
	var stack [kdMaxDepth * 2]frame
	var plane [kdMaxDepth * 2]float64 // squared plane distance gating the frame; <0 = unconditional
	top := 0
	push := func(node int32, pd2 float64) {
		if node >= 0 {
			stack[top] = frame{node}
			plane[top] = pd2
			top++
		}
	}
	push(t.root, -1)
	for top > 0 {
		top--
		f := stack[top]
		pd2 := plane[top]
		if pd2 >= 0 && pd2 > b.bound() {
			continue // plane moved out of range since the frame was deferred
		}
		nd := &t.nodes[f.node]
		s := t.row(nd.idx)
		b.add(m.dist(features, s), nd.idx)
		d := int(nd.split)
		span := m.hi[d] - m.lo[d]
		var pd float64
		if span > 0 {
			pd = (features[d] - s[d]) / span
		}
		near, far := nd.left, nd.right
		if pd > 0 {
			near, far = nd.right, nd.left
		}
		// Far side first onto the stack (visited later), gated by the plane
		// distance; near side on top (visited next), unconditional.
		push(far, pd*pd)
		push(near, -1)
	}
}
