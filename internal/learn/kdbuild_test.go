package learn

import (
	"math"
	"slices"
	"testing"
)

// buildKDReference is the build the selection-based buildKD replaced, kept as
// the definition of the tree: every subset fully sorted by (feature value,
// sample index) through the samples' own feature slices, median at len/2.
func buildKDReference(m *KNN) (nodes []kdNode, root int32) {
	order := make([]int32, len(m.samples))
	for i := range order {
		order[i] = int32(i)
	}
	var build func(subset []int32) int32
	build = func(subset []int32) int32 {
		if len(subset) == 0 {
			return -1
		}
		d, bestSpread := 0, 0.0
		for dim := range m.lo {
			span := m.hi[dim] - m.lo[dim]
			if span <= 0 {
				continue
			}
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, i := range subset {
				v := m.samples[i].Features[dim]
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if spread := (hi - lo) / span; spread > bestSpread {
				bestSpread, d = spread, dim
			}
		}
		slices.SortFunc(subset, func(a, b int32) int {
			va, vb := m.samples[a].Features[d], m.samples[b].Features[d]
			switch {
			case va < vb:
				return -1
			case va > vb:
				return 1
			}
			return int(a - b)
		})
		mid := len(subset) / 2
		id := int32(len(nodes))
		nodes = append(nodes, kdNode{idx: subset[mid], split: int16(d)})
		left := build(subset[:mid])
		right := build(subset[mid+1:])
		nodes[id].left, nodes[id].right = left, right
		return id
	}
	root = build(order)
	return nodes, root
}

func requireSameTree(t *testing.T, name string, samples []RegSample) {
	t.Helper()
	m := TrainKNNIndexed(samples, 3)
	want, root := buildKDReference(m)
	if m.tree.root != root || len(m.tree.nodes) != len(want) {
		t.Fatalf("%s: root %d with %d nodes, reference root %d with %d", name, m.tree.root, len(m.tree.nodes), root, len(want))
	}
	for i, nd := range m.tree.nodes {
		if nd != want[i] {
			t.Fatalf("%s: node %d is %+v, reference %+v", name, i, nd, want[i])
		}
	}
}

// dupDataset builds n samples of which roughly dupPct percent repeat an
// earlier point exactly — the live predictor's window, where a few hundred
// query shapes recur, is about 60 % duplicates.
func dupDataset(n, dims int, dupPct int, seed uint64) []RegSample {
	g := lcg(seed)
	samples := make([]RegSample, n)
	for i := range samples {
		f := make([]float64, dims)
		if i > 0 && int(g.next()*100) < dupPct {
			copy(f, samples[int(g.next()*float64(i))].Features)
		} else {
			for d := range f {
				f[d] = g.next() * 10
			}
		}
		samples[i] = RegSample{Features: f, Value: g.next()}
	}
	return samples
}

// TestKDBuildMatchesReference pins the selection-based build to the
// sort-based one node for node: same sample, split dimension and children at
// every position, on the datasets the equivalence tests use and on the shapes
// that stress a partition — tiny inputs, one repeated point, a constant
// dimension, heavy duplication, already-ordered values.
func TestKDBuildMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 300, 1500} {
		requireSameTree(t, "pinned", pinnedDataset(n, 5, uint64(n*31+3)))
	}
	same := make([]RegSample, 257)
	for i := range same {
		same[i] = RegSample{Features: []float64{4, 4, 4}, Value: float64(i)}
	}
	requireSameTree(t, "all identical", same)
	sorted := make([]RegSample, 1000)
	for i := range sorted {
		sorted[i] = RegSample{Features: []float64{float64(i), float64(-i), 2}, Value: 1}
	}
	requireSameTree(t, "ordered with a constant dimension", sorted)
	for _, pct := range []int{60, 95} {
		requireSameTree(t, "duplicates", dupDataset(500, 5, pct, uint64(pct)))
		requireSameTree(t, "duplicates", dupDataset(2000, 2, pct, uint64(pct)))
	}
}

// TestSelectKth checks the selection contract — k-th element in place, both
// sides on their side — with a full partition budget, with one that runs out
// part-way, and with none (straight to the sort).
func TestSelectKth(t *testing.T) {
	g := lcg(9)
	for _, n := range []int{1, 2, 5, 64, 1000} {
		keys := make([]kdKey, n)
		for i := range keys {
			keys[i] = kdKey{v: float64(int(g.next() * 8)), idx: int32(i)}
		}
		want := slices.Clone(keys)
		slices.SortFunc(want, func(a, b kdKey) int {
			if kdBefore(a, b) {
				return -1
			}
			return 1
		})
		for _, budget := range []int{64, 2, 0} {
			for _, k := range []int{0, n / 2, n - 1} {
				got := slices.Clone(keys)
				selectKth(got, k, budget)
				if got[k] != want[k] {
					t.Fatalf("n=%d k=%d budget %d: selected %+v, sorted order has %+v", n, k, budget, got[k], want[k])
				}
				for i, key := range got {
					if (i < k && !kdBefore(key, got[k])) || (i > k && !kdBefore(got[k], key)) {
						t.Fatalf("n=%d k=%d budget %d: element %d is on the wrong side", n, k, budget, i)
					}
				}
			}
		}
	}
}

// FuzzKDBuildMatchesReference drives both builds over fuzzer-chosen sizes,
// dimensionalities, duplicate rates and value quantizations.
func FuzzKDBuildMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(500), uint8(5), uint8(60), uint8(0))
	f.Add(uint64(2), uint16(37), uint8(1), uint8(0), uint8(3))
	f.Add(uint64(3), uint16(599), uint8(7), uint8(99), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, dims, dupPct, quant uint8) {
		samples := dupDataset(int(n)%600+1, int(dims)%8+1, int(dupPct)%101, seed)
		if q := float64(int(quant) % 5); q > 0 {
			// Coarse values: ties on the split dimension between distinct points.
			for _, s := range samples {
				for d := range s.Features {
					s.Features[d] = math.Floor(s.Features[d]*q) / q
				}
			}
		}
		requireSameTree(t, "fuzz", samples)
	})
}

func benchKNNBuild(b *testing.B, samples []RegSample) {
	m := TrainKNN(samples, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.BuildIndex()
	}
}

// BenchmarkKNNBuild prices one refit's index build at the live window (500
// samples, 60 % of them repeats of an earlier point) and at the 2 000-sample
// default history.
func BenchmarkKNNBuild(b *testing.B) {
	b.Run("n=500/dup=60", func(b *testing.B) { benchKNNBuild(b, dupDataset(500, 5, 60, 1)) })
	b.Run("n=2000", func(b *testing.B) { benchKNNBuild(b, pinnedDataset(2000, 5, 1)) })
}
