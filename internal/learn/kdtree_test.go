package learn

import "testing"

// lcg is a tiny deterministic generator so the pinned dataset never drifts
// (learn stays dependency-free; no math/rand seeding subtleties).
type lcg uint64

func (g *lcg) next() float64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return float64(uint64(*g)>>11) / float64(1<<53)
}

// pinnedDataset builds n samples in dims dimensions with deliberate
// pathologies: duplicated points (exact distance ties), a constant dimension
// (zero span, ignored by the metric), and clustered values.
func pinnedDataset(n, dims int, seed uint64) []RegSample {
	g := lcg(seed)
	samples := make([]RegSample, 0, n)
	for i := 0; i < n; i++ {
		f := make([]float64, dims)
		for d := 0; d < dims; d++ {
			switch {
			case d == dims-1:
				f[d] = 7 // constant dimension: span 0, must be ignored
			case i%5 == 4:
				f[d] = samples[i-1].Features[d] // exact duplicate of the previous point
			default:
				f[d] = float64(int(g.next()*20)) / 2 // quantized: many ties
			}
		}
		samples = append(samples, RegSample{Features: f, Value: g.next() * 100})
	}
	return samples
}

// TestKNNIndexedMatchesLinear pins the acceptance criterion: the k-d tree
// predicts bit-identically to the exhaustive scan on a dataset dense with
// distance ties and duplicates, across many query points and several k.
func TestKNNIndexedMatchesLinear(t *testing.T) {
	for _, n := range []int{1, 2, 17, 300, 1500} {
		for _, k := range []int{1, 3, 5, 16} {
			samples := pinnedDataset(n, 5, uint64(n*31+k))
			m := TrainKNNIndexed(samples, k)
			if m.tree == nil {
				t.Fatal("index not built")
			}
			g := lcg(uint64(n + k))
			for q := 0; q < 200; q++ {
				query := []float64{g.next() * 10, g.next() * 10, g.next() * 10, g.next() * 10, g.next()}
				if q%3 == 0 {
					query = samples[int(g.next()*float64(n))].Features // exact sample hit
				}
				indexed := m.PredictValue(query)
				linear := m.PredictValueLinear(query)
				if indexed != linear {
					t.Fatalf("n=%d k=%d query %d: indexed %v != linear %v", n, k, q, indexed, linear)
				}
			}
		}
	}
}

func TestKNNIndexZeroAllocPredict(t *testing.T) {
	m := TrainKNNIndexed(pinnedDataset(2000, 5, 42), 5)
	query := []float64{1, 2, 3, 4, 7}
	if avg := testing.AllocsPerRun(500, func() {
		_ = m.PredictValue(query)
	}); avg != 0 {
		t.Fatalf("indexed predict allocates %v allocs/op, want 0", avg)
	}
}

func TestKNNLargeKFallsBackConsistently(t *testing.T) {
	samples := pinnedDataset(100, 4, 9)
	a := TrainKNN(samples, kMaxNeighbors+8)
	b := TrainKNNIndexed(samples, kMaxNeighbors+8)
	g := lcg(77)
	for q := 0; q < 50; q++ {
		query := []float64{g.next() * 10, g.next() * 10, g.next() * 10, g.next()}
		if got, want := b.PredictValue(query), a.PredictValue(query); got != want {
			t.Fatalf("large-k fallback diverged: %v != %v", got, want)
		}
	}
}

func benchKNN(b *testing.B, n int, indexed bool) {
	samples := pinnedDataset(n, 5, 1)
	m := TrainKNN(samples, 5)
	if indexed {
		m.BuildIndex()
	}
	g := lcg(2)
	queries := make([][]float64, 64)
	for i := range queries {
		queries[i] = []float64{g.next() * 10, g.next() * 10, g.next() * 10, g.next() * 10, g.next()}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.PredictValue(queries[i&63])
	}
}

// The acceptance criterion requires the indexed search to beat the linear
// scan at n >= 1000 history samples; these four record both.
func BenchmarkKNNLinear1000(b *testing.B)  { benchKNN(b, 1000, false) }
func BenchmarkKNNIndexed1000(b *testing.B) { benchKNN(b, 1000, true) }
func BenchmarkKNNLinear4000(b *testing.B)  { benchKNN(b, 4000, false) }
func BenchmarkKNNIndexed4000(b *testing.B) { benchKNN(b, 4000, true) }

func TestKNNIndexedSpeedupSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sanity check")
	}
	// Not a benchmark, just a guard that the tree actually prunes: count
	// distance evaluations indirectly by comparing wall time would be flaky;
	// instead verify the tree structure covers every sample exactly once.
	samples := pinnedDataset(1234, 5, 3)
	m := TrainKNNIndexed(samples, 5)
	seen := make(map[int32]bool)
	var walk func(i int32)
	walk = func(i int32) {
		if i < 0 {
			return
		}
		nd := m.tree.nodes[i]
		if seen[nd.idx] {
			t.Fatalf("sample %d appears twice in the tree", nd.idx)
		}
		seen[nd.idx] = true
		walk(nd.left)
		walk(nd.right)
	}
	walk(m.tree.root)
	if len(seen) != len(samples) {
		t.Fatalf("tree covers %d of %d samples", len(seen), len(samples))
	}
}

// TestNearestMatchesLinear pins Nearest (single-neighbor index lookup used by
// the trace compressor) to the exhaustive scan, including on datasets dense
// with exact duplicates where the (distance, index) tie-break decides.
func TestNearestMatchesLinear(t *testing.T) {
	for _, n := range []int{1, 2, 17, 300, 1500} {
		samples := pinnedDataset(n, 5, uint64(n*17+1))
		m := TrainKNNIndexed(samples, 3)
		lin := TrainKNN(samples, 3) // no index: Nearest takes the scan path
		g := lcg(uint64(n))
		for q := 0; q < 200; q++ {
			query := []float64{g.next() * 10, g.next() * 10, g.next() * 10, g.next() * 10, g.next()}
			if q%3 == 0 {
				query = samples[int(g.next()*float64(n))].Features
			}
			if a, b := m.Nearest(query), lin.Nearest(query); a != b {
				t.Fatalf("n=%d query %d: indexed nearest %d != linear %d", n, q, a, b)
			}
		}
	}
}
