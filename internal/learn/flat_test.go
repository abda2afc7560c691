package learn

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"dbwlm/internal/sim"
)

// kmeansReference is a verbatim copy of the slice-of-slices KMeans
// implementation this package shipped before the flat kernels (per-round
// k-means++ distance rescans, sequential assignment). It exists only as the
// bit-equivalence oracle: the flat kernel must reproduce its assignments,
// centroids, and inertia exactly, including the RNG consumption sequence.
func kmeansReference(points [][]float64, k, iters int, rng *sim.RNG) KMeansResult {
	n := len(points)
	if n == 0 || k <= 0 {
		return KMeansResult{}
	}
	if k > n {
		k = n
	}
	if iters <= 0 {
		iters = 25
	}
	dims := len(points[0])

	// k-means++ seeding.
	centroids := make([][]float64, 0, k)
	first := rng.Intn(n)
	centroids = append(centroids, append([]float64(nil), points[first]...))
	d2 := make([]float64, n)
	for len(centroids) < k {
		var total float64
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := sqDist(p, c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			// All points identical to existing centroids: duplicate one.
			centroids = append(centroids, append([]float64(nil), points[rng.Intn(n)]...))
			continue
		}
		u := rng.Float64() * total
		var acc float64
		pick := n - 1
		for i, d := range d2 {
			acc += d
			if u <= acc {
				pick = i
				break
			}
		}
		centroids = append(centroids, append([]float64(nil), points[pick]...))
	}

	assign := make([]int, n)
	for iter := 0; iter < iters; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c := range centroids {
				if d := sqDist(p, centroids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids.
		counts := make([]int, k)
		sums := make([][]float64, k)
		for c := range sums {
			sums[c] = make([]float64, dims)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for d, v := range p {
				sums[c][d] += v
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				continue // keep the old centroid for empty clusters
			}
			for d := range centroids[c] {
				centroids[c][d] = sums[c][d] / float64(counts[c])
			}
		}
		if !changed {
			break
		}
	}

	var inertia float64
	for i, p := range points {
		inertia += sqDist(p, centroids[assign[i]])
	}
	return KMeansResult{Assignments: assign, Centroids: centroids, Inertia: inertia}
}

// normalizeReference is the pre-flat Normalize, kept verbatim as the oracle.
func normalizeReference(points [][]float64) [][]float64 {
	if len(points) == 0 {
		return nil
	}
	dims := len(points[0])
	lo := append([]float64(nil), points[0]...)
	hi := append([]float64(nil), points[0]...)
	for _, p := range points {
		for d, v := range p {
			if v < lo[d] {
				lo[d] = v
			}
			if v > hi[d] {
				hi[d] = v
			}
		}
	}
	out := make([][]float64, len(points))
	for i, p := range points {
		q := make([]float64, dims)
		for d, v := range p {
			span := hi[d] - lo[d]
			if span > 0 {
				q[d] = (v - lo[d]) / span
			}
		}
		out[i] = q
	}
	return out
}

// genPoints builds a deterministic point cloud with c planted cluster
// centres, optionally including exact duplicates and a constant dimension.
func genPoints(n, dims, c int, seed uint64, dupEvery int, constDim bool) [][]float64 {
	rng := sim.NewRNG(seed)
	centres := make([][]float64, c)
	for i := range centres {
		centres[i] = make([]float64, dims)
		for d := range centres[i] {
			centres[i][d] = rng.Float64() * 100
		}
	}
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dims)
		base := centres[rng.Intn(c)]
		for d := range p {
			p[d] = base[d] + rng.Float64()*3
		}
		if constDim && dims > 1 {
			p[dims-1] = 7.5
		}
		if dupEvery > 0 && i > 0 && i%dupEvery == 0 {
			copy(p, pts[i-1])
		}
		pts[i] = p
	}
	return pts
}

// latticePoints draws n points from the integer grid {0..side-1}^dims: few
// distinct rows, many exact duplicates, and — coordinates and small sums being
// exact in floating point — many exactly equal squared distances from a point
// to two different centroids, the ties the lowest-index rule has to settle.
func latticePoints(n, dims, side int, seed uint64) [][]float64 {
	rng := sim.NewRNG(seed)
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dims)
		for d := range p {
			p[d] = float64(rng.Intn(side))
		}
		pts[i] = p
	}
	return pts
}

// scalePoints multiplies every coordinate by f in place.
func scalePoints(pts [][]float64, f float64) {
	for _, p := range pts {
		for d := range p {
			p[d] *= f
		}
	}
}

func requireSameResult(t *testing.T, label string, got, want KMeansResult) {
	t.Helper()
	if !reflect.DeepEqual(got.Assignments, want.Assignments) {
		t.Fatalf("%s: assignments differ\n got: %v\nwant: %v", label, got.Assignments, want.Assignments)
	}
	if len(got.Centroids) != len(want.Centroids) {
		t.Fatalf("%s: centroid counts differ: %d vs %d", label, len(got.Centroids), len(want.Centroids))
	}
	for c := range got.Centroids {
		for d := range got.Centroids[c] {
			// Bit-level comparison: Float64bits distinguishes -0 from 0 and
			// catches any reassociated summation.
			if math.Float64bits(got.Centroids[c][d]) != math.Float64bits(want.Centroids[c][d]) {
				t.Fatalf("%s: centroid[%d][%d] = %v, want %v (bit mismatch)",
					label, c, d, got.Centroids[c][d], want.Centroids[c][d])
			}
		}
	}
	if math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
		t.Fatalf("%s: inertia %v, want %v (bit mismatch)", label, got.Inertia, want.Inertia)
	}
}

// TestKMeansFlatMatchesReference pins the equivalence claim: the flat kernel
// — incremental seeding, parallel bounded assignment and all — is bit-for-bit
// the brute-force implementation, across cluster shapes, duplicate-heavy
// inputs, k ≥ n, and multi-worker GOMAXPROCS. The later rows are the shapes
// that break naive distance bounds: the compressor's own (k = n/16), exact
// ties, stranded centroids, and the same clouds at 1e-9 and 1e+9 scale (a
// rounding margin has to be relative to the data, not absolute).
func TestKMeansFlatMatchesReference(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // force real fan-out even on 1-CPU hosts
	defer runtime.GOMAXPROCS(prev)

	cases := []struct {
		name     string
		n, dims  int
		clusters int
		k, iters int
		dupEvery int
		constDim bool
		lattice  int     // > 0: integer-grid points of this side instead of blobs
		scale    float64 // 0 = unscaled
	}{
		{name: "small", n: 40, dims: 3, clusters: 4, k: 4, iters: 25},
		{name: "k-exceeds-n", n: 5, dims: 4, clusters: 2, k: 9, iters: 10},
		{name: "k-equals-n", n: 8, dims: 2, clusters: 3, k: 8, iters: 25},
		{name: "duplicate-heavy", n: 120, dims: 5, clusters: 3, k: 6, iters: 25, dupEvery: 2},
		{name: "constant-dim", n: 90, dims: 5, clusters: 4, k: 5, iters: 25, constDim: true},
		{name: "single-point", n: 1, dims: 3, clusters: 1, k: 3, iters: 25},
		{name: "one-cluster", n: 60, dims: 4, clusters: 1, k: 1, iters: 25},
		{name: "large-parallel", n: 3000, dims: 5, clusters: 6, k: 12, iters: 30, dupEvery: 7},
		{name: "zero-iters-default", n: 50, dims: 3, clusters: 3, k: 5},

		{name: "compress-shape", n: 2560, dims: 5, clusters: 9, k: 160, iters: 25},
		{name: "compress-shape-default-iters", n: 2560, dims: 5, clusters: 9, k: 160},
		{name: "compress-shape-dups-const", n: 2560, dims: 5, clusters: 9, k: 160, iters: 25, dupEvery: 3, constDim: true},
		{name: "empty-clusters", n: 60, dims: 3, clusters: 2, k: 20, iters: 25, dupEvery: 2},
		{name: "lattice-ties", n: 400, dims: 2, k: 7, iters: 25, lattice: 4},
		{name: "lattice-ties-5d", n: 1200, dims: 5, k: 40, iters: 25, lattice: 2},
		{name: "uniform-grid", n: 2000, dims: 3, k: 100, iters: 40, lattice: 50},
		{name: "lattice-k-exceeds-distinct", n: 64, dims: 2, k: 30, iters: 25, lattice: 3},
		{name: "scaled-1e-9", n: 2560, dims: 5, clusters: 9, k: 160, iters: 25, dupEvery: 5, scale: 1e-9},
		{name: "scaled-1e+9", n: 2560, dims: 5, clusters: 9, k: 160, iters: 25, dupEvery: 5, scale: 1e+9},
		{name: "lattice-scaled-1e-9", n: 400, dims: 3, k: 12, iters: 25, lattice: 3, scale: 1e-9},
		{name: "lattice-scaled-1e+9", n: 400, dims: 3, k: 12, iters: 25, lattice: 3, scale: 1e+9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seed := uint64(tc.n)*31 + uint64(tc.k)
			var pts [][]float64
			if tc.lattice > 0 {
				pts = latticePoints(tc.n, tc.dims, tc.lattice, seed)
			} else {
				pts = genPoints(tc.n, tc.dims, tc.clusters, seed, tc.dupEvery, tc.constDim)
			}
			if tc.scale != 0 {
				scalePoints(pts, tc.scale)
			}
			want := kmeansReference(pts, tc.k, tc.iters, sim.NewRNG(99))
			got := KMeans(pts, tc.k, tc.iters, sim.NewRNG(99))
			requireSameResult(t, "nested-vs-reference", got, want)

			rngA, rngB := sim.NewRNG(99), sim.NewRNG(99)
			flat := packRows(pts, tc.dims)
			fr := KMeansFlat(flat, tc.n, tc.dims, tc.k, tc.iters, rngA)
			_ = kmeansReference(pts, tc.k, tc.iters, rngB)
			if rngA.Uint64() != rngB.Uint64() {
				t.Fatal("flat kernel consumed a different RNG sequence than the reference")
			}
			if fr.K() > 0 && fr.Dims != tc.dims {
				t.Fatalf("flat result stride %d, want %d", fr.Dims, tc.dims)
			}
			if !reflect.DeepEqual(fr.Assignments, want.Assignments) {
				t.Fatalf("flat assignments differ from reference")
			}
		})
	}
}

// TestLloydBoundsLeaveTiesToTheScan hands the pruning state the tightest
// bounds that are still true — ub and every group bound equal to the real
// distance — for a point exactly equidistant from two or more centroids, in
// one group or spread over several. Equal bounds prove nothing, so the pass
// must fall through to the exact scan and apply the lowest-index rule,
// whichever tied centroid the point was assigned to and whichever group it
// sits in. Each case runs twice: with the rounding margin, and with the
// margin zeroed, where the distances (all exact in floating point) meet the
// bounds exactly and only the strictness of every prune's comparison keeps
// the tie from being settled early.
func TestLloydBoundsLeaveTiesToTheScan(t *testing.T) {
	for _, tc := range []struct {
		name        string
		cents       []float64
		groups      []int32
		from, want  int
		wantChanged bool
	}{
		{"held-by-the-higher-index", []float64{-1, 0, 1, 0}, []int32{0, 0}, 1, 0, true},
		{"held-by-the-lower-index", []float64{-1, 0, 1, 0}, []int32{0, 0}, 0, 0, false},
		{"three-way", []float64{9, 9, 0, 1, 1, 0, 0, -1}, []int32{0, 0, 0, 0}, 3, 1, true},
		{"across-groups-held-by-the-higher-index", []float64{-1, 0, 1, 0}, []int32{0, 1}, 1, 0, true},
		{"across-groups-held-by-the-lower-index", []float64{-1, 0, 1, 0}, []int32{0, 1}, 0, 0, false},
		{"three-way-across-groups", []float64{9, 9, 0, 1, 1, 0, 0, -1}, []int32{1, 2, 0, 1}, 3, 1, true},
		{"lower-index-in-a-later-group", []float64{1, 0, 9, 9, -1, 0}, []int32{1, 0, 0}, 2, 0, true},
	} {
		for _, exact := range []bool{false, true} {
			name := tc.name
			if exact {
				name += "-no-margin"
			}
			t.Run(name, func(t *testing.T) {
				const dims = 2
				k := len(tc.cents) / dims
				s := newFlatKMeans([]float64{0, 0}, 1, dims, k)
				if exact {
					s.slack = 0
				}
				copy(s.cents, tc.cents)
				for j := 1; j < k; j++ {
					s.measure(j)
				}
				s.useGroups(tc.groups, int(slices.Max(tc.groups))+1)
				s.assign[0], s.ub[0] = tc.from, 1
				for g := range s.lb {
					s.lb[g] = 1
				}
				s.refresh()
				changed, evals := s.assignRange(0, 1)
				if s.assign[0] != tc.want || changed != tc.wantChanged {
					t.Fatalf("assigned %d (changed=%v), want %d (changed=%v)", s.assign[0], changed, tc.want, tc.wantChanged)
				}
				tied := 0
				for c := 0; c < k; c++ {
					if sqDistFlat(s.cent(c), []float64{0, 0}) == 1 {
						tied++
					}
				}
				if evals < tied {
					t.Fatalf("%d exact distances for %d tied centroids: not all were scanned", evals, tied)
				}
			})
		}
	}
}

// TestSeedingIsFirstPass pins what lets the kernel skip the first Lloyd pass:
// the centre seeding leaves each point with is the brute-force first pass's
// — the lowest-index strict argmin over every seeded centre — on lattice
// ties, on duplicate-heavy blobs, and when k exceeds the distinct points so
// that seeding falls into its zero-total duplicate-centre branch.
func TestSeedingIsFirstPass(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pts     [][]float64
		k       int
		wantDup bool // the zero-total branch must run
	}{
		{"lattice-ties", latticePoints(600, 2, 5, 1), 12, false},
		{"lattice-ties-5d", latticePoints(1200, 5, 2, 2), 40, false},
		{"duplicates", genPoints(900, 4, 6, 3, 2, false), 60, false},
		{"zero-total-duplicates", latticePoints(200, 2, 2, 4), 10, true},
		{"identical-points", [][]float64{{2, 4}, {2, 4}, {2, 4}, {2, 4}}, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, dims := len(tc.pts), len(tc.pts[0])
			s := newFlatKMeans(packRows(tc.pts, dims), n, dims, tc.k)
			s.seed(sim.NewRNG(17))
			for i := 0; i < n; i++ {
				best, bestD := 0, math.Inf(1)
				for c := 0; c < tc.k; c++ {
					if d := sqDist(tc.pts[i], s.cent(c)); d < bestD {
						best, bestD = c, d
					}
				}
				if s.assign[i] != best {
					t.Fatalf("point %d: seeding kept centre %d, the first pass picks %d", i, s.assign[i], best)
				}
			}
			dup := false
			for c := 1; c < tc.k && !dup; c++ {
				for e := 0; e < c; e++ {
					if reflect.DeepEqual(s.cent(c), s.cent(e)) {
						dup = true
					}
				}
			}
			if tc.wantDup && !dup {
				t.Fatal("no duplicate centre: the zero-total branch did not run")
			}
		})
	}
}

// TestKMeansParallelMatchesSequential pins parallel-vs-sequential byte
// identity directly: the same input clustered under GOMAXPROCS(1) and
// GOMAXPROCS(4) yields identical bits.
func TestKMeansParallelMatchesSequential(t *testing.T) {
	pts := genPoints(4000, 5, 5, 2024, 0, false)
	flat := packRows(pts, 5)

	prev := runtime.GOMAXPROCS(1)
	seq := KMeansFlat(flat, 4000, 5, 10, 30, sim.NewRNG(7))
	runtime.GOMAXPROCS(4)
	par := KMeansFlat(flat, 4000, 5, 10, 30, sim.NewRNG(7))
	runtime.GOMAXPROCS(prev)

	if !reflect.DeepEqual(seq.Assignments, par.Assignments) {
		t.Fatal("parallel assignments differ from sequential")
	}
	for i := range seq.Centroids {
		if math.Float64bits(seq.Centroids[i]) != math.Float64bits(par.Centroids[i]) {
			t.Fatalf("centroid buffer diverges at %d: %v vs %v", i, seq.Centroids[i], par.Centroids[i])
		}
	}
}

// TestKMeansEmptyClusterKeepsCentroid plants a seeding that strands a
// centroid with no members and checks the stranded centre survives
// unchanged, in both APIs.
func TestKMeansEmptyClusterKeepsCentroid(t *testing.T) {
	// Two tight blobs far apart, k=4: at least one centroid ends up empty or
	// duplicated onto a blob; either way every centroid must remain a finite
	// point and the reference must agree.
	pts := genPoints(30, 3, 2, 5, 2, false)
	want := kmeansReference(pts, 4, 25, sim.NewRNG(3))
	got := KMeans(pts, 4, 25, sim.NewRNG(3))
	requireSameResult(t, "empty-cluster", got, want)
	for c, cent := range got.Centroids {
		for d, v := range cent {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("centroid[%d][%d] not finite: %v", c, d, v)
			}
		}
	}
}

// TestKMeansDegenerateInputs covers the guard paths shared by both APIs.
func TestKMeansDegenerateInputs(t *testing.T) {
	if r := KMeans(nil, 3, 10, sim.NewRNG(1)); r.Assignments != nil || r.Centroids != nil || r.Inertia != 0 {
		t.Fatalf("KMeans(nil) = %+v, want zero result", r)
	}
	if r := KMeans([][]float64{{1, 2}}, 0, 10, sim.NewRNG(1)); r.Assignments != nil {
		t.Fatalf("KMeans(k=0) = %+v, want zero result", r)
	}
	if r := KMeansFlat(nil, 0, 3, 2, 10, sim.NewRNG(1)); r.K() != 0 {
		t.Fatalf("KMeansFlat(n=0) K() = %d, want 0", r.K())
	}
	// All-identical points: seeding falls into the duplicate path every
	// round; k still lands and inertia is exactly zero.
	pts := make([][]float64, 6)
	for i := range pts {
		pts[i] = []float64{2, 4, 8}
	}
	want := kmeansReference(pts, 3, 25, sim.NewRNG(11))
	got := KMeans(pts, 3, 25, sim.NewRNG(11))
	requireSameResult(t, "identical-points", got, want)
	if got.Inertia != 0 {
		t.Fatalf("identical points inertia = %v, want 0", got.Inertia)
	}
	if len(got.Centroids) != 3 {
		t.Fatalf("identical points produced %d centroids, want 3", len(got.Centroids))
	}
}

// TestNormalizeFlatMatchesReference pins Normalize's wrapper equivalence,
// including zero-variance dimensions mapping to exactly 0.
func TestNormalizeFlatMatchesReference(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	for _, tc := range []struct {
		name string
		pts  [][]float64
	}{
		{"mixed", genPoints(200, 4, 3, 9, 0, false)},
		{"zero-variance-dim", genPoints(150, 5, 3, 9, 0, true)},
		{"all-constant", [][]float64{{3, 3}, {3, 3}, {3, 3}}},
		{"single-row", [][]float64{{1, 2, 3}}},
		{"large-parallel", genPoints(20000, 5, 4, 13, 0, true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := normalizeReference(tc.pts)
			got := Normalize(tc.pts)
			if len(got) != len(want) {
				t.Fatalf("row counts differ: %d vs %d", len(got), len(want))
			}
			for i := range got {
				for d := range got[i] {
					if math.Float64bits(got[i][d]) != math.Float64bits(want[i][d]) {
						t.Fatalf("row %d dim %d: %v vs %v", i, d, got[i][d], want[i][d])
					}
				}
			}
		})
	}
	if Normalize(nil) != nil {
		t.Fatal("Normalize(nil) should be nil")
	}
	// Zero-variance dimensions map to exactly 0 bits, not just near-zero.
	out := Normalize([][]float64{{5, 1}, {5, 2}, {5, 3}})
	for i := range out {
		if math.Float64bits(out[i][0]) != 0 {
			t.Fatalf("constant dim row %d = %v, want exactly +0", i, out[i][0])
		}
	}
}

// BenchmarkKMeansFlat clusters one group of the compressor's shape (2560
// points, k = n/16, the 5 admission features, default iteration cap). Beside
// the time it reports the run's work as counts that repeat exactly for a
// seed: dist_evals/op is every sqDistFlat call the kernel made (seeding,
// centre grouping, separations, assignment, centre moves),
// exhaustive_evals/op what incremental seeding and scanning every centroid
// for every point on every pass would have cost over the same passes.
func BenchmarkKMeansFlat(b *testing.B) {
	const n, dims, k = 2560, 5, 160
	data := NormalizeFlat(packRows(genPoints(n, dims, 9, 501, 0, false), dims), n, dims)
	var work lloydWork
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, work = kmeansFlat(data, n, dims, k, 0, sim.NewRNG(501))
	}
	b.ReportMetric(float64(work.distEvals), "dist_evals/op")
	b.ReportMetric(float64((work.passes+1)*n*k), "exhaustive_evals/op")
	b.ReportMetric(float64(work.passes), "passes/op")
}
