package learn

import (
	"math"
	"testing"

	"dbwlm/internal/sim"
)

// FuzzKMeansFlatMatchesReference drives the bounded kernel and the brute-force
// reference over fuzzer-chosen shapes and demands the same bits — assignments,
// centroids, inertia — and the same RNG state afterwards. scaleExp walks the
// cloud across magnitudes, far enough (1e±160) that squared distances
// underflow to zero or overflow to +Inf: the bounds must then prove nothing
// and leave every decision to the exact scan.
func FuzzKMeansFlatMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(200), uint16(12), uint8(5), int16(0), uint8(0), uint8(0), uint8(25))
	f.Add(uint64(2), uint16(300), uint16(40), uint8(2), int16(-9), uint8(3), uint8(0), uint8(10))
	f.Add(uint64(3), uint16(64), uint16(70), uint8(3), int16(9), uint8(2), uint8(3), uint8(0))
	f.Add(uint64(4), uint16(500), uint16(31), uint8(8), int16(-158), uint8(0), uint8(0), uint8(25))
	f.Add(uint64(5), uint16(120), uint16(9), uint8(1), int16(153), uint8(4), uint8(2), uint8(50))
	// 1-D, every other point a duplicate, 1e-66 scale: found by the fuzzer
	// against a kernel that forgot the centroids outside a near list when
	// rebuilding a point's lower bound.
	f.Add(uint64(2), uint16(500), uint16(20), uint8(8), int16(-236), uint8(56), uint8(0), uint8(25))
	// 1-D at 1e153 scale: squared distances to the far centroids overflow
	// while the distances themselves do not. Found by the fuzzer against a
	// kernel that took sqrt(+Inf) for a lower bound.
	f.Add(uint64(5), uint16(81), uint16(9), uint8(0), int16(153), uint8(4), uint8(16), uint8(50))
	// k ≥ 100 with every other point a duplicate: many groups of centres,
	// and centres landing on duplicated rows.
	f.Add(uint64(11), uint16(480), uint16(150), uint8(4), int16(0), uint8(2), uint8(0), uint8(25))
	// k = 120 on a lattice of 8 distinct points: seeding spends most of its
	// landings in the zero-total duplicate-centre branch.
	f.Add(uint64(12), uint16(300), uint16(119), uint8(2), int16(0), uint8(0), uint8(2), uint8(25))
	f.Fuzz(func(t *testing.T, seed uint64, n, k uint16, dims uint8, scaleExp int16, dupEvery, lattice, iters uint8) {
		nn := int(n)%600 + 1
		kk := int(k)%(nn+4) + 1 // reaches past n: the clamp is part of the contract
		dd := int(dims)%8 + 1
		var pts [][]float64
		if side := int(lattice) % 5; side >= 2 {
			pts = latticePoints(nn, dd, side, seed)
		} else {
			pts = genPoints(nn, dd, int(seed%7)+1, seed, int(dupEvery)%6, seed&8 != 0)
		}
		scalePoints(pts, math.Pow(10, float64(int(scaleExp)%170)))

		rngGot, rngWant := sim.NewRNG(seed), sim.NewRNG(seed)
		want := kmeansReference(pts, kk, int(iters)%60, rngWant)
		got := KMeans(pts, kk, int(iters)%60, rngGot)
		requireSameResult(t, "bounded-vs-reference", got, want)
		if rngGot.Uint64() != rngWant.Uint64() {
			t.Fatal("bounded kernel consumed a different RNG sequence than the reference")
		}
	})
}
