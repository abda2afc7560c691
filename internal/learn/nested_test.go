package learn

import "dbwlm/internal/sim"

// The slice-of-slices clustering API this package exported before every
// caller moved to the flat kernels. It lives on in the tests only: as the
// shape kmeansReference and normalizeReference are written against, and as
// thin adapters that let the historical behavioural tests in kmeans_test.go
// keep driving KMeansFlat/NormalizeFlat unchanged.

// KMeansResult holds a clustering outcome.
type KMeansResult struct {
	// Assignments maps each input point to its cluster index.
	Assignments []int
	// Centroids are the final cluster centres.
	Centroids [][]float64
	// Inertia is the total squared distance of points to their centroids.
	Inertia float64
}

// KMeans packs the rows into one flat buffer, runs KMeansFlat, and exposes the
// centroids as subslices of the flat result.
func KMeans(points [][]float64, k, iters int, rng *sim.RNG) KMeansResult {
	n := len(points)
	if n == 0 || k <= 0 {
		return KMeansResult{}
	}
	dims := len(points[0])
	flat := packRows(points, dims)
	km := KMeansFlat(flat, n, dims, k, iters, rng)
	cents := make([][]float64, km.K())
	for c := range cents {
		cents[c] = km.Centroid(c)
	}
	return KMeansResult{Assignments: km.Assignments, Centroids: cents, Inertia: km.Inertia}
}

func sqDist(a, b []float64) float64 {
	return sqDistFlat(a, b)
}

// Normalize min-max scales each dimension of points into [0, 1] through
// NormalizeFlat; the originals are untouched and the rows of the result alias
// one flat buffer.
func Normalize(points [][]float64) [][]float64 {
	n := len(points)
	if n == 0 {
		return nil
	}
	dims := len(points[0])
	flat := NormalizeFlat(packRows(points, dims), n, dims)
	out := make([][]float64, n)
	for i := range out {
		out[i] = flat[i*dims : (i+1)*dims]
	}
	return out
}

// packRows copies n slice-of-slices rows into a single row-major buffer.
func packRows(points [][]float64, dims int) []float64 {
	flat := make([]float64, len(points)*dims)
	for i, p := range points {
		copy(flat[i*dims:(i+1)*dims], p)
	}
	return flat
}
