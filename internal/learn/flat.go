package learn

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"dbwlm/internal/sim"
)

// Flat-buffer clustering kernels: one []float64 with a row stride instead
// of [][]float64 — one allocation per buffer, centroids and points contiguous
// in cache — with the per-point steps, k-means++ seeding and Lloyd
// assignment, parallelized over contiguous point ranges when the group is
// large enough to pay for the goroutines. The workload compressor runs them
// once per (class × stratum) group on every compression.
//
// Every result is bit-for-bit what the brute-force slice-of-slices
// implementation kept as kmeansReference in flat_test.go produces:
//
//   - the RNG consumption sequence is unchanged (same Intn/Float64 draws in
//     the same order);
//   - k-means++ seeding maintains the per-point min distance incrementally
//     (O(n·k·d) at most instead of the old rescan's O(n·k²·d)); min over the
//     same set of exact distances is order-independent, so d2 is unchanged.
//     A point provably nearer its own centre than the one landing skips the
//     distance, whose `d < d2[i]` would have been false (flatKMeans.seed);
//   - the centre seeding leaves each point with — the lowest-index argmin
//     over the seeded centres — is what the reference's first Lloyd pass
//     computes, so that pass is not run;
//   - the parallel steps only write per-point results (d2[i], assign[i], the
//     point's bounds) — every floating-point *sum* (seeding totals, centroid
//     recomputation, inertia) stays sequential in ascending point order;
//   - every prune, in seeding and in the Lloyd assignment (see flatKMeans),
//     keeps one invariant: a distance is skipped only when the centre the
//     point keeps is provably the strict argmin of the sqDistFlat values the
//     exhaustive scan would have compared. Bounds are never consulted for a
//     tie: anything they cannot separate with a margin above the rounding
//     error of sqDistFlat goes to the exact scan, which compares the same
//     values and keeps the lowest index among equals, as the exhaustive
//     ascending `<` scan does.

// FlatKMeansResult is a clustering outcome over a flat point buffer.
type FlatKMeansResult struct {
	// Assignments maps each input point to its cluster index.
	Assignments []int
	// Centroids holds the final cluster centres, row-major with the input's
	// stride: centre c is Centroids[c*Dims : (c+1)*Dims].
	Centroids []float64
	// Dims is the row stride of Centroids.
	Dims int
	// Inertia is the total squared distance of points to their centroids.
	Inertia float64
}

// K reports the number of centroids.
func (r *FlatKMeansResult) K() int {
	if r.Dims <= 0 {
		return 0
	}
	return len(r.Centroids) / r.Dims
}

// Centroid returns centre c as a subslice of the flat buffer.
func (r *FlatKMeansResult) Centroid(c int) []float64 {
	return r.Centroids[c*r.Dims : (c+1)*r.Dims]
}

// parMinWork is the approximate flop count below which a parallelizable step
// runs sequentially: under it, goroutine handoff costs more than it saves.
const parMinWork = 1 << 15

// parallelFor splits [0, n) into contiguous chunks across GOMAXPROCS-bounded
// workers and runs fn on each. work is the caller's estimate of total flops;
// small jobs and single-proc hosts run inline. fn must only write state owned
// by its own index range — determinism comes from the range partition, not
// from scheduling order.
func parallelFor(n, work int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 || work < parMinWork {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// sqDistFlat is the squared Euclidean distance between two stride-length
// rows, accumulated in ascending dimension order (the same order as the
// reference implementation's kernel, so results are bit-identical).
//
//dbwlm:hotpath
func sqDistFlat(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// KMeansFlat clusters n points of dims dimensions stored row-major in data
// (len(data) == n*dims) with Lloyd's algorithm over k-means++ seeding. Inputs
// are used as-is (normalize first when dimensions have different scales) and
// are not modified.
func KMeansFlat(data []float64, n, dims, k, iters int, rng *sim.RNG) FlatKMeansResult {
	res, _ := kmeansFlat(data, n, dims, k, iters, rng)
	return res
}

// lloydWork is what one run did: the Lloyd iterations it ran, the first one
// included although seeding supplies its assignment, and every sqDistFlat
// evaluation — seeding, centre grouping, the separations actually
// (re)measured, assignment, centre moves and inertia. Both are deterministic
// for a given input and seed, so the benchmark reports them as counts beside
// the timed numbers; the unpruned kernel costs about (passes+1)·n·k.
type lloydWork struct {
	passes    int
	distEvals int
}

func kmeansFlat(data []float64, n, dims, k, iters int, rng *sim.RNG) (FlatKMeansResult, lloydWork) {
	if n == 0 || k <= 0 || dims <= 0 {
		return FlatKMeansResult{Dims: dims}, lloydWork{}
	}
	if k > n {
		k = n
	}
	if iters <= 0 {
		iters = 25
	}
	s := newFlatKMeans(data, n, dims, k)
	s.seed(rng)
	s.group()
	s.initBounds()

	// Lloyd iterations: parallel assignment (per-point argmin over the shared
	// read-only centroid buffer, pruned by the point's own bounds), sequential
	// centroid recomputation (float sums must keep their order for bit-stable
	// results).
	counts := make([]int, k)
	sums := make([]float64, k*dims)
	next := make([]float64, dims)
	var work lloydWork
	for iter := 0; iter < iters; iter++ {
		var changed bool
		if iter == 0 {
			// The reference's first pass moves each point from centre 0 to
			// its lowest-index nearest seeded centre: seeding's assignment.
			changed = slices.ContainsFunc(s.assign, func(a int) bool { return a != 0 })
		} else {
			changed = s.pass()
		}
		work.passes++
		s.recompute(counts, sums, next)
		if !changed {
			break
		}
	}

	var inertia float64
	for i := 0; i < n; i++ {
		inertia += sqDistFlat(s.row(i), s.cent(s.assign[i]))
	}
	work.distEvals = int(s.evals.Load()) + n
	return FlatKMeansResult{Assignments: s.assign, Centroids: s.cents, Dims: dims, Inertia: inertia}, work
}

// flatKMeans is one KMeansFlat run: the centres, each point's assignment, and
// the bounds that let seeding and the Lloyd assignment skip distances.
//
// The Lloyd bounds are Yinyang's (Ding et al., ICML 2015). The centres are
// partitioned once into about k/10 spatial groups. For point i assigned to
// centre a, ub[i] is an upper bound on d(i, a) and lb[i·G+g] a lower bound on
// d(i, c) for every c != a in group g, all on true Euclidean distances between
// the stored vectors. When the centres move, ub grows by a's move and each
// group bound shrinks by its group's largest move, so all stay valid without
// touching the point. A pass then decides each point in three steps,
// cheapest first:
//
//  1. every group bound above ub[i], or ub[i] below half the distance from a
//     to its nearest other centre (then d(i, c) >= d(a, c) - d(i, a) >
//     d(i, a)): a is still the strict nearest, skip.
//  2. Otherwise replace ub[i] by the exact d(i, a) and test again.
//  3. Otherwise scan a's own group and every group whose bound ub[i] does not
//     clear, leaving out each centre c with d(a, c)/2 > ub[i] by the same
//     argument. The scan keeps the best centre by (squared distance, index)
//     — the exhaustive scan's lowest-index argmin — and rebuilds each visited
//     group's bound from what it measured and what it left out.
//
// The separations d(a, c)/2 live in a k×k matrix that seeding fills as each
// centre lands; after a recompute only the pairs with a centre that moved are
// measured again. A recomputed mean equal to the old one has not moved. The
// state is about (G+4)·n + O(k²) words per run.
//
// Exactness under rounding: every stored bound is pushed outward past the
// rounding error of the arithmetic that produced it (above and below, applied
// at every update, so the bounds hold rigorously rather than approximately),
// and every pruning comparison additionally demands a relative gap of slack
// between the two true distances. slack exceeds twice sqDistFlat's relative
// error, so a centroid that is farther by that gap also has the strictly
// larger computed squared distance, which is all the exhaustive scan looks
// at. The margins are relative — the kernel is also fed un-normalised points
// — apart from absFloor, which covers products that underflow, and the cap
// in below, which covers squares that overflow. Every prune is written as
// `bound > need`, so a NaN or an Inf - Inf fails it and falls through to the
// exact scan.
type flatKMeans struct {
	data       []float64
	n, dims, k int
	cents      []float64 // k rows: the result's centroid buffer
	assign     []int     // per point: its centre (seeding's nearest, then Lloyd's)

	ub    []float64 // per point: upper bound on d(i, assign[i])
	lb    []float64 // n×G: per point and group, the lower bound described above
	half  []float64 // k×k, row a: lower bound on d(a, c)/2; diagonal 0
	sep   []float64 // per centre: min of its half row off the diagonal
	moved []float64 // per centre: upper bound on its last move, 0 if it stayed

	groupOf []int32   // per centre: its group
	members []int32   // the centres ordered by group, ascending within each
	start   []int     // members[start[g]:start[g+1]] is group g
	drift   []float64 // per group: largest moved among its members

	slack float64
	evals atomic.Int64 // sqDistFlat calls so far
}

// absFloor is the absolute part of the rounding margin. A squared difference
// below ~1e-308 underflows, so a computed distance can be short by up to
// ~sqrt(dims)·1e-162 with no relative bound; the floor is far above that and
// far below any distance the relative margin could not already separate.
const absFloor = 1e-150

func newFlatKMeans(data []float64, n, dims, k int) *flatKMeans {
	return &flatKMeans{
		data: data, n: n, dims: dims, k: k,
		cents:  make([]float64, k*dims),
		assign: make([]int, n),
		ub:     make([]float64, n),
		half:   make([]float64, k*k),
		sep:    make([]float64, k),
		moved:  make([]float64, k),
		// sqDistFlat's relative error is (dims+2)·2⁻⁵³; sixteen times that,
		// with room for the square root and the margin arithmetic itself.
		slack: float64(dims+8) * 0x1p-49,
	}
}

func (s *flatKMeans) row(i int) []float64  { return s.data[i*s.dims : (i+1)*s.dims] }
func (s *flatKMeans) cent(c int) []float64 { return s.cents[c*s.dims : (c+1)*s.dims] }

// above turns a computed squared distance into an upper bound on the true
// distance.
//
//dbwlm:hotpath
func (s *flatKMeans) above(sq float64) float64 {
	return math.Sqrt(sq)*(1+s.slack) + absFloor
}

// below turns a computed squared distance into a lower bound on the true
// distance. A square that overflowed vouches for sqrt(MaxFloat64) and no
// more; capping it there also keeps every settled point's own square finite,
// so the exhaustive scan could not have seen +Inf tie with +Inf.
//
//dbwlm:hotpath
func (s *flatKMeans) below(sq float64) float64 {
	return math.Sqrt(min(sq, math.MaxFloat64))*(1-s.slack) - absFloor
}

// seed is k-means++ seeding with the reference's RNG draws and d2 bits. Each
// point keeps assign[i], the centre that produced d2[i] — the first to reach
// it, so the lowest-index argmin — and ub[i] above that distance. A centre
// measures its separations to the earlier centres as it lands, into the
// matrix the Lloyd passes use; a point whose ub[i], with the margin, is below
// half the distance from assign[i] to the new centre is strictly nearer its
// own, the exact `d < d2[i]` would have been false, and it is skipped.
//
// The points are kept in one list per centre, with the list's radius, the
// largest ub among its points, so a landing skips whole lists at once and
// walks only those of the centres it may be nearer for some point of.
func (s *flatKMeans) seed(rng *sim.RNG) {
	n, dims, k := s.n, s.dims, s.k
	d2 := make([]float64, n)
	head := make([]int32, k)     // first point of each centre's list, -1 if none
	next := make([]int32, n)     // next point in the same list, -1 at the end
	radius := make([]float64, k) // largest ub among each list's points
	copy(s.cent(0), s.row(rng.Intn(n)))
	parallelFor(n, n*dims, func(lo, hi int) {
		c := s.cent(0)
		for i := lo; i < hi; i++ {
			d2[i] = sqDistFlat(s.row(i), c)
			s.ub[i] = s.above(d2[i])
		}
	})
	s.evals.Add(int64(n))
	for i := range next {
		next[i] = int32(i + 1)
		radius[0] = max(radius[0], s.ub[i])
	}
	next[n-1] = -1
	for j := 1; j < k; j++ {
		var total float64
		for _, d := range d2 {
			total += d
		}
		if total == 0 {
			// All points identical to existing centroids: duplicate one.
			// The duplicate cannot lower any point's min distance, so no
			// point is measured against it; its separations still are.
			copy(s.cent(j), s.row(rng.Intn(n)))
			s.measure(j)
			head[j] = -1
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
		copy(s.cent(j), s.row(pick))
		s.measure(j)
		s.land(j, d2, head, next, radius)
	}
}

// measure fills the separations between centre j and the centres before it.
func (s *flatKMeans) measure(j int) {
	k, cj := s.k, s.cent(j)
	for c := 0; c < j; c++ {
		h := s.below(sqDistFlat(s.cent(c), cj)) / 2
		s.half[c*k+j], s.half[j*k+c] = h, h
	}
	s.evals.Add(int64(j))
}

// land offers centre j to the points of the earlier centres' lists: a
// point that is strictly nearer to it takes it, and moves to j's list.
//
//dbwlm:hotpath
func (s *flatKMeans) land(j int, d2 []float64, head, next []int32, radius []float64) {
	k, dims := s.k, s.dims
	grow := 1 + s.slack
	cj := s.cents[j*dims : j*dims+dims]
	half := s.half[j*k : j*k+k]
	evals := 0
	head[j] = -1
	for a := 0; a < j; a++ {
		h := half[a]
		if h > radius[a]*grow {
			continue // every point of a is strictly nearer a than j
		}
		r, prev := 0.0, int32(-1)
		for i := head[a]; i >= 0; {
			nx := next[i]
			if !(h > s.ub[i]*grow) {
				d := sqDistFlat(s.data[int(i)*dims:int(i)*dims+dims], cj)
				evals++
				if d < d2[i] {
					d2[i], s.assign[i], s.ub[i] = d, j, s.above(d)
					if prev < 0 {
						head[a] = nx
					} else {
						next[prev] = nx
					}
					next[i], head[j] = head[j], i
					radius[j] = max(radius[j], s.ub[i])
					i = nx
					continue
				}
			}
			r = max(r, s.ub[i])
			prev, i = i, nx
		}
		radius[a] = r
	}
	s.evals.Add(int64(evals))
}

// groupRounds caps the Lloyd rounds group runs over the centres.
const groupRounds = 4

// group partitions the seeded centres into about k/10 spatial groups with a
// few Lloyd rounds over the centres themselves, started from centres
// 0..G-1; no RNG is drawn. The grouping decides how much a pass can skip,
// never what it returns.
func (s *flatKMeans) group() {
	k, dims := s.k, s.dims
	G := max(1, (k+5)/10)
	of := make([]int32, k)
	if G > 1 {
		means := slices.Clone(s.cents[:G*dims])
		sums := make([]float64, G*dims)
		counts := make([]int, G)
		for round := 0; ; round++ {
			changed := false
			for c := 0; c < k; c++ {
				cc := s.cent(c)
				best, bestD := 0, math.Inf(1)
				for g := 0; g < G; g++ {
					if d := sqDistFlat(cc, means[g*dims:g*dims+dims]); d < bestD {
						best, bestD = g, d
					}
				}
				if round == 0 || of[c] != int32(best) {
					of[c], changed = int32(best), true
				}
			}
			s.evals.Add(int64(k * G))
			if !changed || round == groupRounds-1 {
				break
			}
			clear(sums)
			clear(counts)
			for c := 0; c < k; c++ {
				g := int(of[c])
				counts[g]++
				for d, v := range s.cent(c) {
					sums[g*dims+d] += v
				}
			}
			for g, m := range counts {
				if m == 0 {
					continue // an empty group keeps its mean
				}
				for d := 0; d < dims; d++ {
					means[g*dims+d] = sums[g*dims+d] / float64(m)
				}
			}
		}
	}
	s.useGroups(of, G)
}

// useGroups takes the partition of, one group id below G per centre, and
// lists each group's members in ascending order. A group may be empty.
func (s *flatKMeans) useGroups(of []int32, G int) {
	s.start = make([]int, G+1)
	for _, g := range of {
		s.start[g+1]++
	}
	for g := 0; g < G; g++ {
		s.start[g+1] += s.start[g]
	}
	fill := slices.Clone(s.start[:G])
	s.members = make([]int32, s.k)
	for c, g := range of {
		s.members[fill[g]] = int32(c)
		fill[g]++
	}
	s.groupOf = of
	s.drift = make([]float64, G)
	s.lb = make([]float64, s.n*G)
}

// initBounds gives every point its first group bounds from seeding: for a
// centre c != a in group g, d(i, c) >= d(a, c) - d(i, a) >= 2·half[a][c] -
// ub[i].
func (s *flatKMeans) initBounds() {
	k, G := s.k, len(s.drift)
	nearest := make([]float64, k*G) // per centre and group: min half to the group's other members
	for i := range nearest {
		nearest[i] = math.Inf(1)
	}
	for a := 0; a < k; a++ {
		for c, h := range s.half[a*k : a*k+k] {
			if m := &nearest[a*G+int(s.groupOf[c])]; c != a && h < *m {
				*m = h
			}
		}
	}
	shrink := 1 - s.slack
	parallelFor(s.n, s.n*G, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a, u := s.assign[i], s.ub[i]
			for g, h := range nearest[a*G : a*G+G] {
				s.lb[i*G+g] = (2*h - u) * shrink
			}
		}
	})
}

// recompute moves every centre with members to their mean — summed
// sequentially in point order, so the bits are the reference's — and
// records in moved how far it went.
func (s *flatKMeans) recompute(counts []int, sums, next []float64) {
	dims := s.dims
	clear(counts)
	clear(sums)
	for i, c := range s.assign {
		counts[c]++
		for d, v := range s.row(i) {
			sums[c*dims+d] += v
		}
	}
	for c := range s.moved {
		s.moved[c] = 0
		if counts[c] == 0 {
			continue // keep the old centroid for empty clusters
		}
		for d := range next {
			next[d] = sums[c*dims+d] / float64(counts[c])
		}
		// Equal values give equal distances, so an equal mean has not moved
		// (and -0 is copied over +0 all the same).
		cur := s.cent(c)
		if !slices.Equal(cur, next) {
			s.moved[c] = s.above(sqDistFlat(cur, next))
			s.evals.Add(1)
		}
		copy(cur, next)
	}
}

// pass is one bounded Lloyd assignment: the separations and group drifts
// are brought up to date sequentially, then the points are assigned in
// parallel ranges. It reports whether any assignment changed.
func (s *flatKMeans) pass() bool {
	s.refresh()
	var changed atomic.Bool
	parallelFor(s.n, s.n*s.k*s.dims, func(lo, hi int) {
		ch, ev := s.assignRange(lo, hi)
		if ch {
			changed.Store(true)
		}
		s.evals.Add(int64(ev))
	})
	return changed.Load()
}

// refresh measures again the separations of every pair with a centre that
// moved in the last recompute, then derives each centre's nearest
// separation and each group's drift.
//
//dbwlm:hotpath
func (s *flatKMeans) refresh() {
	k, dims := s.k, s.dims
	inf := math.Inf(1)
	evals := 0
	for a := 0; a < k; a++ {
		ca, moved := s.cents[a*dims:a*dims+dims], s.moved[a] != 0
		row := s.half[a*k : a*k+k]
		m := inf
		for c, h := range row {
			if c > a && (moved || s.moved[c] != 0) {
				h = s.below(sqDistFlat(ca, s.cents[c*dims:c*dims+dims])) / 2
				row[c], s.half[c*k+a] = h, h
				evals++
			}
			if c != a && h < m {
				m = h
			}
		}
		s.sep[a] = m
	}
	s.evals.Add(int64(evals))
	for g := range s.drift {
		m := 0.0
		for _, c := range s.members[s.start[g]:s.start[g+1]] {
			if s.moved[c] > m {
				m = s.moved[c]
			}
		}
		s.drift[g] = m
	}
}

// assignRange is the parallel half of a pass, over points [lo, hi): it
// reports whether any assignment changed and how many exact distances it
// evaluated. It writes only assign, ub and lb entries of its own range.
//
//dbwlm:hotpath
func (s *flatKMeans) assignRange(lo, hi int) (changed bool, evals int) {
	dims, G := s.dims, len(s.drift)
	grow, shrink := 1+s.slack, 1-s.slack
	for i := lo; i < hi; i++ {
		a := s.assign[i]
		u := (s.ub[i] + s.moved[a]) * grow
		s.ub[i] = u
		need := u * grow
		lbs := s.lb[i*G : i*G+G]
		open := false
		for g, m := range s.drift {
			l := (lbs[g] - m) * shrink
			lbs[g] = l
			if !(l > need) {
				open = true
			}
		}
		if !open || s.sep[a] > need {
			continue
		}
		p := s.data[i*dims : i*dims+dims]
		da := sqDistFlat(p, s.cents[a*dims:a*dims+dims])
		evals++
		u = s.above(da)
		s.ub[i] = u
		need = u * grow
		if s.sep[a] > need || cleared(lbs, need) {
			continue
		}
		best, bestD, ev := s.scan(p, a, da, u, lbs)
		evals += ev
		s.ub[i] = s.above(bestD)
		if best != a {
			s.assign[i] = best
			changed = true
		}
	}
	return changed, evals
}

// cleared reports whether every group bound is above need.
//
//dbwlm:hotpath
func cleared(lbs []float64, need float64) bool {
	for _, l := range lbs {
		if !(l > need) {
			return false
		}
	}
	return true
}

// scan is step 3 for point p, assigned to a at squared distance da, with u
// the upper bound on d(p, a): it returns the nearest centre by (squared
// distance, index), that squared distance, and the exact distances it
// evaluated, and rebuilds the bound in lbs of every group it visits.
//
//dbwlm:hotpath
func (s *flatKMeans) scan(p []float64, a int, da, u float64, lbs []float64) (best int, bestD float64, evals int) {
	k, dims := s.k, s.dims
	need, shrink := u*(1+s.slack), 1-s.slack
	inf := math.Inf(1)
	half := s.half[a*k : a*k+k]
	own := int(s.groupOf[a])
	best, bestD, bestG := -1, inf, -1
	for gi := -1; gi < len(lbs); gi++ {
		g := own // a's group first: it holds the point's centre
		if gi >= 0 {
			if g = gi; g == own || lbs[g] > need {
				continue // every centre in g is strictly farther than a
			}
		}
		// The group's nearest centre by (squared distance, index), the
		// nearest squared distance among the rest, and the smallest
		// separation from a of the centres left out.
		m1, c1, m2, far := inf, -1, inf, inf
		for _, c32 := range s.members[s.start[g]:s.start[g+1]] {
			c, d := int(c32), da
			if c != a {
				if h := half[c]; h > need {
					if h < far {
						far = h
					}
					continue
				}
				d = sqDistFlat(p, s.cents[c*dims:c*dims+dims])
				evals++
			}
			if c1 < 0 || d < m1 {
				m1, c1, m2 = d, c, m1
			} else if d < m2 {
				m2 = d
			}
		}
		if c1 >= 0 && (best < 0 || m1 < bestD || m1 == bestD && c1 < best) {
			if best >= 0 {
				// The old best is now one of its group's others.
				if l := s.below(bestD); l < lbs[bestG] {
					lbs[bestG] = l
				}
			}
			best, bestD, bestG = c1, m1, g
			m1 = m2
		}
		l := s.below(m1)
		if far < inf {
			if f := (2*far - u) * shrink; f < l {
				l = f
			}
		}
		lbs[g] = l
	}
	return best, bestD, evals
}

// NormalizeFlat min-max scales each dimension of n stride-dims rows into
// [0, 1], returning a new flat buffer (the input is untouched). Dimensions
// with zero spread map to 0.
func NormalizeFlat(data []float64, n, dims int) []float64 {
	if n == 0 || dims <= 0 {
		return nil
	}
	lo := append([]float64(nil), data[:dims]...)
	hi := append([]float64(nil), data[:dims]...)
	for i := 0; i < n; i++ {
		for d := 0; d < dims; d++ {
			v := data[i*dims+d]
			if v < lo[d] {
				lo[d] = v
			}
			if v > hi[d] {
				hi[d] = v
			}
		}
	}
	out := make([]float64, n*dims)
	parallelFor(n, n*dims, func(plo, phi int) {
		for i := plo; i < phi; i++ {
			for d := 0; d < dims; d++ {
				if span := hi[d] - lo[d]; span > 0 {
					out[i*dims+d] = (data[i*dims+d] - lo[d]) / span
				}
			}
		}
	})
	return out
}
