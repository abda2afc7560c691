package learn

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"dbwlm/internal/sim"
)

// Flat-buffer clustering kernels: one []float64 with a row stride instead
// of [][]float64 — one allocation per buffer, centroids and points contiguous
// in cache — with the two O(n·k·d) steps, k-means++ seeding and Lloyd
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
//     (O(n·k·d) instead of the old rescan's O(n·k²·d)); min over the same
//     set of exact distances is order-independent, so d2 is unchanged;
//   - the parallel steps only write per-point results (d2[i], assign[i], the
//     point's two bounds) — every floating-point *sum* (seeding totals,
//     centroid recomputation, inertia) stays sequential in ascending point
//     order;
//   - the Lloyd assignment prunes with triangle-inequality bounds (see
//     lloydBounds) under one invariant: a point is skipped, or a centroid
//     left out of its scan, only when the centroid the point keeps is the
//     strict argmin of the sqDistFlat values the exhaustive scan would have
//     compared. Bounds are never consulted for a tie: anything they cannot
//     separate with a margin above the rounding error of sqDistFlat goes to
//     the exact scan, which compares the same values with the same `<` in
//     the same ascending centroid order.

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

// lloydWork is what one run's Lloyd loop did: the assignment passes it ran
// and the sqDistFlat evaluations they cost (assignment, centroid separations
// and centroid moves; seeding and inertia, which pruning leaves alone, are
// not counted). Both are deterministic for a given input and seed, so the
// benchmark reports them as counts beside the timed numbers; the exhaustive
// scan costs passes·n·k.
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
	row := func(i int) []float64 { return data[i*dims : (i+1)*dims] }

	// k-means++ seeding with incremental min-distance maintenance: d2[i] is
	// the exact squared distance from point i to its nearest centroid so
	// far, updated (in parallel for large groups) as each centre lands.
	cents := make([]float64, 0, k*dims)
	cents = append(cents, row(rng.Intn(n))...)
	d2 := make([]float64, n)
	last := cents[0:dims]
	parallelFor(n, n*dims, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d2[i] = sqDistFlat(row(i), last)
		}
	})
	for len(cents) < k*dims {
		var total float64
		for _, d := range d2 {
			total += d
		}
		if total == 0 {
			// All points identical to existing centroids: duplicate one.
			// The duplicate cannot lower any point's min distance, so d2
			// needs no update.
			cents = append(cents, row(rng.Intn(n))...)
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
		cents = append(cents, row(pick)...)
		last = cents[len(cents)-dims:]
		parallelFor(n, n*dims, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if d := sqDistFlat(row(i), last); d < d2[i] {
					d2[i] = d
				}
			}
		})
	}

	// Lloyd iterations: parallel assignment (per-point argmin over the shared
	// read-only centroid buffer, pruned by the point's own bounds), sequential
	// centroid recomputation (float sums must keep their order for bit-stable
	// results).
	assign := make([]int, n)
	counts := make([]int, k)
	sums := make([]float64, k*dims)
	next := make([]float64, dims)
	b := newLloydBounds(data, n, dims, k, cents, assign)
	var work lloydWork
	for iter := 0; iter < iters; iter++ {
		b.prepare()
		var changed atomic.Bool
		var evals atomic.Int64
		parallelFor(n, n*k*dims, func(lo, hi int) {
			ch, ev := b.assignRange(lo, hi)
			if ch {
				changed.Store(true)
			}
			evals.Add(int64(ev))
		})
		work.passes++
		work.distEvals += int(evals.Load()) + k*(k-1)/2
		clear(counts)
		clear(sums)
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			for d, v := range row(i) {
				sums[c*dims+d] += v
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				b.moved[c] = 0 // keep the old centroid for empty clusters
				continue
			}
			for d := range next {
				next[d] = sums[c*dims+d] / float64(counts[c])
			}
			cur := cents[c*dims : (c+1)*dims]
			b.moved[c] = b.above(sqDistFlat(cur, next))
			work.distEvals++
			copy(cur, next)
		}
		b.rankMoves()
		if !changed.Load() {
			break
		}
	}

	var inertia float64
	for i := 0; i < n; i++ {
		inertia += sqDistFlat(row(i), cents[assign[i]*dims:assign[i]*dims+dims])
	}
	return FlatKMeansResult{Assignments: assign, Centroids: cents, Dims: dims, Inertia: inertia}, work
}

// lloydBounds is the pruning state of one KMeansFlat run: Hamerly's two
// bounds per point plus Elkan's centroid-separation filter for the points the
// bounds cannot settle.
//
// For point i assigned to centroid a, ub[i] is an upper bound on d(i, a) and
// lb[i] a lower bound on d(i, c) for every c != a, both on true Euclidean
// distances between the stored vectors. When centroids move, ub grows by a's
// move and lb shrinks by the largest move among the others, so both stay
// valid without touching the point. A pass then decides each point in three
// steps, cheapest first:
//
//  1. ub[i] below lb[i], or below half the distance from a to its nearest
//     other centroid (then d(i, c) >= d(a, c) - d(i, a) > d(i, a)): a is still
//     the strict nearest, skip.
//  2. Otherwise replace ub[i] by the exact d(i, a) and test again.
//  3. Otherwise scan, in ascending index order with the exhaustive scan's
//     comparison, the centroids c with d(a, c)/2 <= ub[i]; the rest are
//     strictly farther than a by the same argument. The smallest loser of
//     the scan and the nearest centroid left out give the new lb[i].
//
// The separations come from a k×k matrix rebuilt once per pass and read
// unsorted: keeping each centroid's neighbours in distance order would let
// step 3 stop early, but the k² log k sort per pass costs more than it saves.
// What a pass does build, in one linear sweep per row, is each centroid's
// near list — the neighbours within reach of the widest ub among its own
// unsettled points, in index order — so step 3 filters a few dozen
// candidates instead of all k. The state is 2n + O(k²) words per run.
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
// in below, which covers squares that overflow. NaN and Inf fail every
// pruning comparison and fall through to the exact scan.
type lloydBounds struct {
	data    []float64
	dims, k int
	cents   []float64 // the caller's centroid buffer, rewritten between passes
	assign  []int     // the caller's assignment vector

	ub, lb []float64 // per point

	half   []float64 // k×k, row a: lower bound on d(a, c)/2; diagonal 0
	sep    []float64 // per centroid: min of its half row off the diagonal
	moved  []float64 // per centroid: upper bound on its last move
	others []float64 // per centroid: largest moved among the other centroids

	reach  []float64 // per centroid: widest ub (with its margin) step 1 left unsettled
	near   []int32   // per centroid, packed: the c with half[a][c] <= reach[a], ascending
	start  []int     // near[start[a]:start[a+1]] is centroid a's list
	beyond []float64 // per centroid: smallest half[a][c] outside its list
	all    []int32   // 0..k-1, the list for a point wider than its centroid's reach

	slack float64
}

// absFloor is the absolute part of the rounding margin. A squared difference
// below ~1e-308 underflows, so a computed distance can be short by up to
// ~sqrt(dims)·1e-162 with no relative bound; the floor is far above that and
// far below any distance the relative margin could not already separate.
const absFloor = 1e-150

func newLloydBounds(data []float64, n, dims, k int, cents []float64, assign []int) *lloydBounds {
	b := &lloydBounds{
		data: data, dims: dims, k: k, cents: cents, assign: assign,
		ub:     make([]float64, n),
		lb:     make([]float64, n),
		half:   make([]float64, k*k),
		sep:    make([]float64, k),
		moved:  make([]float64, k),
		others: make([]float64, k),
		reach:  make([]float64, k),
		near:   make([]int32, k*k),
		start:  make([]int, k+1),
		beyond: make([]float64, k),
		all:    make([]int32, k),
		// sqDistFlat's relative error is (dims+2)·2⁻⁵³; sixteen times that,
		// with room for the square root and the margin arithmetic itself.
		slack: float64(dims+8) * 0x1p-49,
	}
	// Nothing is known yet: the first pass scans every point, filtering
	// against centroid 0, the initial assignment.
	for i := range b.ub {
		b.ub[i] = math.Inf(1)
	}
	for c := range b.all {
		b.all[c] = int32(c)
	}
	return b
}

// above turns a computed squared distance into an upper bound on the true
// distance.
//
//dbwlm:hotpath
func (b *lloydBounds) above(sq float64) float64 {
	return math.Sqrt(sq)*(1+b.slack) + absFloor
}

// below turns a computed squared distance into a lower bound on the true
// distance. A square that overflowed vouches for sqrt(MaxFloat64) and no
// more; capping it there also keeps every settled point's own square finite,
// so the exhaustive scan could not have seen +Inf tie with +Inf.
//
//dbwlm:hotpath
func (b *lloydBounds) below(sq float64) float64 {
	return math.Sqrt(min(sq, math.MaxFloat64))*(1-b.slack) - absFloor
}

// settled is steps 1 and 2's test: the point's upper bound, with the margin
// the comparison demands, is under its lower bound or inside a's half
// separation.
//
//dbwlm:hotpath
func (b *lloydBounds) settled(a int, need, l float64) bool {
	return need < l || need < b.sep[a]
}

// rankMoves fills others from moved: the largest move, or the runner-up for
// the centroid that made it.
//
//dbwlm:hotpath
func (b *lloydBounds) rankMoves() {
	top, first, second := 0, 0.0, 0.0
	for c, m := range b.moved {
		if m > first {
			top, first, second = c, m, first
		} else if m > second {
			second = m
		}
	}
	for c := range b.others {
		b.others[c] = first
	}
	b.others[top] = second
}

// prepare is the sequential half of a pass: it measures the current
// centroids against each other (each pair once, mirrored), carries every
// point's bounds across the last centroid recompute, and lists for each
// centroid the neighbours its unsettled points can still reach.
//
//dbwlm:hotpath
func (b *lloydBounds) prepare() {
	k, dims := b.k, b.dims
	inf := math.Inf(1)
	for a := range b.sep {
		b.sep[a] = inf
	}
	for a := 0; a < k; a++ {
		ca := b.cents[a*dims : a*dims+dims]
		for c := a + 1; c < k; c++ {
			h := b.below(sqDistFlat(ca, b.cents[c*dims:c*dims+dims])) / 2
			b.half[a*k+c], b.half[c*k+a] = h, h
			if h < b.sep[a] {
				b.sep[a] = h
			}
			if h < b.sep[c] {
				b.sep[c] = h
			}
		}
	}

	grow, shrink := 1+b.slack, 1-b.slack
	clear(b.reach)
	for i, a := range b.assign {
		u := (b.ub[i] + b.moved[a]) * grow
		l := (b.lb[i] - b.others[a]) * shrink
		b.ub[i], b.lb[i] = u, l
		if need := u * grow; !b.settled(a, need, l) && need > b.reach[a] {
			b.reach[a] = need
		}
	}

	m := 0
	for a := 0; a < k; a++ {
		b.start[a] = m
		far := inf
		for c, h := range b.half[a*k : a*k+k] {
			if h <= b.reach[a] {
				b.near[m] = int32(c)
				m++
			} else if h < far {
				far = h
			}
		}
		b.beyond[a] = far
	}
	b.start[k] = m
}

// assignRange is the parallel half of a pass, over points [lo, hi): it
// reports whether any assignment changed and how many exact distances it
// evaluated. It writes only assign, ub and lb entries of its own range.
//
//dbwlm:hotpath
func (b *lloydBounds) assignRange(lo, hi int) (changed bool, evals int) {
	k, dims := b.k, b.dims
	grow, shrink := 1+b.slack, 1-b.slack
	inf := math.Inf(1)
	for i := lo; i < hi; i++ {
		a, l := b.assign[i], b.lb[i]
		if b.settled(a, b.ub[i]*grow, l) {
			continue
		}
		p := b.data[i*dims : i*dims+dims]
		u := b.above(sqDistFlat(p, b.cents[a*dims:a*dims+dims]))
		evals++
		b.ub[i] = u
		need := u * grow
		if b.settled(a, need, l) {
			continue
		}
		// Exact scan over the centroids the separation filter cannot rule
		// out. a's own row entry is 0, so a is always among them, at its
		// place in the index order. The tightened bound is not provably
		// inside reach[a] (each is rounded outward on its own), hence the
		// fallback to the full row.
		cand, nearest := b.near[b.start[a]:b.start[a+1]], b.beyond[a]
		if !(need <= b.reach[a]) {
			cand, nearest = b.all, inf
		}
		row := b.half[a*k : a*k+k]
		best, bestD, second := 0, inf, inf
		for _, c := range cand {
			if h := row[c]; h > need {
				if h < nearest {
					nearest = h // nearest centroid left out of the scan
				}
				continue
			}
			d := sqDistFlat(p, b.cents[int(c)*dims:int(c)*dims+dims])
			evals++
			if d < bestD {
				best, bestD, second = int(c), d, bestD
			} else if d < second {
				second = d
			}
		}
		l = b.below(second)
		if far := (2*nearest - u) * shrink; far < l {
			l = far
		}
		b.ub[i], b.lb[i] = b.above(bestD), l
		if best != a {
			b.assign[i] = best
			changed = true
		}
	}
	return changed, evals
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
