package trace

import (
	"math"
	"sort"

	"dbwlm/internal/admission"
	"dbwlm/internal/experiments"
	"dbwlm/internal/learn"
	"dbwlm/internal/sim"
)

// Workload compression: reduce a trace to a small weighted representative
// subset by clustering rows in the admission feature space (Deep et al.,
// "Comprehensive and Efficient Workload Compression").
//
// Rows are grouped by (class, time stratum) and each group is compressed by
// the same target ratio: its rows are embedded as 5-D admission.FeatureVec
// points (the same log-scaled cost features the live predictors use),
// normalized, k-means++-clustered with a deterministic seeded RNG, and each
// cluster contributes one representative — the *real trace row* nearest its
// centroid, found with the internal/learn k-d tree, never a synthesized
// point — weighted by the summed weight of the cluster's members.
//
// Compressing every group by one uniform ratio is what makes the compressed
// trace replayable as a what-if stand-in: replayed at TimeScale = 1/ratio it
// offers the engine the same per-class arrival rate as the original (so
// contention is comparable) in a fraction of the virtual time, and because
// group weights are conserved exactly, the weighted per-window arrival curve
// matches the original's by construction. What remains to diverge — and what
// the Replay/Diverge pair measures — is the response-time distribution.
//
// Compression is deterministic: the same (rows, seed, config) produce
// byte-identical output regardless of MaxWorkers, which a test pins. Groups
// are independent — each clusters with its own label-forked RNG (Fork reads
// but never advances the parent, so the fork sequence does not depend on
// execution order) and appends only to its own result slot — so the
// per-group work fans out across a GOMAXPROCS-bounded pool and the results
// are stitched back in class-major, stratum-minor order, exactly the
// sequential iteration order.

// CompressConfig parameterizes Compress.
type CompressConfig struct {
	// Ratio is the target compression ratio (original rows per
	// representative). Every (class, stratum) group is reduced by this
	// factor, never below one representative. Zero means the default, 16;
	// 1 keeps every row, and anything below 1 acts as 1.
	Ratio float64
	// Strata is the number of equal time slices clustering is confined to;
	// it fixes the resolution at which the compressed trace preserves the
	// arrival-rate curve. Default 6 (matching the replay's rate
	// windows, rateWindows). Coarser strata mean larger groups, which gives
	// k-means room to separate heavy rows from typical ones even in small
	// classes; finer strata pin the rate curve tighter but collapse small
	// classes to one representative per slice.
	Strata int
	// Seed seeds the clustering RNG.
	Seed uint64
	// MaxWorkers caps the per-group clustering fan-out: 0 uses the
	// GOMAXPROCS-bounded pool, 1 forces a fully sequential run. Output is
	// byte-identical either way.
	MaxWorkers int
}

// compressJob is one (class, stratum) group scheduled for clustering.
type compressJob struct {
	members []int
	k       int
	rng     *sim.RNG
}

// Compress reduces rows (one whole trace, sorted by arrival) to a weighted
// representative subset. The input is not modified; returned rows own their
// buffers.
func Compress(h Header, rows []Row, cfg CompressConfig) []Row {
	ratio := cfg.Ratio
	if ratio == 0 {
		ratio = 16
	}
	if !(ratio >= 1) {
		ratio = 1
	}
	strata := cfg.Strata
	if strata <= 0 {
		strata = 6
	}
	rng := sim.NewRNG(cfg.Seed)

	maxClass := -1
	for i := range rows {
		if int(rows[i].Class) > maxClass {
			maxClass = int(rows[i].Class)
		}
	}

	// Single-pass bucketing: size each (class, stratum) bucket, then slice
	// one shared index arena so the whole partition costs two passes and two
	// allocations instead of the old classes×strata full scans. Buckets fill
	// in ascending row order, matching the order the scans produced.
	nGroups := (maxClass + 1) * strata
	if nGroups <= 0 {
		return nil
	}
	counts := make([]int, nGroups)
	for i := range rows {
		counts[int(rows[i].Class)*strata+stratumOf(rows[i].ArriveUS, h.DurationUS, strata)]++
	}
	arena := make([]int, len(rows))
	buckets := make([][]int, nGroups)
	off := 0
	for g, c := range counts {
		buckets[g] = arena[off : off : off+c]
		off += c
	}
	for i := range rows {
		g := int(rows[i].Class)*strata + stratumOf(rows[i].ArriveUS, h.DurationUS, strata)
		buckets[g] = append(buckets[g], i)
	}

	// Collect non-empty groups in class-major, stratum-minor order, forking
	// each group's RNG up front so clustering can run in any order.
	jobs := make([]compressJob, 0, nGroups)
	for ci := 0; ci <= maxClass; ci++ {
		for si := 0; si < strata; si++ {
			members := buckets[ci*strata+si]
			if len(members) == 0 {
				continue
			}
			k := int(math.Round(float64(len(members)) / ratio))
			if k < 1 {
				k = 1
			}
			label := uint64(ci)*uint64(strata+1) + uint64(si) + 1
			jobs = append(jobs, compressJob{members: members, k: k, rng: rng.Fork(label)})
		}
	}

	groupReps := experiments.RunIndexedBounded(len(jobs), cfg.MaxWorkers, func(i int) []Row {
		j := jobs[i]
		return compressGroup(rows, j.members, j.k, j.rng)
	})
	var total int
	for _, reps := range groupReps {
		total += len(reps)
	}
	out := make([]Row, 0, total)
	for _, reps := range groupReps {
		out = append(out, reps...)
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].ArriveUS != out[b].ArriveUS {
			return out[a].ArriveUS < out[b].ArriveUS
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// stratumOf maps an arrival offset to its time stratum.
func stratumOf(arriveUS, durationUS int64, strata int) int {
	if durationUS <= 0 {
		return 0
	}
	s := int(arriveUS * int64(strata) / durationUS)
	if s < 0 {
		s = 0
	}
	if s >= strata {
		s = strata - 1
	}
	return s
}

// TotalWeight sums row weights (non-positive weights count as 1), the
// denominator of the rate-preserving replay time scale.
func TotalWeight(rows []Row) float64 {
	var w float64
	for i := range rows {
		if rows[i].Weight > 0 {
			w += rows[i].Weight
		} else {
			w++
		}
	}
	return w
}

// RateScale returns the replay TimeScale at which comp offers the same
// weighted arrival rate as the trace it was compressed from: representatives
// per unit of compressed time == original rows per unit of recorded time.
func RateScale(comp []Row) float64 {
	tw := TotalWeight(comp)
	if tw <= 0 {
		return 1
	}
	return float64(len(comp)) / tw
}

// compressGroup clusters one (class, stratum) group down to k weighted
// representatives (deep copies of real input rows). It runs on the flat
// learn kernels: one feature buffer for the whole group, normalized and
// clustered without per-row slice headers.
func compressGroup(rows []Row, members []int, k int, rng *sim.RNG) []Row {
	if len(members) <= k {
		reps := make([]Row, 0, len(members))
		for _, i := range members {
			r := rows[i]
			r.Retain()
			if r.Weight <= 0 {
				r.Weight = 1
			}
			reps = append(reps, r)
		}
		return reps
	}

	// Embed in the admission feature space and normalize per dimension.
	const dims = admission.NumFeatures
	flat := make([]float64, len(members)*dims)
	var fv admission.FeatureVec
	for mi, i := range members {
		r := &rows[i]
		admission.FeaturesFrom(r.EstTimerons, r.EstRows, r.EstMemMB, r.EstIOMB,
			r.Flags&FlagRead != 0, &fv)
		copy(flat[mi*dims:(mi+1)*dims], fv[:])
	}
	norm := learn.NormalizeFlat(flat, len(members), dims)
	km := learn.KMeansFlat(norm, len(members), dims, k, 0, rng) // 0: learn's default iteration cap

	// Snap each centroid onto the nearest real row via the k-d tree, then
	// pour every member's weight into its cluster's representative.
	samples := make([]learn.RegSample, len(members))
	for mi := range members {
		samples[mi] = learn.RegSample{Features: norm[mi*dims : (mi+1)*dims], Value: float64(mi)}
	}
	knn := learn.TrainKNNIndexed(samples, 1)
	repOf := make([]int, km.K()) // cluster -> member index of representative
	for j := range repOf {
		repOf[j] = knn.Nearest(km.Centroid(j))
	}
	repWeight := make([]float64, len(members))
	for mi := range members {
		w := rows[members[mi]].Weight
		if w <= 0 {
			w = 1
		}
		repWeight[repOf[km.Assignments[mi]]] += w
	}
	reps := make([]Row, 0, k)
	for mi := range members {
		if repWeight[mi] <= 0 {
			continue
		}
		r := rows[members[mi]]
		r.Retain()
		r.Weight = repWeight[mi]
		reps = append(reps, r)
	}
	return reps
}
