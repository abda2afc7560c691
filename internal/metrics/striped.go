package metrics

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
)

// This file is the concurrent half of the monitoring substrate: striped
// counters and histograms whose write path is a single atomic RMW on a
// cache-line-padded shard, so statistics collection never serializes the
// admit/release hot path of the live runtime (internal/rt). Reads merge the
// shards. The merge is not a point-in-time snapshot across shards — each
// shard's contribution is exact at the instant it is read, and all counters
// are monotone, so a merged value is bounded by the true value at the start
// and end of the read. The property test in striped_test.go checks that a
// sharded merge equals an unsharded reference fed the same values.

// stripeShards picks a shard count for this process: the next power of two at
// or above 2×GOMAXPROCS, so that randomly-distributed writers rarely collide
// on a shard even when every P is writing.
func stripeShards() int {
	n := 2 * runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 2
	}
	return 1 << bits.Len(uint(n-1))
}

// StripeIdx selects a shard for one write, for this package's striped
// recorders and for internal/rt's striped gates and qid allocator. Go does
// not expose the current P, so the next-best allocation-free selector is the
// runtime's per-thread fast random state (math/rand/v2's global functions):
// writers spread uniformly across shards, which bounds the expected collision
// rate at writers/shards per instant.
//
//dbwlm:hotpath
func StripeIdx(mask uint32) uint32 { return rand.Uint32() & mask }

// counterShard is one padded counter cell. The padding keeps two shards from
// sharing a cache line (64B line; 128B guards against adjacent-line
// prefetching).
type counterShard struct {
	v atomic.Int64
	_ [120]byte
}

// StripedCounter is a monotone counter whose Inc/Add path is one atomic add
// on a padded shard. Value merges the shards.
type StripedCounter struct {
	shards []counterShard
	mask   uint32
}

// NewStripedCounter returns a counter with the given shard count (rounded up
// to a power of two; <= 0 selects a size from GOMAXPROCS).
func NewStripedCounter(shards int) *StripedCounter {
	n := normalizeShards(shards)
	return &StripedCounter{shards: make([]counterShard, n), mask: uint32(n - 1)}
}

// Inc adds one.
//
//dbwlm:hotpath
func (c *StripedCounter) Inc() { c.shards[StripeIdx(c.mask)].v.Add(1) }

// Add adds delta (which must be nonnegative; merged reads assume monotony).
//
//dbwlm:hotpath
func (c *StripedCounter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: StripedCounter.Add with negative delta")
	}
	c.shards[StripeIdx(c.mask)].v.Add(delta)
}

// Value merges the shards.
//
//dbwlm:hotpath
func (c *StripedCounter) Value() int64 {
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// AtomicGauge is an instantaneous float64 readable and writable without
// locks — the live runtime's externally-fed load indicators (memory pressure,
// conflict ratio) use it.
type AtomicGauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
//
//dbwlm:hotpath
func (g *AtomicGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reports the current gauge value.
//
//dbwlm:hotpath
func (g *AtomicGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Striped-histogram bucket layout: logarithmic buckets with a fixed growth
// factor, coarser than the sequential Histogram (12% relative error instead
// of 5%) so the whole bucket array fits in ~1KB per shard and can be a fixed
// array updated with plain atomic adds.
const (
	stripedBase    = 1e-6
	stripedGrowth  = 1.25
	stripedBuckets = 128
)

var stripedLogG = math.Log(stripedGrowth)

//dbwlm:hotpath
func stripedBucketIndex(v float64) int {
	if v <= stripedBase {
		return 0
	}
	i := int(math.Log(v/stripedBase)/stripedLogG) + 1
	if i >= stripedBuckets {
		return stripedBuckets - 1
	}
	return i
}

//dbwlm:hotpath
func stripedBucketUpper(i int) float64 {
	if i == 0 {
		return stripedBase
	}
	return stripedBase * math.Pow(stripedGrowth, float64(i))
}

// histShard is one shard of a StripedHistogram. Each field is updated with an
// atomic RMW; sum/min/max use CAS loops on the float bit patterns. Shards are
// large (≫ one cache line), so only bucket arrays of adjacent shards can
// share a boundary line — negligible next to the padding cost of padding
// every bucket.
type histShard struct {
	buckets [stripedBuckets]atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // +Inf until first record
	maxBits atomic.Uint64 // -Inf until first record
	_       [64]byte
}

// record publishes v's sum/min/max contribution before its bucket and its
// bucket before its count (Go atomics are sequentially consistent), so a
// reader that loads count, then buckets, then sum/min/max sees the full
// contribution of every record it counted: count > 0 implies a bucket is
// set, and a counted bucket implies sum, min and max already include it.
//
//dbwlm:hotpath
func (s *histShard) record(v float64) {
	for {
		old := s.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if s.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := s.minBits.Load()
		if v >= math.Float64frombits(old) {
			break
		}
		if s.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := s.maxBits.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if s.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	s.buckets[stripedBucketIndex(v)].Add(1)
	s.count.Add(1)
}

// StripedHistogram records a distribution of nonnegative values (seconds,
// velocities) from many goroutines at once: the write path touches one shard,
// the read path merges all shards into a Snapshot.
type StripedHistogram struct {
	shards []histShard
	mask   uint32
}

// NewStripedHistogram returns a histogram with the given shard count (rounded
// up to a power of two; <= 0 selects a size from GOMAXPROCS).
func NewStripedHistogram(shards int) *StripedHistogram {
	n := normalizeShards(shards)
	h := &StripedHistogram{shards: make([]histShard, n), mask: uint32(n - 1)}
	for i := range h.shards {
		h.shards[i].minBits.Store(math.Float64bits(math.Inf(1)))
		h.shards[i].maxBits.Store(math.Float64bits(math.Inf(-1)))
	}
	return h
}

// Record adds a value. Negative and NaN values are clamped to zero, huge
// values to the last bucket — same policy as Histogram.Record.
//
//dbwlm:hotpath
func (h *StripedHistogram) Record(v float64) {
	if math.IsNaN(v) || v < 0 {
		v = 0
	}
	const maxValue = 1e18
	if v > maxValue {
		v = maxValue
	}
	h.shards[StripeIdx(h.mask)].record(v)
}

// merged is the shard-merged state of a striped histogram at read time.
// Invariant of every merged view (merge, MergeBuckets, and everything built
// on them): Σ buckets == count. A shard's count is not read from its counter
// but derived from the bucket values the merge actually loaded, so a Record
// landing mid-walk can never leave the +Inf bucket and the count from
// different instants. sum/min/max are loaded after the buckets, so they
// cover every counted record (histShard.record publishes them first) and
// may run ahead of count by records still in flight.
type merged struct {
	buckets  [stripedBuckets]int64
	count    int64
	sum      float64
	min, max float64
}

//dbwlm:hotpath
func (h *StripedHistogram) merge() merged {
	m := merged{min: math.Inf(1), max: math.Inf(-1)}
	m.count, m.sum = h.MergeBuckets(&m.buckets)
	for i := range h.shards {
		s := &h.shards[i]
		// An idle shard still holds its ±Inf sentinels, which lose every
		// comparison.
		if v := math.Float64frombits(s.minBits.Load()); v < m.min {
			m.min = v
		}
		if v := math.Float64frombits(s.maxBits.Load()); v > m.max {
			m.max = v
		}
	}
	return m
}

//dbwlm:hotpath
func (m *merged) percentile(p float64) float64 {
	if m.count == 0 {
		return 0
	}
	if p <= 0 {
		return m.min
	}
	if p >= 100 {
		return m.max
	}
	rank := int64(math.Ceil(p / 100 * float64(m.count)))
	var seen int64
	for i, n := range m.buckets {
		seen += n
		if seen >= rank {
			u := stripedBucketUpper(i)
			if u > m.max {
				u = m.max
			}
			if u < m.min {
				u = m.min
			}
			return u
		}
	}
	return m.max
}

// Count reports the merged number of recorded values.
//
//dbwlm:hotpath
func (h *StripedHistogram) Count() int64 {
	var sum int64
	for i := range h.shards {
		sum += h.shards[i].count.Load()
	}
	return sum
}

// Mean reports the merged arithmetic mean, or 0 when empty.
//
//dbwlm:hotpath
func (h *StripedHistogram) Mean() float64 {
	m := h.merge()
	if m.count == 0 {
		return 0
	}
	return m.sum / float64(m.count)
}

// Sum reports the merged sum of recorded values. Striping randomizes which
// shard each value lands in, so the floating-point association order — and
// with it the last ulp of the result — varies between runs; byte-stable
// consumers (golden tests) must record values whose sums are exact in any
// order.
//
//dbwlm:hotpath
func (h *StripedHistogram) Sum() float64 {
	var sum float64
	for i := range h.shards {
		s := &h.shards[i]
		if s.count.Load() == 0 {
			continue
		}
		sum += math.Float64frombits(s.sumBits.Load())
	}
	return sum
}

// Cumulative walks the merged bucket array for exposition: f is called once
// per non-empty bucket in ascending upper-bound order with the bucket's
// inclusive upper bound and the running cumulative count — the shape of a
// Prometheus histogram's le series. Returns the merged total count and sum
// (the _count and _sum samples).
//
//dbwlm:hotpath
func (h *StripedHistogram) Cumulative(f func(upperBound float64, cumulative int64)) (count int64, sum float64) {
	m := h.merge()
	var cum int64
	for i, n := range m.buckets {
		if n == 0 {
			continue
		}
		cum += n
		//dbwlm:dyncall -- caller-supplied yield: exposition callers (the prom scrape path) run off the hot path; hot callers are audited at their own roots
		f(stripedBucketUpper(i), cum)
	}
	return m.count, m.sum
}

// StripedBuckets is the striped-histogram bucket count, exported for
// consumers that retain merged bucket arrays (internal/slo's epoch ring
// snapshots cumulative bucket state and diffs it on read).
const StripedBuckets = stripedBuckets

// MergeBuckets merges the shards' bucket arrays into dst (overwriting it)
// and reports the merged count and sum. Like every merged read, each shard's
// contribution is exact at the instant it is read and all counters are
// monotone, so the result is bounded by the true state at the start and end
// of the call; count is derived from the loaded buckets, so Σ dst == count
// holds exactly and two calls can be diffed bucket-against-count.
//
//dbwlm:hotpath
func (h *StripedHistogram) MergeBuckets(dst *[StripedBuckets]int64) (count int64, sum float64) {
	*dst = [StripedBuckets]int64{}
	for i := range h.shards {
		s := &h.shards[i]
		if s.count.Load() == 0 {
			// Idle shard: nothing recorded, so its buckets and sum are at
			// their zero state and the bucket walk can be skipped — most
			// shards of most histograms in a Snapshot are empty. A Record
			// racing the load is deferred to the next merge.
			continue
		}
		for b := range s.buckets {
			n := s.buckets[b].Load()
			dst[b] += n
			count += n
		}
		sum += math.Float64frombits(s.sumBits.Load())
	}
	return count, sum
}

// BucketPercentile reports the p-th percentile upper bound over a raw bucket
// array in the striped layout whose counts total to count. It is the
// percentile walk of Snapshot applied to an externally-diffed bucket array
// (a windowed view has no windowed min/max, so the only clamp is the bucket
// upper bound itself). count <= 0 reports 0.
func BucketPercentile(b *[StripedBuckets]int64, count int64, p float64) float64 {
	if count <= 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := int64(math.Ceil(p / 100 * float64(count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range b {
		seen += n
		if seen >= rank {
			return stripedBucketUpper(i)
		}
	}
	return stripedBucketUpper(StripedBuckets - 1)
}

// Snapshot merges the shards into a reporting summary.
//
//dbwlm:hotpath
func (h *StripedHistogram) Snapshot() Snapshot {
	m := h.merge()
	if m.count == 0 {
		return Snapshot{}
	}
	return Snapshot{
		Count: m.count,
		Mean:  m.sum / float64(m.count),
		Min:   m.min,
		Max:   m.max,
		P50:   m.percentile(50),
		P90:   m.percentile(90),
		P95:   m.percentile(95),
		P99:   m.percentile(99),
		Sum:   m.sum,
	}
}

func normalizeShards(n int) int {
	if n <= 0 {
		return stripeShards()
	}
	return 1 << bits.Len(uint(n-1))
}
