package metrics

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
)

// This file is the concurrent half of the monitoring substrate: striped
// counters and histograms whose write path touches one cache-line-padded
// shard — a counter with one atomic add, a histogram with one ownership
// compare-and-swap and a release store — so statistics collection never
// serializes the admit/release hot path of the live runtime (internal/rt).
// Reads merge the shards. The merge is not a point-in-time snapshot across shards — each
// shard's contribution is exact at the instant it is read, and all counters
// are monotone, so a merged value is bounded by the true value at the start
// and end of the read. The property test in striped_test.go checks that a
// sharded merge equals an unsharded reference fed the same values, and
// reference_test.go holds the histogram to the per-field-atomic shard and the
// logarithm it replaced.

// StripeShards normalizes a requested shard count for this package's striped
// recorders and for internal/rt's admission-ID allocator: n rounds up to a
// power of two, and n <= 0 selects the next power of two at or above
// 2×GOMAXPROCS, so that randomly-distributed writers rarely collide on a
// shard even when every P is writing.
func StripeShards(n int) int {
	if n <= 0 {
		n = max(2*runtime.GOMAXPROCS(0), 2)
	}
	return 1 << bits.Len(uint(n-1))
}

// StripeIdx draws a stripe: the shard selector for one decision's writes,
// for this package's striped recorders and for internal/rt's qid allocator.
// Go does not expose the current P, so the next-best allocation-free
// selector is the runtime's per-thread fast random state (math/rand/v2's
// global functions): writers spread uniformly across shards, which bounds
// the expected collision rate at writers/shards per instant. A caller that
// writes several striped structures for one decision draws once and hands
// the stripe to their At forms (IncAt, RecordAt), which mask it by their own
// shard counts.
//
//dbwlm:hotpath
func StripeIdx() uint32 { return rand.Uint32() }

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
	n := StripeShards(shards)
	return &StripedCounter{shards: make([]counterShard, n), mask: uint32(n - 1)}
}

// Inc adds one.
//
//dbwlm:hotpath
func (c *StripedCounter) Inc() { c.IncAt(StripeIdx()) }

// IncAt adds one on the shard stripe selects (masked by the shard count).
//
//dbwlm:hotpath
func (c *StripedCounter) IncAt(stripe uint32) { c.shards[stripe&c.mask].v.Add(1) }

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
// array updated in place.
const (
	stripedBase    = 1e-6
	stripedGrowth  = 1.25
	stripedBuckets = 128
)

// stripedLayout is the striped histograms' bucket layout. Three mantissa
// bits make a table cell span a ratio of at most 1 + 1/8, less than one
// bucket's 1.25, so a cell holds at most one bucket boundary.
var stripedLayout = newBucketLayout(stripedBase, stripedGrowth, stripedBuckets, 3)

// maxSample is the largest value a histogram records; larger ones are
// clamped to it.
const maxSample = 1e18

// clampSample applies both histograms' input policy: negative and NaN values
// become zero, values above maxSample become maxSample.
//
//dbwlm:hotpath
func clampSample(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	return min(v, maxSample)
}

// histShard is one shard of a StripedHistogram. busy is the shard's
// ownership word, as in the flight recorder (internal/obsv): a writer or
// reader that swaps it from 0 to 1 owns every other field until it stores 0,
// and no one touches them otherwise. So a record is one compare-and-swap,
// plain stores and one release store, and a reader sees each shard whole:
// its count is exactly the sum of its buckets. The trailing padding keeps a
// shard's busy word off the cache line of the previous shard's last buckets.
type histShard struct {
	busy     atomic.Uint32
	count    int64
	sum      float64
	min, max float64 // ±Inf until first record
	buckets  [stripedBuckets]int64
	_        [88]byte
}

// hold claims s for a reader. It spins rather than yields: a writer holds a
// shard only for its few stores, and a spinning goroutine is still preempted
// if the writer was descheduled mid-record.
//
//dbwlm:hotpath
func (s *histShard) hold() {
	for s.busy.Load() != 0 || !s.busy.CompareAndSwap(0, 1) {
	}
}

// StripedHistogram records a distribution of nonnegative values (seconds,
// velocities) from many goroutines at once: the write path owns one shard
// for a moment, the read path merges all shards into a Snapshot.
type StripedHistogram struct {
	shards []histShard
	mask   uint32
}

// NewStripedHistogram returns a histogram with the given shard count (rounded
// up to a power of two; <= 0 selects a size from GOMAXPROCS).
func NewStripedHistogram(shards int) *StripedHistogram {
	n := StripeShards(shards)
	h := &StripedHistogram{shards: make([]histShard, n), mask: uint32(n - 1)}
	for i := range h.shards {
		h.shards[i].min = math.Inf(1)
		h.shards[i].max = math.Inf(-1)
	}
	return h
}

// Record adds a value. Negative and NaN values are clamped to zero, huge
// values to the last bucket — same policy as Histogram.Record.
//
//dbwlm:hotpath
func (h *StripedHistogram) Record(v float64) { h.RecordAt(StripeIdx(), v) }

// RecordAt is Record on the shard stripe selects (masked by the shard
// count). If that shard is held, the value goes to the next free one.
//
//dbwlm:hotpath
func (h *StripedHistogram) RecordAt(stripe uint32, v float64) {
	v = clampSample(v)
	s := &h.shards[stripe&h.mask]
	if !s.busy.CompareAndSwap(0, 1) {
		s = h.probe(stripe)
	}
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.buckets[stripedLayout.index(v)]++
	s.count++
	s.busy.Store(0)
}

// probe claims the first free shard after stripe's, which was found held.
// It spins without parking, so it waits only while every shard is held.
//
//dbwlm:hotpath
func (h *StripedHistogram) probe(stripe uint32) *histShard {
	for i := stripe + 1; ; i++ {
		s := &h.shards[i&h.mask]
		if s.busy.Load() == 0 && s.busy.CompareAndSwap(0, 1) {
			return s
		}
	}
}

// merged is the shard-merged state of a striped histogram at read time.
type merged struct {
	buckets  [stripedBuckets]int64
	count    int64
	sum      float64
	min, max float64
}

// merge adds up the shards, holding each while it reads it. Each shard's
// contribution is exact at the instant it is read and every shard only
// grows, so the result is bounded by the true state at the start and end of
// the call, and Σ buckets == count holds exactly.
//
//dbwlm:hotpath
func (h *StripedHistogram) merge() merged {
	m := merged{min: math.Inf(1), max: math.Inf(-1)}
	for i := range h.shards {
		s := &h.shards[i]
		s.hold()
		if s.count > 0 {
			for b, n := range s.buckets {
				m.buckets[b] += n
			}
			m.count += s.count
			m.sum += s.sum
			if s.min < m.min {
				m.min = s.min
			}
			if s.max > m.max {
				m.max = s.max
			}
		}
		s.busy.Store(0)
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
			u := stripedLayout.upper[i]
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

// Count merges the shards' record counts: MergeBuckets' count without the
// bucket walk, for readers that need only how many values were recorded.
//
//dbwlm:hotpath
func (h *StripedHistogram) Count() int64 {
	var n int64
	for i := range h.shards {
		s := &h.shards[i]
		s.hold()
		n += s.count
		s.busy.Store(0)
	}
	return n
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
		f(stripedLayout.upper[i], cum)
	}
	return m.count, m.sum
}

// StripedBuckets is the striped-histogram bucket count, exported for
// consumers that retain merged bucket arrays (internal/slo's epoch ring
// snapshots cumulative bucket state and diffs it on read).
const StripedBuckets = stripedBuckets

// MergeBuckets merges the shards' bucket arrays into dst (overwriting it)
// and reports the merged count and sum. Like every merged read, each shard's
// contribution is exact at the instant it is read and every shard only
// grows, so the result is bounded by the true state at the start and end of
// the call; Σ dst == count holds exactly, so two calls can be diffed
// bucket-against-count.
//
//dbwlm:hotpath
func (h *StripedHistogram) MergeBuckets(dst *[StripedBuckets]int64) (count int64, sum float64) {
	m := h.merge()
	*dst = m.buckets
	return m.count, m.sum
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
			return stripedLayout.upper[i]
		}
	}
	return stripedLayout.upper[StripedBuckets-1]
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
