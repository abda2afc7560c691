package metrics

import (
	"math"
	"sync/atomic"
)

// This file is the concurrent half of the monitoring substrate: the
// histogram the live runtime (internal/rt) records into from its
// admit/release path while monitoring reads it. Each statistic is one
// record. A live counter is a plain atomic.Int64 in its owner's struct; a
// histogram is one ConcurrentHistogram, whose write path is one ownership
// compare-and-swap, plain stores and a release store. A reader holds the
// record the same way and so sees it whole. reference_test.go holds the
// histogram to the per-field-atomic record and the logarithm it replaced.

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

// Concurrent-histogram bucket layout: logarithmic buckets with a fixed growth
// factor, coarser than the sequential Histogram (12% relative error instead
// of 5%) so the whole bucket array fits in ~1KB and can be a fixed array
// updated in place.
const (
	concBase    = 1e-6
	concGrowth  = 1.25
	concBuckets = 128
)

// concLayout is the concurrent histogram's bucket layout. Three mantissa
// bits make a table cell span a ratio of at most 1 + 1/8, less than one
// bucket's 1.25, so a cell holds at most one bucket boundary.
var concLayout = newBucketLayout(concBase, concGrowth, concBuckets, 3)

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

// HistBuckets is the concurrent histogram's bucket count, exported for
// consumers that retain bucket arrays (internal/slo's epoch ring snapshots
// cumulative bucket state and diffs it on read).
const HistBuckets = concBuckets

// histState is everything a ConcurrentHistogram has recorded; min and max
// are meaningful only once count > 0.
type histState struct {
	count    int64
	sum      float64
	min, max float64
	buckets  [concBuckets]int64
}

// ConcurrentHistogram records a distribution of nonnegative values (seconds,
// velocities) from many goroutines at once. The zero value is an empty
// histogram. busy is its ownership word, as in the flight recorder
// (internal/obsv): a writer or reader that swaps it from 0 to 1 owns s until
// it stores 0, and no one touches s otherwise. So a record is one
// compare-and-swap, plain stores and one release store, and a reader sees
// the record whole: its count is exactly the sum of its buckets.
type ConcurrentHistogram struct {
	busy atomic.Uint32
	s    histState
}

// hold claims h. It spins rather than yields: a writer holds the record only
// for its few stores, and a spinning goroutine is still preempted if the
// holder was descheduled mid-record.
//
//dbwlm:hotpath
func (h *ConcurrentHistogram) hold() {
	for !h.busy.CompareAndSwap(0, 1) {
		for h.busy.Load() != 0 {
		}
	}
}

// Record adds a value. Negative and NaN values are clamped to zero, huge
// values to the last bucket — same policy as Histogram.Record.
//
//dbwlm:hotpath
func (h *ConcurrentHistogram) Record(v float64) {
	v = clampSample(v)
	h.hold()
	s := &h.s
	s.sum += v
	if v < s.min || s.count == 0 {
		s.min = v
	}
	if v > s.max || s.count == 0 {
		s.max = v
	}
	s.buckets[concLayout.index(v)]++
	s.count++
	h.busy.Store(0)
}

// read copies the record out under one hold.
//
//dbwlm:hotpath
func (h *ConcurrentHistogram) read() histState {
	h.hold()
	s := h.s
	h.busy.Store(0)
	return s
}

//dbwlm:hotpath
func (s *histState) percentile(p float64) float64 {
	if s.count == 0 {
		return 0
	}
	if p <= 0 {
		return s.min
	}
	if p >= 100 {
		return s.max
	}
	rank := int64(math.Ceil(p / 100 * float64(s.count)))
	var seen int64
	for i, n := range s.buckets {
		seen += n
		if seen >= rank {
			return min(max(concLayout.upper[i], s.min), s.max)
		}
	}
	return s.max
}

// Count reports how many values were recorded: Buckets' count without
// the copy, for readers that need nothing else.
//
//dbwlm:hotpath
func (h *ConcurrentHistogram) Count() int64 {
	h.hold()
	n := h.s.count
	h.busy.Store(0)
	return n
}

// Cumulative walks the bucket array for exposition: f is called once per
// non-empty bucket in ascending upper-bound order with the bucket's
// inclusive upper bound and the running cumulative count — the shape of a
// Prometheus histogram's le series. Returns the total count and sum (the
// _count and _sum samples).
//
//dbwlm:hotpath
func (h *ConcurrentHistogram) Cumulative(f func(upperBound float64, cumulative int64)) (count int64, sum float64) {
	s := h.read()
	var cum int64
	for i, n := range s.buckets {
		if n == 0 {
			continue
		}
		cum += n
		//dbwlm:dyncall -- caller-supplied yield: exposition callers (the prom scrape path) run off the hot path; hot callers are audited at their own roots
		f(concLayout.upper[i], cum)
	}
	return s.count, s.sum
}

// Buckets copies the bucket array into dst (overwriting it) and reports the
// count and sum, all read under one hold: Σ dst == count holds exactly, so
// two calls can be diffed bucket-against-count.
//
//dbwlm:hotpath
func (h *ConcurrentHistogram) Buckets(dst *[HistBuckets]int64) (count int64, sum float64) {
	h.hold()
	*dst = h.s.buckets
	count, sum = h.s.count, h.s.sum
	h.busy.Store(0)
	return count, sum
}

// BucketPercentile reports the p-th percentile upper bound over a raw bucket
// array in the concurrent layout whose counts total to count. It is the
// percentile walk of Snapshot applied to an externally-diffed bucket array
// (a windowed view has no windowed min/max, so the only clamp is the bucket
// upper bound itself). count <= 0 reports 0.
func BucketPercentile(b *[HistBuckets]int64, count int64, p float64) float64 {
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
			return concLayout.upper[i]
		}
	}
	return concLayout.upper[HistBuckets-1]
}

// Snapshot summarizes the record for reporting.
//
//dbwlm:hotpath
func (h *ConcurrentHistogram) Snapshot() Snapshot {
	s := h.read()
	if s.count == 0 {
		return Snapshot{}
	}
	return Snapshot{
		Count: s.count,
		Mean:  s.sum / float64(s.count),
		Min:   s.min,
		Max:   s.max,
		P50:   s.percentile(50),
		P90:   s.percentile(90),
		P95:   s.percentile(95),
		P99:   s.percentile(99),
		Sum:   s.sum,
	}
}
