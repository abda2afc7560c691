// Package metrics is the monitoring substrate for the workload manager. It
// provides the counters, histograms and sliding-window rates that the paper's
// "monitoring" stage exposes (DB2 table functions, SQL Server performance
// counters, Teradata dashboard metrics), and that the feedback-driven
// controllers (throughput admission, PI throttling, MAPE loop) consume. The
// event-monitor half of that stage is the flight recorder in internal/obsv.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"dbwlm/internal/fifo"
	"dbwlm/internal/sim"
)

// Counter is a monotonically nondecreasing count.
type Counter struct {
	n int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds delta (which must be nonnegative) to the counter.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: Counter.Add with negative delta")
	}
	c.n += delta
}

// Value reports the current count.
func (c *Counter) Value() int64 { return c.n }

// Histogram records a distribution of nonnegative values in logarithmic
// buckets (HDR-style), supporting approximate percentiles with bounded
// relative error. The zero value is not usable; call NewHistogram.
type Histogram struct {
	buckets []int64
	count   int64
	sum     float64
	min     float64
	max     float64
}

// The sequential histogram's buckets grow by 5% from 1µ-scale (1e-6): bucket
// i ≥ 1 covers (histBase·histGrowth^(i-1), histBase·histGrowth^i].
const (
	histBase   = 1e-6
	histGrowth = 1.05
)

// histLayout has a bucket for every value up to maxSample: the formula puts
// maxSample in bucket ⌊ln(maxSample/base)/ln(growth)⌋ + 1, the last. Five
// mantissa bits make a table cell span a ratio of at most 1 + 1/32, less
// than one bucket's 1.05.
var histLayout = newBucketLayout(histBase, histGrowth,
	int(math.Log(maxSample/histBase)/math.Log(histGrowth))+2, 5)

// NewHistogram returns a histogram with ~5% relative error per bucket,
// covering values from 1µ-scale (1e-6) upward.
func NewHistogram() *Histogram {
	return &Histogram{
		min: math.Inf(1),
		max: math.Inf(-1),
	}
}

// Record adds a value to the histogram. Negative values are clamped to zero;
// NaN and infinities are clamped to the representable range.
func (h *Histogram) Record(v float64) {
	v = clampSample(v)
	i := histLayout.index(v)
	for len(h.buckets) <= i {
		h.buckets = append(h.buckets, 0)
	}
	h.buckets[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Mean reports the arithmetic mean of recorded values, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max reports the largest recorded value, or 0 when empty.
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Percentile reports the approximate p-th percentile (p in [0, 100]).
// Returns 0 when the histogram is empty.
func (h *Histogram) Percentile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := int64(math.Ceil(p / 100 * float64(h.count)))
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen >= rank {
			u := histLayout.upper[i]
			if u > h.max {
				u = h.max
			}
			if u < h.min {
				u = h.min
			}
			return u
		}
	}
	return h.max
}

// Snapshot summarizes the histogram for reporting.
type Snapshot struct {
	Count          int64
	Mean, Min, Max float64
	P50, P90, P95  float64
	P99            float64
	Sum            float64
}

// String renders the snapshot compactly.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}

// RateWindow measures event throughput over a sliding window of virtual time.
type RateWindow struct {
	window sim.Duration
	// times holds the timestamps inside the window, oldest first. A
	// fifo.Queue, so an expiring timestamp does not move the rest of the
	// window down on every event.
	times fifo.Queue[sim.Time]
}

// NewRateWindow returns a throughput window of the given span.
func NewRateWindow(window sim.Duration) *RateWindow {
	if window <= 0 {
		panic("metrics: NewRateWindow with non-positive window")
	}
	return &RateWindow{window: window}
}

// Observe records one event at time t.
func (w *RateWindow) Observe(t sim.Time) {
	w.times.Push(t)
	w.trim(t)
}

// trim drops events older than the window.
func (w *RateWindow) trim(now sim.Time) {
	cutoff := now.Add(-w.window)
	times := w.times.Items()
	w.times.Drop(sort.Search(len(times), func(i int) bool { return times[i] > cutoff }))
}

// Rate reports events per second over the window ending at now.
func (w *RateWindow) Rate(now sim.Time) float64 {
	w.trim(now)
	return float64(w.times.Len()) / w.window.Seconds()
}
