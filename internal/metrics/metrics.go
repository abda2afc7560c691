// Package metrics is the monitoring substrate for the workload manager. It
// provides the counters, histograms, sliding-window rates, and event monitors
// that the paper's "monitoring" stage exposes (DB2 table functions and event
// monitors, SQL Server performance counters, Teradata dashboard metrics), and
// that the feedback-driven controllers (throughput admission, PI throttling,
// MAPE loop) consume.
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

// Gauge is an instantaneous value.
type Gauge struct {
	v float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add adjusts the gauge value by delta.
func (g *Gauge) Add(delta float64) { g.v += delta }

// Value reports the current gauge value.
func (g *Gauge) Value() float64 { return g.v }

// Histogram records a distribution of nonnegative values in logarithmic
// buckets (HDR-style), supporting approximate percentiles with bounded
// relative error. The zero value is not usable; call NewHistogram.
type Histogram struct {
	buckets []int64
	count   int64
	sum     float64
	min     float64
	max     float64
	// growth is the per-bucket growth factor; bucket i covers
	// [base*growth^i, base*growth^(i+1)).
	base   float64
	growth float64
	logG   float64
}

// NewHistogram returns a histogram with ~5% relative error per bucket,
// covering values from 1µ-scale (1e-6) upward.
func NewHistogram() *Histogram {
	g := 1.05
	return &Histogram{
		base:   1e-6,
		growth: g,
		logG:   math.Log(g),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

func (h *Histogram) bucketIndex(v float64) int {
	if v <= h.base {
		return 0
	}
	return int(math.Log(v/h.base)/h.logG) + 1
}

func (h *Histogram) bucketUpper(i int) float64 {
	if i == 0 {
		return h.base
	}
	return h.base * math.Pow(h.growth, float64(i))
}

// Record adds a value to the histogram. Negative values are clamped to zero;
// NaN and infinities are clamped to the representable range.
func (h *Histogram) Record(v float64) {
	if math.IsNaN(v) || v < 0 {
		v = 0
	}
	const maxValue = 1e18
	if v > maxValue {
		v = maxValue
	}
	i := h.bucketIndex(v)
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

// Count reports the number of recorded values.
func (h *Histogram) Count() int64 { return h.count }

// Mean reports the arithmetic mean of recorded values, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Sum reports the sum of recorded values.
func (h *Histogram) Sum() float64 { return h.sum }

// Min reports the smallest recorded value, or 0 when empty.
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
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
			u := h.bucketUpper(i)
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

// Snapshot computes a reporting summary.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.count, Mean: h.Mean(), Min: h.Min(), Max: h.Max(),
		P50: h.Percentile(50), P90: h.Percentile(90),
		P95: h.Percentile(95), P99: h.Percentile(99), Sum: h.sum,
	}
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

// Count reports the number of events currently inside the window ending at now.
func (w *RateWindow) Count(now sim.Time) int {
	w.trim(now)
	return w.times.Len()
}

// EWMA is an exponentially weighted moving average over irregular samples.
type EWMA struct {
	alpha float64
	v     float64
	init  bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("metrics: NewEWMA alpha out of (0,1]")
	}
	return &EWMA{alpha: alpha}
}

// Observe folds a sample into the average.
func (e *EWMA) Observe(v float64) {
	if !e.init {
		e.v = v
		e.init = true
		return
	}
	e.v = e.alpha*v + (1-e.alpha)*e.v
}

// Value reports the current average (0 before any sample).
func (e *EWMA) Value() float64 { return e.v }

// Initialized reports whether at least one sample has been observed.
func (e *EWMA) Initialized() bool { return e.init }
