package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"dbwlm/internal/sim"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	c.Add(-1)
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Percentile(50) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Record(float64(i))
	}
	if h.count != 100 {
		t.Fatalf("count = %d", h.count)
	}
	if math.Abs(h.Mean()-50.5) > 1e-9 {
		t.Fatalf("mean = %v, want 50.5", h.Mean())
	}
	if h.min != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %v/%v", h.min, h.Max())
	}
	p50 := h.Percentile(50)
	if p50 < 45 || p50 > 56 {
		t.Fatalf("p50 = %v, want ~50 within bucket error", p50)
	}
	p95 := h.Percentile(95)
	if p95 < 90 || p95 > 101 {
		t.Fatalf("p95 = %v, want ~95", p95)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.min != 0 || h.Max() != 0 {
		t.Fatalf("negative value not clamped: min=%v max=%v", h.min, h.Max())
	}
}

func TestHistogramPercentileMonotonic(t *testing.T) {
	// Property: percentiles are nondecreasing in p, and bounded by [min, max].
	f := func(vals []float64) bool {
		h := NewHistogram()
		for _, v := range vals {
			h.Record(math.Abs(v))
		}
		if h.count == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			q := h.Percentile(p)
			if q < prev {
				return false
			}
			if q < h.min-1e-9 || q > h.Max()+1e-9 {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramRelativeError(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 10000; i++ {
		h.Record(1.0)
	}
	p := h.Percentile(99)
	if p < 0.9 || p > 1.1 {
		t.Fatalf("p99 of constant 1.0 = %v, want within 10%%", p)
	}
}

func TestSnapshotString(t *testing.T) {
	var h ConcurrentHistogram
	h.Record(1)
	h.Record(2)
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("snapshot count = %d", s.Count)
	}
	if s.String() == "" {
		t.Fatal("empty snapshot string")
	}
}

func TestRateWindow(t *testing.T) {
	w := NewRateWindow(10 * sim.Second)
	for i := 0; i < 50; i++ {
		w.Observe(sim.Time(i) * sim.Time(sim.Second) / 5) // 5/s for 10s
	}
	rate := w.Rate(sim.Time(10 * sim.Second))
	if math.Abs(rate-5.0) > 0.3 {
		t.Fatalf("rate = %v, want ~5/s", rate)
	}
	// After a long quiet period the rate decays to zero.
	if got := w.Rate(sim.Time(100 * sim.Second)); got != 0 {
		t.Fatalf("stale rate = %v, want 0", got)
	}
}

func TestRateWindowCount(t *testing.T) {
	w := NewRateWindow(sim.Second)
	w.Observe(0)
	w.Observe(sim.Time(500 * sim.Millisecond))
	if got := w.Rate(sim.Time(600 * sim.Millisecond)); got != 2 {
		t.Fatalf("rate = %v, want 2 events in the 1s window", got)
	}
	if got := w.Rate(sim.Time(1400 * sim.Millisecond)); got != 1 {
		t.Fatalf("rate after expiry = %v, want 1", got)
	}
}

func TestWorkloadStats(t *testing.T) {
	s := NewWorkloadStats()
	s.ObserveArrival(0)
	s.ObserveCompletion(sim.Time(2*sim.Second), 2*sim.Second, 1*sim.Second, 0.5)
	s.ObserveCompletion(sim.Time(4*sim.Second), 1*sim.Second, 0, 1.0)
	if s.Completed.Value() != 2 {
		t.Fatalf("completed = %d", s.Completed.Value())
	}
	thr := s.OverallThroughput()
	if math.Abs(thr-0.5) > 1e-9 {
		t.Fatalf("overall throughput = %v, want 0.5", thr)
	}
	if math.Abs(s.MeanVelocity()-0.75) > 1e-9 {
		t.Fatalf("mean velocity = %v, want 0.75", s.MeanVelocity())
	}
}

func TestWorkloadStatsEmptyThroughput(t *testing.T) {
	s := NewWorkloadStats()
	if s.OverallThroughput() != 0 {
		t.Fatal("empty stats should report zero throughput")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	a := r.Workload("bi")
	b := r.Workload("bi")
	if a != b {
		t.Fatal("Workload not idempotent")
	}
	r.Workload("oltp")
	names := r.Names()
	if len(names) != 2 || names[0] != "bi" || names[1] != "oltp" {
		t.Fatalf("names = %v", names)
	}
	if r.Report() == "" {
		t.Fatal("empty report")
	}
}
