package metrics

import (
	"math"
	"sync"
	"testing"

	"dbwlm/internal/sim"
)

// TestStripedCounterMergeEqualsReference: concurrent sharded increments merge
// to the exact total.
func TestStripedCounterMergeEqualsReference(t *testing.T) {
	c := NewStripedCounter(8)
	const workers, per = 64, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("merged counter = %d, want %d", got, workers*per)
	}
}

// TestStripedHistogramMergeEqualsUnsharded is the shard-merge property test:
// the same value stream fed to an 8-shard histogram and a 1-shard reference
// must merge to identical bucket-level state — identical count, min, max, and
// every percentile, and the same sum up to floating-point association.
func TestStripedHistogramMergeEqualsUnsharded(t *testing.T) {
	sharded := NewStripedHistogram(8)
	reference := NewStripedHistogram(1)
	rng := sim.NewRNG(7)
	var values []float64
	for i := 0; i < 5000; i++ {
		values = append(values, rng.LogNormal(math.Log(0.05), 1.5))
	}
	for _, v := range values {
		sharded.Record(v)
		reference.Record(v)
	}
	ss, rs := sharded.Snapshot(), reference.Snapshot()
	if ss.Count != rs.Count || ss.Min != rs.Min || ss.Max != rs.Max {
		t.Fatalf("count/min/max diverge: sharded %+v reference %+v", ss, rs)
	}
	for _, p := range []float64{0, 10, 50, 90, 95, 99, 100} {
		if sp, rp := percentileOf(sharded, p), percentileOf(reference, p); sp != rp {
			t.Fatalf("p%.0f diverges: sharded %v reference %v", p, sp, rp)
		}
	}
	if diff := math.Abs(ss.Sum - rs.Sum); diff > 1e-9*math.Abs(rs.Sum) {
		t.Fatalf("sum diverges beyond association error: %v vs %v", ss.Sum, rs.Sum)
	}
	if ss.Count != int64(len(values)) {
		t.Fatalf("count = %d, want %d", ss.Count, len(values))
	}
}

func percentileOf(h *StripedHistogram, p float64) float64 {
	m := h.merge()
	return m.percentile(p)
}

// TestStripedHistogramConcurrent: a concurrent feed loses nothing and keeps
// exact count/min/max and associative-tolerant sum.
func TestStripedHistogramConcurrent(t *testing.T) {
	h := NewStripedHistogram(0)
	const workers, per = 32, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(float64(w*per+i+1) * 1e-4)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	if s.Min != 1e-4 {
		t.Fatalf("min = %v, want 1e-4", s.Min)
	}
	if want := float64(workers*per) * 1e-4; s.Max != want {
		t.Fatalf("max = %v, want %v", s.Max, want)
	}
	n := float64(workers * per)
	exact := 1e-4 * n * (n + 1) / 2
	if diff := math.Abs(s.Sum - exact); diff > 1e-7*exact {
		t.Fatalf("sum = %v, want ~%v", s.Sum, exact)
	}
}

// TestStripedHistogramMergeOnRead reads every merged view (Cumulative,
// MergeBuckets, Count, Snapshot — the /metrics exposition path and the SLO
// windows) continuously while writers are still recording: each mid-flight
// read must be internally consistent (cumulative counts monotone, terminal
// and Σ buckets equal to the merged count), no read may count fewer records
// than the read before it, and the final merge must equal the sum of the
// per-writer counts exactly. Runs under -race in the `make race` target.
func TestStripedHistogramMergeOnRead(t *testing.T) {
	h := NewStripedHistogram(0)
	const writers, per = 16, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		var prev int64
		seen := func(view string, n int64) {
			if n < prev {
				t.Errorf("%s counted %d records after a read counted %d", view, n, prev)
			}
			prev = n
		}
		var buckets [StripedBuckets]int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			var last int64
			count, sum := h.Cumulative(func(upper float64, cum int64) {
				if cum < last {
					t.Errorf("cumulative went backwards: %d after %d at le=%g", cum, last, upper)
				}
				last = cum
			})
			if last != count {
				t.Errorf("last bucket %d differs from merged count %d", last, count)
			}
			if count > 0 && sum <= 0 {
				t.Errorf("merged count %d with sum %v", count, sum)
			}
			seen("Cumulative", count)
			count, _ = h.MergeBuckets(&buckets)
			var total int64
			for _, n := range buckets {
				total += n
			}
			if total != count {
				t.Errorf("MergeBuckets: Σ buckets %d, count %d", total, count)
			}
			seen("MergeBuckets", count)
			seen("Count", h.Count())
			seen("Snapshot", h.Snapshot().Count)
		}
	}()
	perWriter := make([]int64, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(float64(i%97+1) * 1e-3)
				perWriter[w]++
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	var want int64
	for _, n := range perWriter {
		want += n
	}
	count, sum := h.Cumulative(func(float64, int64) {})
	if count != want || h.Count() != want {
		t.Fatalf("merged count %d, Count %d, want sum of per-writer counts %d", count, h.Count(), want)
	}
	if s := h.Snapshot(); s.Count != want || math.Abs(sum-s.Sum) > 1e-9*s.Sum {
		t.Fatalf("Cumulative (%d, %v) disagrees with Snapshot (%d, %v)", count, sum, s.Count, s.Sum)
	}
}

// BenchmarkStripedRecordAt prices one latency sample at live service times
// (100–300 µs, the table path); the admit+done benchmarks of internal/rt
// record sub-microsecond elapsed times, which all land in bucket 0.
func BenchmarkStripedRecordAt(b *testing.B) {
	h := NewStripedHistogram(0)
	var vals [256]float64
	for i := range vals {
		vals[i] = 100e-6 + 200e-6*float64(i)/float64(len(vals))
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.RecordAt(StripeIdx(), vals[i&255])
			i++
		}
	})
}

// TestStripedHistogramClamping mirrors Histogram.Record's input policy.
func TestStripedHistogramClamping(t *testing.T) {
	h := NewStripedHistogram(2)
	h.Record(math.NaN())
	h.Record(-5)
	h.Record(1e30)
	s := h.Snapshot()
	if s.Count != 3 || s.Min != 0 || s.Max != 1e18 {
		t.Fatalf("clamping broke: %+v", s)
	}
}

func TestAtomicGauge(t *testing.T) {
	var g AtomicGauge
	if g.Value() != 0 {
		t.Fatal("zero gauge not 0")
	}
	g.Set(1.25)
	if g.Value() != 1.25 {
		t.Fatalf("gauge = %v", g.Value())
	}
}
