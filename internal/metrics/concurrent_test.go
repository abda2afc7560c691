package metrics

import (
	"math"
	"sync"
	"testing"
)

// TestStripedHistogramConcurrent: a concurrent feed into the one record loses
// nothing and keeps exact count/min/max and associative-tolerant sum.
func TestStripedHistogramConcurrent(t *testing.T) {
	var h ConcurrentHistogram
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

// TestStripedHistogramMergeOnRead reads every view of a ConcurrentHistogram
// (Cumulative, Buckets, Count, Snapshot — the /metrics exposition path and
// the SLO windows) continuously while writers are still recording: each
// mid-flight read must be internally consistent (cumulative counts monotone,
// terminal and Σ buckets equal to the count), no read may count fewer
// records than the read before it, and the final read must equal the sum of
// the per-writer counts exactly. Runs under -race in the `make race` target.
func TestStripedHistogramMergeOnRead(t *testing.T) {
	var h ConcurrentHistogram
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
		var buckets [HistBuckets]int64
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
				t.Errorf("last bucket %d differs from count %d", last, count)
			}
			if count > 0 && sum <= 0 {
				t.Errorf("count %d with sum %v", count, sum)
			}
			seen("Cumulative", count)
			count, _ = h.Buckets(&buckets)
			var total int64
			for _, n := range buckets {
				total += n
			}
			if total != count {
				t.Errorf("Buckets: Σ buckets %d, count %d", total, count)
			}
			seen("Buckets", count)
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
		t.Fatalf("cumulative count %d, Count %d, want sum of per-writer counts %d", count, h.Count(), want)
	}
	if s := h.Snapshot(); s.Count != want || math.Abs(sum-s.Sum) > 1e-9*s.Sum {
		t.Fatalf("Cumulative (%d, %v) disagrees with Snapshot (%d, %v)", count, sum, s.Count, s.Sum)
	}
}

// BenchmarkConcurrentRecord prices one latency sample at live service times
// (100–300 µs, the table path); the admit+done benchmarks of internal/rt
// record sub-microsecond elapsed times, which all land in bucket 0. With
// -cpu above 1 the writers contend for the one record.
func BenchmarkConcurrentRecord(b *testing.B) {
	var h ConcurrentHistogram
	var vals [256]float64
	for i := range vals {
		vals[i] = 100e-6 + 200e-6*float64(i)/float64(len(vals))
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Record(vals[i&255])
			i++
		}
	})
}

// TestStripedHistogramClamping mirrors Histogram.Record's input policy.
func TestStripedHistogramClamping(t *testing.T) {
	var h ConcurrentHistogram
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
