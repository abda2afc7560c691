package bench

import (
	"math"
	"testing"
)

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	// 1000 samples: p99 is rank 990, exactly 10 beyond it.
	v, ok := Percentile(ascending(1000), 99)
	if v != 990 || !ok {
		t.Fatalf("p99 of 1..1000 = %v, ok %v; want 990, true", v, ok)
	}
	// 999 samples: rank 990 again, only 9 beyond: the value may not be
	// reported as a p99.
	if v, ok := Percentile(ascending(999), 99); v != 990 || ok {
		t.Fatalf("p99 of 1..999 = %v, ok %v; want 990, false", v, ok)
	}
	if v, ok := Percentile(ascending(200), 95); v != 190 || !ok {
		t.Fatalf("p95 of 1..200 = %v, ok %v; want 190, true", v, ok)
	}
	// The median is reportable from any non-empty sample.
	if v, ok := Percentile(ascending(3), 50); v != 2 || !ok {
		t.Fatalf("p50 of 1..3 = %v, ok %v; want 2, true", v, ok)
	}
	if _, ok := Percentile(nil, 50); ok {
		t.Fatal("percentile of an empty sample reported ok")
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := Median(tc.in); got != tc.want {
			t.Errorf("Median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// A slice the host disturbed must not move what is reported: the run
// reduces per slice and reports the best slice.
func TestReduceWindowsPerSliceAndBestSlice(t *testing.T) {
	const width = int64(1e9)
	edges := make([]int64, SubWindows+1)
	for i := range edges {
		edges[i] = int64(i) * width
	}
	edges[4] += width / 2 // the coordinator woke late once: slice 3 is 1.5 s, slice 4 is 0.5 s
	var samples []Sample
	for w := 0; w < SubWindows; w++ {
		frames, rtt := 2000, int64(100e3) // 100 µs round trips, 10 decisions each
		if w == 6 || w == 7 || w == 8 {
			frames, rtt = 1000, int64(900e3) // three disturbed slices: half the frames, 9x slower
		}
		lo, hi := edges[w], edges[w+1]
		if w == 3 || w == 4 { // keep the rate constant across the uneven pair
			frames = int(int64(frames) * (hi - lo) / width)
		}
		for f := 0; f < frames; f++ {
			samples = append(samples, Sample{At: lo + int64(f)*(hi-lo)/int64(frames), RTT: rtt, Decs: 10})
		}
	}
	// Samples outside the window are ignored.
	samples = append(samples, Sample{At: -5, RTT: 1, Decs: 1000}, Sample{At: edges[SubWindows], RTT: 1, Decs: 1000})

	ws := ReduceWindows(samples, edges)
	if len(ws.Rates) != SubWindows || ws.Rates[3] != 20000 || ws.Rates[4] != 20000 || ws.Rates[7] != 10000 {
		t.Fatalf("per-slice rates %v", ws.Rates)
	}
	if ws.Frames != 17000 || ws.Decisions != 170000 || ws.MinFrames != 1000 || len(ws.P99US) != SubWindows {
		t.Errorf("frames %d decisions %d min %d, %d slices with a p99; want 17000, 170000, 1000, 10",
			ws.Frames, ws.Decisions, ws.MinFrames, len(ws.P99US))
	}
	if got := Undisturbed(ws.Rates, true); got != 20000 {
		t.Errorf("reported rate %v, want the undisturbed 20000", got)
	}
	if got := Undisturbed(ws.P50US, false); got != 100 {
		t.Errorf("reported p50 %v µs, want the undisturbed 100", got)
	}
	if got := Median(ws.P99US); got != 100 {
		t.Errorf("median p99 %v µs, want 100", got)
	}

	// Too few round trips in a slice: it has no p99 to report.
	if thin := ReduceWindows(samples[:500], edges); len(thin.P99US) != 0 {
		t.Errorf("500 round trips in one slice yielded %d p99s", len(thin.P99US))
	}
	if empty := ReduceWindows(samples, nil); len(empty.Rates) != 0 {
		t.Error("no edges, yet slices")
	}
}

func TestUndisturbedPicksTheBestSlice(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := Undisturbed(xs, true); got != 10 {
		t.Errorf("best rate of 1..10 = %v, want 10", got)
	}
	if got := Undisturbed(xs, false); got != 1 {
		t.Errorf("best time of 1..10 = %v, want 1", got)
	}
	if Undisturbed(nil, true) != 0 || Undisturbed([]float64{4}, false) != 4 {
		t.Error("empty and single-value samples")
	}
}

// Spread must agree with Python's statistics.quantiles(values, n=4), which
// is what the acceptance driver computes.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// >>> v = [10, 12, 11, 15, 9, 14, 13, 10.5, 11.5, 12.5]
	// >>> q = statistics.quantiles(v, n=4); (q[2]-q[0])/statistics.median(v)
	// q = [10.375, 11.75, 13.25]
	v := []float64{10, 12, 11, 15, 9, 14, 13, 10.5, 11.5, 12.5}
	want := (13.25 - 10.375) / 11.75
	if got := Spread(v); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Spread = %v, want %v", got, want)
	}
	// >>> statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got, want := Spread([]float64{1, 2}), 1.5/1.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Spread of two values = %v, want %v", got, want)
	}
	if Spread([]float64{5}) != 0 {
		t.Fatal("a single value has no spread")
	}
}

func TestSubdivideKeepsEdgesAndSplitsEvenly(t *testing.T) {
	got := subdivide([]int64{0, 100, 300}, 4)
	want := []int64{0, 25, 50, 75, 100, 150, 200, 250, 300}
	if len(got) != len(want) {
		t.Fatalf("subdivide = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("subdivide = %v, want %v", got, want)
		}
	}
	if one := subdivide([]int64{7}, 4); len(one) != 1 {
		t.Fatalf("a single edge has nothing to split: %v", one)
	}
}
