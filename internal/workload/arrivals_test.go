package workload

import (
	"math"
	"testing"

	"dbwlm/internal/engine"
	"dbwlm/internal/sim"
)

func countArrivals(t *testing.T, rate RateFunc, ceiling float64, horizon sim.Duration) []sim.Time {
	t.Helper()
	s := sim.New(17)
	g := &ModulatedGen{
		WorkloadName: "mod",
		Rate:         rate,
		Ceiling:      ceiling,
		Draw: func(now sim.Time) *Request {
			return &Request{Arrive: now, True: engine.QuerySpec{CPUWork: 0.01}}
		},
	}
	var times []sim.Time
	g.Start(s, sim.Time(horizon), func(r *Request) {
		times = append(times, r.Arrive)
		if r.Workload != "mod" {
			t.Fatal("workload not labeled")
		}
	})
	s.RunAll(1 << 22)
	return times
}

func TestConstantRateMatchesPoisson(t *testing.T) {
	times := countArrivals(t, ConstantRate(20), 20, 100*sim.Second)
	rate := float64(len(times)) / 100
	if math.Abs(rate-20) > 2 {
		t.Fatalf("constant modulated rate = %v, want ~20", rate)
	}
}

// OnOffRate models a bursty (interrupted Poisson) process: rate alternates
// between on and off levels with the given period and duty cycle.
func OnOffRate(onRate, offRate float64, period sim.Duration, dutyCycle float64) RateFunc {
	if period <= 0 {
		period = sim.Minute
	}
	if dutyCycle <= 0 || dutyCycle > 1 {
		dutyCycle = 0.5
	}
	return func(at sim.Time) float64 {
		into := float64(int64(at)%int64(period)) / float64(period)
		if into < dutyCycle {
			return onRate
		}
		return offRate
	}
}

func TestOnOffBurstiness(t *testing.T) {
	// 10s period, 50% duty: 100/s bursts then silence.
	rate := OnOffRate(100, 0, 10*sim.Second, 0.5)
	times := countArrivals(t, rate, 100, 100*sim.Second)
	var on, off int
	for _, at := range times {
		into := float64(int64(at)%int64(10*sim.Second)) / float64(10*sim.Second)
		if into < 0.5 {
			on++
		} else {
			off++
		}
	}
	if off != 0 {
		t.Fatalf("arrivals during the off phase: %d", off)
	}
	if on < 4000 || on > 6000 {
		t.Fatalf("on-phase arrivals = %d, want ~5000", on)
	}
}

func TestDiurnalPeakAndTrough(t *testing.T) {
	day := 100 * sim.Second // compressed day
	rate := DiurnalRate(2, 50, day)
	// Trough at t=0, peak at half day.
	if r := rate(0); math.Abs(r-2) > 1e-9 {
		t.Fatalf("trough rate = %v", r)
	}
	if r := rate(sim.Time(day / 2)); math.Abs(r-50) > 1e-9 {
		t.Fatalf("peak rate = %v", r)
	}
	// Arrivals concentrate mid-day.
	times := countArrivals(t, rate, 50, sim.Duration(day))
	var firstQuarter, midHalf int
	for _, at := range times {
		into := float64(at) / float64(day)
		switch {
		case into < 0.25:
			firstQuarter++
		case into >= 0.25 && into < 0.75:
			midHalf++
		}
	}
	if midHalf < 4*firstQuarter {
		t.Fatalf("diurnal concentration wrong: firstQuarter=%d midHalf=%d", firstQuarter, midHalf)
	}
}

func TestModulatedGenZeroCeiling(t *testing.T) {
	times := countArrivals(t, ConstantRate(10), 0, 10*sim.Second)
	if len(times) != 0 {
		t.Fatal("zero ceiling generated arrivals")
	}
}
