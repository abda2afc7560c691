package workload

import (
	"math"

	"dbwlm/internal/sim"
)

// RateFunc maps virtual time to an instantaneous arrival rate (per second).
type RateFunc func(at sim.Time) float64

// ConstantRate returns a flat rate function.
func ConstantRate(rate float64) RateFunc {
	return func(sim.Time) float64 { return rate }
}

// DiurnalRate models the day/night demand curve workload managers schedule
// around (batch windows at night, peaks during business hours): a sinusoid
// between min and max over dayLength, peaking mid-"day".
func DiurnalRate(minRate, maxRate float64, dayLength sim.Duration) RateFunc {
	if dayLength <= 0 {
		dayLength = 24 * sim.Hour
	}
	return func(at sim.Time) float64 {
		phase := 2 * math.Pi * float64(int64(at)%int64(dayLength)) / float64(dayLength)
		// Peak at midday (phase pi), trough at midnight (phase 0).
		frac := (1 - math.Cos(phase)) / 2
		return minRate + (maxRate-minRate)*frac
	}
}

// nonHomogeneousArrivals schedules arrivals from a time-varying rate via
// thinning (Lewis-Shedler): candidate events at the rate ceiling are
// accepted with probability rate(t)/ceiling.
func nonHomogeneousArrivals(s *sim.Simulator, rng *sim.RNG, rate RateFunc, ceiling float64,
	horizon sim.Time, fire func()) {
	if ceiling <= 0 {
		return
	}
	var next func()
	next = func() {
		gap := sim.DurationFromSeconds(rng.ExpFloat64(ceiling))
		at := s.Now().Add(gap)
		if at > horizon {
			return
		}
		s.At(at, func() {
			if rng.Float64() < rate(s.Now())/ceiling {
				fire()
			}
			next()
		})
	}
	next()
}

// ModulatedGen wraps any per-request draw function with a time-varying
// arrival process — the fluctuating request mix of the paper's introduction
// ("workload requests present on a database server can fluctuate rapidly").
type ModulatedGen struct {
	WorkloadName string
	Rate         RateFunc
	// Ceiling must bound Rate from above (used for thinning).
	Ceiling float64
	// Draw produces each request.
	Draw func(now sim.Time) *Request
}

// Name implements Generator.
func (g *ModulatedGen) Name() string { return g.WorkloadName }

// Start implements Generator.
func (g *ModulatedGen) Start(s *sim.Simulator, horizon sim.Time, submit SubmitFunc) {
	rng := s.RNG().Fork(hashLabel(g.WorkloadName) ^ 0xBEEF)
	nonHomogeneousArrivals(s, rng, g.Rate, g.Ceiling, horizon, func() {
		r := g.Draw(s.Now())
		if r.Workload == "" {
			r.Workload = g.WorkloadName
		}
		submit(r)
	})
}
