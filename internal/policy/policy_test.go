package policy

import (
	"testing"
	"testing/quick"

	"dbwlm/internal/sim"
)

func TestPriorityOrderAndWeights(t *testing.T) {
	ps := []Priority{PriorityLow, PriorityMedium, PriorityHigh, PriorityCritical}
	prev := 0.0
	for _, p := range ps {
		if p.String() == "" {
			t.Fatalf("empty name for %d", int(p))
		}
		w := p.Weight()
		if w <= prev {
			t.Fatalf("weights not strictly increasing at %v: %v <= %v", p, w, prev)
		}
		prev = w
	}
	if Priority(99).Weight() != 1 {
		t.Fatal("unknown priority should default to weight 1")
	}
}

func TestSLOConstructorsAndStrings(t *testing.T) {
	slos := []SLO{
		BestEffort(),
		AvgResponseTime(500 * sim.Millisecond),
		PercentileResponseTime(95, 2*sim.Second),
		{Kind: SLOVelocity, Target: 0.7},
		{Kind: SLOThroughputFloor, Target: 100},
	}
	for _, s := range slos {
		if s.String() == "" || s.String() == "unknown" {
			t.Fatalf("bad SLO string for %+v", s)
		}
		if s.Kind.String() == "" {
			t.Fatal("bad kind string")
		}
	}
	if AvgResponseTime(500*sim.Millisecond).Target != 0.5 {
		t.Fatal("avg RT target wrong")
	}
	if PercentileResponseTime(95, sim.Second).Percentile != 95 {
		t.Fatal("percentile wrong")
	}
}

func TestSLOEvaluate(t *testing.T) {
	// Avg RT 1s goal, observed 0.5s: met with ratio 2.
	a := AvgResponseTime(sim.Second).Evaluate(0.5, 0, 0, 0)
	if !a.Met || a.Ratio != 2 {
		t.Fatalf("avg attainment = %+v", a)
	}
	// Observed 2s: missed with ratio 0.5.
	a = AvgResponseTime(sim.Second).Evaluate(2, 0, 0, 0)
	if a.Met || a.Ratio != 0.5 {
		t.Fatalf("avg attainment = %+v", a)
	}
	// Percentile uses the pctRT argument.
	a = PercentileResponseTime(95, sim.Second).Evaluate(10, 0.9, 0, 0)
	if !a.Met {
		t.Fatalf("pct attainment = %+v", a)
	}
	// Velocity floor.
	a = SLO{Kind: SLOVelocity, Target: 0.5}.Evaluate(0, 0, 0.25, 0)
	if a.Met || a.Ratio != 0.5 {
		t.Fatalf("velocity attainment = %+v", a)
	}
	// Throughput floor.
	a = SLO{Kind: SLOThroughputFloor, Target: 10}.Evaluate(0, 0, 0, 20)
	if !a.Met || a.Ratio != 2 {
		t.Fatalf("throughput attainment = %+v", a)
	}
	// Best effort always met.
	a = BestEffort().Evaluate(1e9, 1e9, 0, 0)
	if !a.Met {
		t.Fatal("best effort not met")
	}
	// Zero observations on response-time SLOs count as met (no data).
	a = AvgResponseTime(sim.Second).Evaluate(0, 0, 0, 0)
	if !a.Met {
		t.Fatal("no-data avg RT should be met")
	}
}

func TestAttainmentRatioProperty(t *testing.T) {
	// Property: Met is exactly Ratio >= 1 for all SLO kinds and inputs.
	f := func(obs, goal float64) bool {
		if obs < 0 {
			obs = -obs
		}
		if goal < 0 {
			goal = -goal
		}
		s := SLO{Kind: SLOAvgResponseTime, Target: goal}
		a := s.Evaluate(obs, 0, 0, 0)
		return a.Met == (a.Ratio >= 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
