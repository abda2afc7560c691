package admission

import (
	"testing"

	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
)

func TestOperatingPeriodsSelectsByHour(t *testing.T) {
	strict := &CostThreshold{Limits: map[policy.Priority]float64{policy.PriorityLow: 100}}
	c := &OperatingPeriods{
		Periods: []Period{
			{FromHour: 8, ToHour: 18, Controller: strict}, // business hours
		},
		Default: AdmitAll{},
	}
	big := mkReq(policy.PriorityLow, 1e6)
	// 12:00 — strict window rejects.
	noon := sim.Time(12 * sim.Hour)
	if c.Decide(big, noon) != Reject {
		t.Fatal("noon should be strict")
	}
	// 02:00 — overnight window admits.
	night := sim.Time(2 * sim.Hour)
	if c.Decide(big, night) != Admit {
		t.Fatal("night should be lenient")
	}
	// Next day at noon is strict again.
	noon2 := sim.Time(36 * sim.Hour)
	if c.Decide(big, noon2) != Reject {
		t.Fatal("day wrap broken")
	}
}

func TestOperatingPeriodsWrapMidnight(t *testing.T) {
	nightOnly := Period{FromHour: 22, ToHour: 6, Controller: AdmitAll{}}
	if !nightOnly.contains(23) || !nightOnly.contains(2) {
		t.Fatal("wrapped window should contain 23:00 and 02:00")
	}
	if nightOnly.contains(12) {
		t.Fatal("wrapped window should not contain noon")
	}
}

func TestOperatingPeriodsCompressedDay(t *testing.T) {
	strict := &CostThreshold{Limits: map[policy.Priority]float64{policy.PriorityLow: 100}}
	c := &OperatingPeriods{
		Periods:   []Period{{FromHour: 0, ToHour: 12, Controller: strict}},
		Default:   AdmitAll{},
		DayLength: 2 * sim.Minute, // 1 virtual hour = 5 seconds
	}
	big := mkReq(policy.PriorityLow, 1e6)
	if c.Decide(big, sim.Time(10*sim.Second)) != Reject { // hour 2
		t.Fatal("compressed morning should be strict")
	}
	if c.Decide(big, sim.Time(90*sim.Second)) != Admit { // hour 18
		t.Fatal("compressed evening should be lenient")
	}
	if h := c.HourOf(sim.Time(60 * sim.Second)); h != 12 {
		t.Fatalf("HourOf = %v, want 12", h)
	}
}

func TestOperatingPeriodsDefaultNil(t *testing.T) {
	c := &OperatingPeriods{}
	if c.Decide(mkReq(policy.PriorityLow, 1e9), 0) != Admit {
		t.Fatal("empty periods with nil default should admit")
	}
	if c.Name() == "" {
		t.Fatal("no name")
	}
}

func TestOperatingPeriodsForwardsCompletions(t *testing.T) {
	tree := &TreePredictor{MinTraining: 1, RetrainEvery: 1}
	c := &OperatingPeriods{
		Periods: []Period{{FromHour: 0, ToHour: 24, Controller: tree}},
	}
	for i := 0; i < 40; i++ {
		c.ObserveCompletion(mkReq(policy.PriorityLow, float64(100+i)), 0.1, 0)
	}
	if tree.model.Load() == nil {
		t.Fatal("completions not forwarded to period controller")
	}
}
