package autonomic

import (
	"math"
	"testing"
	"testing/quick"

	"dbwlm/internal/engine"
	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
)

func TestMembershipPartitionOfUnity(t *testing.T) {
	// Low + Medium + High should sum to ~1 across [0,1] (triangular
	// partition), and each stays in [0,1].
	f := func(raw uint16) bool {
		x := float64(raw) / 65535
		var sum float64
		for _, l := range []Level{Low, Medium, High} {
			m := Membership(l, x)
			if m < 0 || m > 1 {
				return false
			}
			sum += m
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMembershipPeaks(t *testing.T) {
	if Membership(Low, 0) != 1 || Membership(Medium, 0.5) != 1 || Membership(High, 1) != 1 {
		t.Fatal("peaks wrong")
	}
	if Membership(Low, 1) != 0 || Membership(High, 0) != 0 {
		t.Fatal("tails wrong")
	}
	// Clamping.
	if Membership(Low, -5) != 1 || Membership(High, 7) != 1 {
		t.Fatal("clamping wrong")
	}
}

func TestFuzzyDecisions(t *testing.T) {
	c := &FuzzyController{Rules: KrompassRules()}
	// Problematic fresh query: low priority, no progress, high contention,
	// never cancelled -> kill-and-resubmit.
	a, s := c.Decide(Inputs{Priority: 0.05, Progress: 0.05, Contention: 0.95, Cancellations: 0})
	if a != ActKillResubmit || s <= 0.5 {
		t.Fatalf("problematic fresh query: %v (%v)", a, s)
	}
	// Same query already cancelled repeatedly -> plain kill.
	a, _ = c.Decide(Inputs{Priority: 0.05, Progress: 0.05, Contention: 0.95, Cancellations: 1})
	if a != ActKill {
		t.Fatalf("repeat offender: %v", a)
	}
	// Nearly finished -> continue regardless of contention.
	a, _ = c.Decide(Inputs{Priority: 0.05, Progress: 0.95, Contention: 0.95})
	if a != ActContinue {
		t.Fatalf("nearly-done query: %v", a)
	}
	// High priority is protected.
	a, _ = c.Decide(Inputs{Priority: 0.95, Progress: 0.1, Contention: 0.95})
	if a != ActContinue {
		t.Fatalf("high-priority query: %v", a)
	}
	// Mid-progress low-priority under contention -> reprioritize.
	a, _ = c.Decide(Inputs{Priority: 0.1, Progress: 0.5, Contention: 0.9})
	if a != ActReprioritize {
		t.Fatalf("mid-flight query: %v", a)
	}
	// Idle system -> continue.
	a, _ = c.Decide(Inputs{Priority: 0.1, Progress: 0.1, Contention: 0.05})
	if a != ActContinue {
		t.Fatalf("idle system: %v", a)
	}
}

func TestFuzzyStrengthsBounded(t *testing.T) {
	c := &FuzzyController{Rules: KrompassRules()}
	f := func(p, pr, co, ca uint8) bool {
		in := Inputs{
			Priority:      float64(p) / 255,
			Progress:      float64(pr) / 255,
			Contention:    float64(co) / 255,
			Cancellations: float64(ca) / 255,
		}
		for _, s := range c.Strengths(in) {
			if s < 0 || s > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLoopCountsAndFlow(t *testing.T) {
	s := sim.New(1)
	var observed, analyzed, planned, executed int
	l := &Loop{
		Period: sim.Second,
		Monitor: func() Observation {
			observed++
			return Observation{Attainments: map[string]policy.Attainment{
				"gold": {Met: false, Ratio: 0.5},
			}}
		},
		Analyze: func(o Observation) []Symptom {
			analyzed++
			return AnalyzeAttainments(o)
		},
		Plan: func(_ Observation, sy []Symptom) []PlannedAction {
			planned++
			return []PlannedAction{{Kind: ActionThrottle, Amount: 0.5}}
		},
		Execute: func(a []PlannedAction) { executed += len(a) },
	}
	l.Start(s)
	s.Run(sim.Time(5500 * sim.Millisecond))
	if observed != 5 || analyzed != 5 || planned != 5 || executed != 5 {
		t.Fatalf("cycle counts: m=%d a=%d p=%d e=%d", observed, analyzed, planned, executed)
	}
	if l.Cycles() != 5 || l.Actions() != 5 || l.Symptoms() != 5 {
		t.Fatal("loop counters wrong")
	}
	l.stop()
	s.Run(sim.Time(10 * sim.Second))
	if observed != 5 {
		t.Fatal("loop ran after stop")
	}
}

func TestLoopSkipsPlanWhenHealthy(t *testing.T) {
	s := sim.New(1)
	planned := 0
	l := &Loop{
		Period:  sim.Second,
		Monitor: func() Observation { return Observation{} },
		Analyze: func(Observation) []Symptom { return nil },
		Plan: func(Observation, []Symptom) []PlannedAction {
			planned++
			return nil
		},
		Execute: func([]PlannedAction) {},
	}
	l.Start(s)
	s.Run(sim.Time(3500 * sim.Millisecond))
	if planned != 0 {
		t.Fatal("planner invoked with no symptoms")
	}
}

func TestAnalyzeAttainments(t *testing.T) {
	obs := Observation{
		Engine: engine.Stats{MemPressure: 2.0},
		Attainments: map[string]policy.Attainment{
			"ok":  {Met: true, Ratio: 2},
			"bad": {Met: false, Ratio: 0.25},
		},
	}
	sy := AnalyzeAttainments(obs)
	if len(sy) != 2 {
		t.Fatalf("symptoms = %v", sy)
	}
	var violation, overload *Symptom
	for i := range sy {
		switch sy[i].Kind {
		case SymptomSLOViolation:
			violation = &sy[i]
		case SymptomOverload:
			overload = &sy[i]
		}
	}
	if violation == nil || violation.Class != "bad" || math.Abs(violation.Severity-0.75) > 1e-9 {
		t.Fatalf("violation = %+v", violation)
	}
	if overload == nil || overload.Severity != 1 {
		t.Fatalf("overload = %+v", overload)
	}
}

func TestPlanBestPrefersCheapEffectiveAction(t *testing.T) {
	kill := Candidate{
		Action:      PlannedAction{Kind: ActionKill, Query: 1},
		FreedWeight: 10, WorkLost: 30, LatencySeconds: 0,
	}
	throttle := Candidate{
		Action:      PlannedAction{Kind: ActionThrottle, Query: 1, Amount: 0.8},
		FreedWeight: 8, WorkLost: 0, LatencySeconds: 0.5,
	}
	suspendDump := Candidate{
		Action:      PlannedAction{Kind: ActionSuspend, Query: 1},
		FreedWeight: 10, WorkLost: 0, LatencySeconds: 12,
	}
	// Moderate severity: throttling wins (kill destroys too much work,
	// suspend too slow).
	best := PlanBest(0.5, []Candidate{kill, throttle, suspendDump})
	if best == nil || best.Action.Kind != ActionThrottle {
		t.Fatalf("moderate severity best = %+v", best)
	}
	// Low severity with only destructive options: do nothing.
	best = PlanBest(0.05, []Candidate{kill})
	if best != nil {
		t.Fatalf("low severity should plan nothing, got %+v", best)
	}
}

func TestScoreMonotonicInSeverity(t *testing.T) {
	c := Candidate{FreedWeight: 5, WorkLost: 1, LatencySeconds: 1}
	if Score(0.9, c) <= Score(0.1, c) {
		t.Fatal("score not increasing in severity")
	}
}

func TestEnumStrings(t *testing.T) {
	for k := SymptomSLOViolation; k <= SymptomUnderload; k++ {
		if k.String() == "" {
			t.Fatal("symptom name")
		}
	}
	for a := ActionThrottle; a <= ActionNone; a++ {
		if a.String() == "" {
			t.Fatal("action name")
		}
	}
	for v := VarPriority; v < numVars; v++ {
		if v.String() == "" {
			t.Fatal("var name")
		}
	}
	for _, l := range []Level{Low, Medium, High} {
		if l.String() == "" {
			t.Fatal("level name")
		}
	}
	for a := ActContinue; a < numActions; a++ {
		if a.String() == "" {
			t.Fatal("fuzzy action name")
		}
	}
}
