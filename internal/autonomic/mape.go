package autonomic

import (
	"fmt"
	"sort"

	"dbwlm/internal/engine"
	"dbwlm/internal/obsv"
	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
)

// Observation is one monitor snapshot: engine load plus per-class SLO
// attainment — what the MAPE loop's analyzer consumes.
type Observation struct {
	At          sim.Time
	Engine      engine.Stats
	Attainments map[string]policy.Attainment
}

// SymptomKind classifies what the analyzer found.
type SymptomKind int

// Symptoms.
const (
	SymptomSLOViolation SymptomKind = iota
	SymptomOverload
	SymptomUnderload
)

// String names the symptom kind.
func (k SymptomKind) String() string {
	names := []string{"slo-violation", "overload", "underload"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("SymptomKind(%d)", int(k))
}

// Symptom is one diagnosed problem with its severity in (0, 1].
type Symptom struct {
	Kind     SymptomKind
	Class    string
	Severity float64
	// Reason, when set, overrides the Kind-derived flight-recorder reason —
	// analyzers with a finer vocabulary than SymptomKind (the SLO engine's
	// burn-rate/budget-exhausted diagnoses) use it so their reasoning lands
	// verbatim in the trace.
	Reason obsv.Reason
}

// ActionKind is the planner's vocabulary of effector actions — the
// execution-control techniques of the taxonomy that an autonomic manager
// chooses among at run time (the Section 5.2 open problem).
type ActionKind int

// Actions the planner can emit.
const (
	ActionThrottle ActionKind = iota
	ActionSuspend
	ActionKill
	ActionKillResubmit
	ActionReprioritize
	ActionResume
	ActionNone
)

// String names the action kind.
func (k ActionKind) String() string {
	names := []string{"throttle", "suspend", "kill", "kill-resubmit", "reprioritize", "resume", "none"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("ActionKind(%d)", int(k))
}

// PlannedAction is one effector invocation.
type PlannedAction struct {
	Kind   ActionKind
	Query  int64
	Amount float64 // throttle fraction or new weight, by kind
}

// Loop is the MAPE-K feedback loop of Section 5.3: a monitor that snapshots
// system performance, an analyzer that diagnoses symptoms, a planner that
// selects techniques, and an executor that imposes them. Knowledge (the
// policies) lives in the closures.
type Loop struct {
	Period  sim.Duration
	Monitor func() Observation
	Analyze func(Observation) []Symptom
	Plan    func(Observation, []Symptom) []PlannedAction
	Execute func([]PlannedAction)

	// Flight, when non-nil, records every iteration's monitor snapshot,
	// diagnosed symptoms, and executed actions — the MAPE loop thinking out
	// loud in the flight recorder.
	Flight *obsv.Recorder
	// ClassID resolves a class name to the recorder's class-ID space (nil
	// records obsv.NoClass for class-scoped symptoms; actions always carry
	// obsv.NoClass).
	ClassID func(string) int32

	cycles   int64
	actions  int64
	symptoms int64
}

// flightClass maps a symptom's class name through ClassID.
func (l *Loop) flightClass(name string) int32 {
	if name == "" || l.ClassID == nil {
		return obsv.NoClass
	}
	return l.ClassID(name)
}

// symptomReason maps the analyzer vocabulary onto recorder reasons.
func symptomReason(k SymptomKind) obsv.Reason {
	switch k {
	case SymptomSLOViolation:
		return obsv.ReasonSLOViolation
	case SymptomOverload:
		return obsv.ReasonOverload
	case SymptomUnderload:
		return obsv.ReasonUnderload
	}
	return obsv.ReasonNone
}

// actionReason maps the planner vocabulary onto recorder reasons.
func actionReason(k ActionKind) obsv.Reason {
	switch k {
	case ActionThrottle:
		return obsv.ReasonThrottle
	case ActionSuspend:
		return obsv.ReasonSuspend
	case ActionKill:
		return obsv.ReasonKill
	case ActionKillResubmit:
		return obsv.ReasonKillResubmit
	case ActionReprioritize:
		return obsv.ReasonReprioritize
	case ActionResume:
		return obsv.ReasonResume
	}
	return obsv.ReasonNoAction
}

// Start runs the loop every Period on the simulator.
func (l *Loop) Start(s *sim.Simulator) {
	period := l.Period
	if period <= 0 {
		period = sim.Second
	}
	s.Every(period, func() bool {
		l.RunOnce()
		return true
	})
}

// RunOnce executes one monitor-analyze-plan-execute cycle.
func (l *Loop) RunOnce() {
	l.cycles++
	obs := l.Monitor()
	at := int64(obs.At) * 1000 // sim microseconds -> recorder nanoseconds
	l.Flight.Record(obsv.Event{At: at, Kind: obsv.KindMAPEMonitor,
		Verdict: obsv.NoVerdict, Class: obsv.NoClass,
		Value: obs.Engine.MemPressure, Aux: float64(obs.Engine.InEngine)})
	symptoms := l.Analyze(obs)
	l.symptoms += int64(len(symptoms))
	for i := range symptoms {
		reason := symptoms[i].Reason
		if reason == obsv.ReasonNone {
			reason = symptomReason(symptoms[i].Kind)
		}
		l.Flight.Record(obsv.Event{At: at, Kind: obsv.KindMAPESymptom,
			Reason: reason, Verdict: obsv.NoVerdict,
			Class: l.flightClass(symptoms[i].Class), Value: symptoms[i].Severity})
	}
	if len(symptoms) == 0 {
		return
	}
	actions := l.Plan(obs, symptoms)
	l.actions += int64(len(actions))
	for i := range actions {
		l.Flight.Record(obsv.Event{At: at, Kind: obsv.KindMAPEAction,
			Reason: actionReason(actions[i].Kind), Verdict: obsv.NoVerdict,
			Class: obsv.NoClass, QID: actions[i].Query,
			Value: actions[i].Amount})
	}
	if len(actions) > 0 {
		l.Execute(actions)
	}
}

// Cycles, Actions, Symptoms report loop activity.
func (l *Loop) Cycles() int64 { return l.cycles }

// Actions reports the number of planned actions executed.
func (l *Loop) Actions() int64 { return l.actions }

// Symptoms reports the number of diagnosed symptoms.
func (l *Loop) Symptoms() int64 { return l.symptoms }

// AnalyzeAttainments is the standard analyzer: a symptom per class whose SLO
// attainment ratio is below 1, severity growing with the shortfall; plus
// overload when memory is overcommitted and underload when the engine is
// nearly idle with work present elsewhere.
func AnalyzeAttainments(obs Observation) []Symptom {
	var out []Symptom
	classes := make([]string, 0, len(obs.Attainments))
	for c := range obs.Attainments {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		a := obs.Attainments[c]
		if a.Met {
			continue
		}
		sev := 1 - a.Ratio
		if sev > 1 {
			sev = 1
		}
		if sev <= 0 {
			continue
		}
		out = append(out, Symptom{Kind: SymptomSLOViolation, Class: c, Severity: sev})
	}
	if obs.Engine.MemPressure > 1.1 {
		sev := obs.Engine.MemPressure - 1
		if sev > 1 {
			sev = 1
		}
		out = append(out, Symptom{Kind: SymptomOverload, Severity: sev})
	}
	return out
}

// Candidate is one possible control action with the planner's cost model:
// how much resource weight it frees, how much completed work it destroys,
// and how long until the resources are actually available.
type Candidate struct {
	Action PlannedAction
	// FreedWeight is the resource weight released to the suffering classes.
	FreedWeight float64
	// WorkLost is completed work destroyed (kill) or deferred (suspend),
	// in ideal-seconds.
	WorkLost float64
	// LatencySeconds until the resources free up (suspend dumps take time;
	// throttling acts at the next quantum).
	LatencySeconds float64
}

// Score ranks a candidate for a symptom of the given severity: benefit is
// severity-weighted freed resources, discounted by destroyed work and
// reaction latency. The weights encode the paper's qualitative ordering —
// kills free resources instantly but waste work; throttling preserves work
// but frees less.
func Score(severity float64, c Candidate) float64 {
	return severity*c.FreedWeight - 0.3*c.WorkLost - 0.2*c.LatencySeconds
}

// PlanBest picks the highest-scoring candidate per symptom (nil when no
// candidate scores above zero). Deterministic: ties break toward the earlier
// candidate.
func PlanBest(severity float64, candidates []Candidate) *Candidate {
	var best *Candidate
	bestScore := 0.0
	for i := range candidates {
		s := Score(severity, candidates[i])
		if s > bestScore {
			best = &candidates[i]
			bestScore = s
		}
	}
	return best
}
