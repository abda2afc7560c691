package rt

import (
	"time"

	"dbwlm/internal/admission"
	"dbwlm/internal/autonomic"
	"dbwlm/internal/obsv"
	"dbwlm/internal/sim"
	"dbwlm/internal/slo"
)

// NewMAPELoop builds the live autonomic manager (Section 5.3) over the
// runtime: the monitor snapshots the stats view, the analyzer applies
// the indicator thresholds (Zhang et al.) to diagnose overload — or
// underload once the congestion gate is closed and the indicators have
// cleared — the planner picks the gate action, and the executor flips the
// low-priority gate. When the runtime carries an SLO engine, the analyzer
// also consumes its multi-window burn rates: a class burning error budget in
// both windows raises an slo-violation symptom whose recorder reason says
// why (burn-rate, or budget-exhausted once the cumulative budget is spent),
// and the planner sheds low-priority work for it. With a flight
// recorder attached, every iteration's snapshot, symptoms, and actions land
// in the trace: the MAPE loop thinking out loud. Drive it with RunOnce
// (tests) or StartMAPELoop (wlmd).
func NewMAPELoop(r *Runtime) *autonomic.Loop {
	// Evaluation scratch reused across cycles (the loop runs RunOnce on one
	// goroutine).
	var sloReports []slo.Report
	indicators := &admission.Indicators{Engine: r}
	return &autonomic.Loop{
		Flight: r.rec,
		ClassID: func(name string) int32 {
			if id, ok := r.Class(name); ok {
				return int32(id)
			}
			return obsv.NoClass
		},
		Monitor: func() autonomic.Observation {
			return autonomic.Observation{
				At:     sim.Time(r.NowNanos() / 1000),
				Engine: r.StatsNow(),
			}
		},
		Analyze: func(obs autonomic.Observation) []autonomic.Symptom {
			var out []autonomic.Symptom
			if e := r.SLO(); e != nil {
				sloReports = e.EvaluateInto(sloReports)
				for i := range sloReports {
					rp := &sloReports[i]
					if !rp.Burning {
						continue
					}
					reason := obsv.ReasonBurnRate
					sev := rp.Windows[0].BurnRate / (2 * rp.BurnThreshold)
					if rp.BudgetRemaining == 0 {
						reason = obsv.ReasonBudgetExhausted
						sev = 1
					}
					if sev > 1 {
						sev = 1
					}
					out = append(out, autonomic.Symptom{
						Kind: autonomic.SymptomSLOViolation, Class: rp.Class,
						Severity: sev, Reason: reason,
					})
				}
			}
			excess := indicators.Excess(obs.Engine)
			switch {
			case excess > 0:
				out = append(out, autonomic.Symptom{Kind: autonomic.SymptomOverload, Severity: min(1, excess)})
			case len(out) == 0 && r.LowPriorityGate():
				// The gate is holding work that neither the indicators nor
				// the burn rates still justify.
				out = append(out, autonomic.Symptom{Kind: autonomic.SymptomUnderload, Severity: 1})
			}
			return out
		},
		Plan: func(_ autonomic.Observation, symptoms []autonomic.Symptom) []autonomic.PlannedAction {
			for _, sym := range symptoms {
				switch sym.Kind {
				case autonomic.SymptomOverload, autonomic.SymptomSLOViolation:
					return []autonomic.PlannedAction{{Kind: autonomic.ActionThrottle, Amount: 1}}
				case autonomic.SymptomUnderload:
					return []autonomic.PlannedAction{{Kind: autonomic.ActionResume}}
				}
			}
			return nil
		},
		Execute: func(actions []autonomic.PlannedAction) {
			for _, a := range actions {
				switch a.Kind {
				case autonomic.ActionThrottle:
					r.SetLowPriorityGate(true)
				case autonomic.ActionResume:
					r.SetLowPriorityGate(false)
				}
			}
		},
	}
}

// StartMAPELoop runs the loop's RunOnce on a wall-clock ticker. Returns a
// stop function.
func StartMAPELoop(loop *autonomic.Loop, interval time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				loop.RunOnce()
			case <-done:
				return
			}
		}
	}()
	return func() { close(done) }
}
