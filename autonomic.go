package dbwlm

import (
	"dbwlm/internal/autonomic"
	"dbwlm/internal/engine"
	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
)

// The packaged loop's settings, the values E6 of the experiment suite runs
// with.
const (
	// victimPriorityBelow: only requests below this priority are candidate
	// targets for the MAPE loop's control actions.
	victimPriorityBelow = policy.PriorityHigh
	// throttleAmount is applied by its throttle actions.
	throttleAmount = 0.85
	// autonomicPeriod is the time between MAPE cycles.
	autonomicPeriod = 2 * sim.Second
	// resumeEvery is how often suspended work is re-checked for resumption
	// once the system is healthy.
	resumeEvery = 4 * sim.Second
	// suspendStrategy is how suspend actions park a query.
	suspendStrategy = engine.SuspendDumpState
)

// AutonomicManager is the assembled autonomic workload manager of the
// paper's Section 5.3 vision: a MAPE feedback loop that monitors per-
// workload SLO attainment, diagnoses violations and overload, plans the
// cheapest effective action per victim query by utility score (throttle vs
// suspend vs kill), executes it through the engine, and resumes suspended
// work once the system is healthy again.
type AutonomicManager struct {
	Loop *autonomic.Loop
	m    *Manager

	actions map[autonomic.ActionKind]int64
}

// EnableAutonomic attaches and starts the packaged MAPE loop on a manager.
// Every kind of action is on the planner's menu, kill included.
func EnableAutonomic(m *Manager) *AutonomicManager {
	am := &AutonomicManager{m: m, actions: make(map[autonomic.ActionKind]int64)}
	am.Loop = &autonomic.Loop{
		Period:  autonomicPeriod,
		Monitor: am.monitor,
		Analyze: autonomic.AnalyzeAttainments,
		Plan:    am.plan,
		Execute: am.execute,
	}
	am.Loop.Start(m.Sim())
	m.Sim().Every(resumeEvery, func() bool {
		am.maybeResume()
		return true
	})
	return am
}

// Actions reports how many times each action kind has been executed.
func (am *AutonomicManager) Actions() map[autonomic.ActionKind]int64 {
	out := make(map[autonomic.ActionKind]int64, len(am.actions))
	// Map-to-map copy: each key lands independently of visit order.
	//dbwlm:sorted
	for k, v := range am.actions {
		out[k] = v
	}
	return out
}

func (am *AutonomicManager) monitor() autonomic.Observation {
	return autonomic.Observation{
		At:          am.m.Now(),
		Engine:      am.m.Engine().StatsNow(),
		Attainments: am.m.Attainments(),
	}
}

func (am *AutonomicManager) plan(obs autonomic.Observation, symptoms []autonomic.Symptom) []autonomic.PlannedAction {
	var severity float64
	for _, sy := range symptoms {
		if sy.Severity > severity {
			severity = sy.Severity
		}
	}
	var out []autonomic.PlannedAction
	for _, rr := range am.m.RunningAll() {
		if rr.Req.Priority >= victimPriorityBelow {
			continue
		}
		if rr.Query.State() != engine.StateRunning {
			continue
		}
		prog := rr.Query.Progress()
		ideal := am.m.Engine().IdealSeconds(rr.Req.True)
		cands := []autonomic.Candidate{
			{
				Action: autonomic.PlannedAction{
					Kind: autonomic.ActionThrottle, Query: rr.Query.ID,
					Amount: throttleAmount,
				},
				FreedWeight:    throttleAmount,
				LatencySeconds: 0.1,
			},
			{
				Action: autonomic.PlannedAction{
					Kind: autonomic.ActionSuspend, Query: rr.Query.ID,
				},
				FreedWeight:    1,
				LatencySeconds: suspendLatency(rr.Req.True, am.m.Engine().Config().IOMBps),
			},
			{
				Action: autonomic.PlannedAction{
					Kind: autonomic.ActionKill, Query: rr.Query.ID,
				},
				FreedWeight: 1,
				WorkLost:    prog * ideal,
			},
		}
		if best := autonomic.PlanBest(severity, cands); best != nil {
			out = append(out, best.Action)
		}
	}
	return out
}

// suspendLatency is the time a DumpState suspend takes to write the query's
// state out.
func suspendLatency(spec engine.QuerySpec, ioMBps float64) float64 {
	if ioMBps <= 0 {
		return 0
	}
	return spec.StateMB / ioMBps
}

func (am *AutonomicManager) execute(actions []autonomic.PlannedAction) {
	for _, a := range actions {
		var err error
		switch a.Kind {
		case autonomic.ActionThrottle:
			err = am.m.Engine().SetThrottle(a.Query, a.Amount)
		case autonomic.ActionSuspend:
			err = am.m.Engine().Suspend(a.Query, suspendStrategy)
		case autonomic.ActionKill:
			err = am.m.Engine().Kill(a.Query)
		case autonomic.ActionReprioritize:
			err = am.m.Engine().SetWeight(a.Query, a.Amount)
		default:
			continue
		}
		if err == nil {
			am.actions[a.Kind]++
		}
	}
}

// maybeResume resumes one suspended query per check while every workload
// meets its SLO (one at a time, avoiding a resume stampede).
func (am *AutonomicManager) maybeResume() {
	// Universal all-met test: the answer is the same in any visit order.
	//dbwlm:sorted
	for _, att := range am.m.Attainments() {
		if !att.Met {
			return
		}
	}
	for _, rr := range am.m.RunningAll() {
		if rr.Query.State() == engine.StateSuspended {
			if am.m.Engine().Resume(rr.Query.ID) == nil {
				am.actions[autonomic.ActionResume]++
			}
			return
		}
	}
}
