package dbwlm

import (
	"dbwlm/internal/autonomic"
	"dbwlm/internal/engine"
	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
)

const (
	// victimPriorityBelow: only requests below this priority are candidate
	// targets for the MAPE loop's control actions.
	victimPriorityBelow = policy.PriorityHigh
	// throttleAmount is applied by its throttle actions.
	throttleAmount = 0.85
)

// AutonomicOptions configures the packaged Section 5.3 MAPE loop.
type AutonomicOptions struct {
	// Period between MAPE cycles (default 2s).
	Period sim.Duration
	// SuspendStrategy for suspend actions (default DumpState).
	SuspendStrategy engine.SuspendStrategy
	// ResumeEvery controls how often suspended work is re-checked for
	// resumption once the system is healthy (default 5s).
	ResumeEvery sim.Duration
	// DisallowKill removes the kill action from the planner's menu.
	DisallowKill bool
}

func (o AutonomicOptions) withDefaults() AutonomicOptions {
	if o.Period <= 0 {
		o.Period = 2 * sim.Second
	}
	if o.ResumeEvery <= 0 {
		o.ResumeEvery = 5 * sim.Second
	}
	return o
}

// AutonomicManager is the assembled autonomic workload manager of the
// paper's Section 5.3 vision: a MAPE feedback loop that monitors per-
// workload SLO attainment, diagnoses violations and overload, plans the
// cheapest effective action per victim query by utility score (throttle vs
// suspend vs kill), executes it through the engine, and resumes suspended
// work once the system is healthy again.
type AutonomicManager struct {
	Loop *autonomic.Loop
	m    *Manager
	opts AutonomicOptions

	actions map[autonomic.ActionKind]int64
}

// EnableAutonomic attaches and starts the packaged MAPE loop on a manager.
func EnableAutonomic(m *Manager, opts AutonomicOptions) *AutonomicManager {
	opts = opts.withDefaults()
	am := &AutonomicManager{m: m, opts: opts, actions: make(map[autonomic.ActionKind]int64)}
	am.Loop = &autonomic.Loop{
		Period:  opts.Period,
		Monitor: am.monitor,
		Analyze: autonomic.AnalyzeAttainments,
		Plan:    am.plan,
		Execute: am.execute,
	}
	am.Loop.Start(m.Sim())
	m.Sim().Every(opts.ResumeEvery, func() bool {
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
				LatencySeconds: suspendLatency(am.opts.SuspendStrategy, rr.Req.True, am.m.Engine().Config().IOMBps),
			},
		}
		if !am.opts.DisallowKill {
			cands = append(cands, autonomic.Candidate{
				Action: autonomic.PlannedAction{
					Kind: autonomic.ActionKill, Query: rr.Query.ID,
				},
				FreedWeight: 1,
				WorkLost:    prog * ideal,
			})
		}
		if best := autonomic.PlanBest(severity, cands); best != nil {
			out = append(out, best.Action)
		}
	}
	return out
}

func suspendLatency(strategy engine.SuspendStrategy, spec engine.QuerySpec, ioMBps float64) float64 {
	if strategy == engine.SuspendGoBack || ioMBps <= 0 {
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
			err = am.m.Engine().Suspend(a.Query, am.opts.SuspendStrategy)
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
