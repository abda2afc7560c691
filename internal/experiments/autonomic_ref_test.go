package experiments

import (
	"reflect"
	"testing"

	"dbwlm"
	"dbwlm/internal/autonomic"
	"dbwlm/internal/engine"
	"dbwlm/internal/sim"
)

// refAutonomicLoop is E6's autonomic-mape control as it was before E6 ran
// the packaged manager: a MAPE loop assembled by hand over the manager,
// every 2 s, whose planner weighs throttle, DumpState suspend and kill for
// each running analytics query, plus a resume check every 4 s that resumes
// one suspended query while OLTP meets its objective.
func refAutonomicLoop(m *dbwlm.Manager) {
	loop := &autonomic.Loop{
		Period: 2 * sim.Second,
		Monitor: func() autonomic.Observation {
			return autonomic.Observation{
				At:          m.Now(),
				Engine:      m.Engine().StatsNow(),
				Attainments: m.Attainments(),
			}
		},
		Analyze: autonomic.AnalyzeAttainments,
		Plan: func(obs autonomic.Observation, symptoms []autonomic.Symptom) []autonomic.PlannedAction {
			var severity float64
			for _, sy := range symptoms {
				if sy.Severity > severity {
					severity = sy.Severity
				}
			}
			var out []autonomic.PlannedAction
			for _, rr := range m.RunningAll() {
				if rr.Req.Workload != "analytics" || rr.Query.State() != engine.StateRunning {
					continue
				}
				prog := rr.Query.Progress()
				ideal := m.Engine().IdealSeconds(rr.Req.True)
				cands := []autonomic.Candidate{
					{
						Action:      autonomic.PlannedAction{Kind: autonomic.ActionThrottle, Query: rr.Query.ID, Amount: 0.85},
						FreedWeight: 0.85, WorkLost: 0, LatencySeconds: 0.1,
					},
					{
						Action:      autonomic.PlannedAction{Kind: autonomic.ActionSuspend, Query: rr.Query.ID},
						FreedWeight: 1.0, WorkLost: 0,
						LatencySeconds: rr.Req.True.StateMB / 800,
					},
					{
						Action:      autonomic.PlannedAction{Kind: autonomic.ActionKill, Query: rr.Query.ID},
						FreedWeight: 1.0, WorkLost: prog * ideal, LatencySeconds: 0,
					},
				}
				if best := autonomic.PlanBest(severity, cands); best != nil {
					out = append(out, best.Action)
				}
			}
			return out
		},
		Execute: func(actions []autonomic.PlannedAction) {
			for _, a := range actions {
				switch a.Kind {
				case autonomic.ActionThrottle:
					_ = m.Engine().SetThrottle(a.Query, a.Amount)
				case autonomic.ActionSuspend:
					_ = m.Engine().Suspend(a.Query, engine.SuspendDumpState)
				case autonomic.ActionKill:
					_ = m.Engine().Kill(a.Query)
				case autonomic.ActionReprioritize:
					_ = m.Engine().SetWeight(a.Query, a.Amount)
				}
			}
		},
	}
	loop.Start(m.Sim())
	m.Sim().Every(4*sim.Second, func() bool {
		if !m.Attainment("oltp").Met {
			return true
		}
		for _, rr := range m.RunningAll() {
			if rr.Query.State() == engine.StateSuspended {
				_ = m.Engine().Resume(rr.Query.ID)
				break // one at a time
			}
		}
		return true
	})
}

// TestAutonomicMAPEMatchesHandBuiltLoop holds E6's autonomic-mape row, now
// run by dbwlm.EnableAutonomic, bit-identical to the hand-built loop it
// replaced, on several seeds.
func TestAutonomicMAPEMatchesHandBuiltLoop(t *testing.T) {
	for _, seed := range []uint64{42, 1, 7, 3} {
		got := RunAutonomicMAPE("autonomic-mape", seed)
		want := runAutonomicScenario("autonomic-mape", seed, refAutonomicLoop)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: packaged manager's row differs from the hand-built loop's\ngot:  %v\nwant: %v",
				seed, got.Metrics, want.Metrics)
		}
	}
}
