package governor

import (
	"dbwlm"
	"dbwlm/internal/characterize"
	"dbwlm/internal/execctl"
	"dbwlm/internal/policy"
	"dbwlm/internal/scheduling"
	"dbwlm/internal/sim"
	"dbwlm/internal/sqlmini"
)

// OracleProfile emulates Oracle Database Resource Manager (paper ref [61]):
// consumer groups with plan-directive CPU shares, active session pools
// (per-group concurrency limits with a queue timeout), automatic consumer
// group switching (a session that consumes too much CPU is switched to a
// lower group — priority aging by another name), and execution time limits
// that cancel runaway calls.
func OracleProfile() *Profile {
	return &Profile{
		Name: "Oracle Database Resource Manager",
		Attach: func(m *dbwlm.Manager) {
			// Consumer groups: interactive (OLTP), reporting, batch.
			router := characterize.NewRouter(&characterize.ServiceClass{
				Name: "OTHER_GROUPS", Priority: policy.PriorityLow,
			}).
				AddClass(&characterize.ServiceClass{
					Name: "INTERACTIVE_GROUP", Priority: policy.PriorityCritical,
					Weight: 48, // plan directive: 75% at level 1
				}).
				AddClass(&characterize.ServiceClass{
					Name: "REPORTING_GROUP", Priority: policy.PriorityMedium,
					// Tiers model automatic consumer-group switching targets.
					Tiers: []characterize.ServiceTier{
						{Name: "REPORTING_GROUP", Weight: 12},
						{Name: "BATCH_GROUP", Weight: 2},
					},
				}).
				AddClass(&characterize.ServiceClass{
					Name: "BATCH_GROUP", Priority: policy.PriorityLow, Weight: 2,
				}).
				AddDef(&characterize.WorkloadDef{
					Name: "oltp", Match: characterize.OriginMatcher{App: "pos-terminal"},
					ServiceClass: "INTERACTIVE_GROUP",
				}).
				AddDef(&characterize.WorkloadDef{
					Name: "reporting", Match: characterize.All{
						characterize.TypeMatcher{Types: []sqlmini.StatementType{sqlmini.StmtRead}},
						characterize.TypeMatcher{MinTimerons: 1_000},
					},
					ServiceClass: "REPORTING_GROUP",
				}).
				AddDef(&characterize.WorkloadDef{
					Name: "batch", Match: characterize.TypeMatcher{
						Types: []sqlmini.StatementType{sqlmini.StmtCall, sqlmini.StmtLoad, sqlmini.StmtDDL},
					},
					ServiceClass: "BATCH_GROUP",
				})
			m.Router = router

			// Active session pools: per-group concurrency with a delay
			// queue; queued sessions time out.
			m.Scheduler = scheduling.NewScheduler(scheduling.NewPriority(),
				scheduling.NewClassMPL(map[string]int{
					"REPORTING_GROUP": 4,
					"BATCH_GROUP":     1,
					"OTHER_GROUPS":    2,
				}))
			m.MaxQueueDelay = 5 * sim.Minute

			// Automatic consumer group switching: a reporting query that
			// runs past the switch threshold is demoted to the batch tier.
			switcher := execctl.NewAger(m.Engine(), []float64{12, 2}, []float64{30})
			// MAX_EST_EXEC_TIME-style cancellation for true runaways.
			killer := execctl.NewKiller(m.Engine(), 1200)
			chainDispatch(m, func(rr *dbwlm.Running) {
				switch rr.Class.Name {
				case "REPORTING_GROUP":
					switcher.Manage(rr.Query.ID)
					killer.Manage(rr.Query.ID)
				case "BATCH_GROUP", "OTHER_GROUPS":
					killer.Manage(rr.Query.ID)
				}
			})
		},
	}
}
