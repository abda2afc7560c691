package experiments

import (
	"dbwlm"
	"dbwlm/internal/admission"
	"dbwlm/internal/execctl"
	"dbwlm/internal/policy"
	"dbwlm/internal/scheduling"
	"dbwlm/internal/sim"
	"dbwlm/internal/workload"
)

// RunTable1 demonstrates Table 1's three control types acting at their three
// distinct control points in one instrumented run: admission control upon
// arrival (rejections), scheduling prior to the execution engine (queueing
// and ordering), and execution control during execution (kills and
// demotions). The returned rows count the actions each control point took.
func RunTable1(seed uint64) ResultTable {
	_, m := NewManager(seed)
	m.Router = UniformRouter()

	// Control point 1: admission upon arrival — reject oversized ad hoc.
	m.Admission = &admission.CostThreshold{Limits: map[policy.Priority]float64{
		policy.PriorityLow: 12_000, // only the largest estimates are refused
	}}

	// Control point 2: scheduling prior to the engine — priority queue with
	// a concurrency valve.
	m.Scheduler = scheduling.NewScheduler(scheduling.NewPriority(), &scheduling.MPL{Max: 12})

	// Control point 3: execution control during execution — demote analytic
	// queries that run long, kill true runaways.
	ager := execctl.NewAger(m.Engine(), []float64{4, 1}, []float64{15})
	killer := execctl.NewKiller(m.Engine(), 0)
	killer.MaxRows = 1_000_000 // the DB2 "rows returned" stop-execution threshold
	m.OnDispatch = func(rr *dbwlm.Running) {
		if rr.Req.Workload != "oltp" {
			ager.Manage(rr.Query.ID)
			killer.Manage(rr.Query.ID)
		}
	}

	gens := []workload.Generator{
		&workload.OLTPGen{WorkloadName: "oltp", Rate: 60, Priority: policy.PriorityHigh,
			SLO: policy.AvgResponseTime(300 * sim.Millisecond), Seq: &workload.Sequence{}},
		&workload.AdHocGen{WorkloadName: "adhoc", Rate: 0.4, Priority: policy.PriorityLow,
			SLO: policy.BestEffort(), MonsterProb: 0.3, Seq: &workload.Sequence{}},
	}
	m.RunWorkload(gens, 120*sim.Second, 120*sim.Second)

	sys := m.Stats().System
	return ResultTable{
		Title: "Table 1: the three control points in one instrumented run",
		Rows: []Row{
			{
				Name: "admission (upon arrival)",
				Metrics: map[string]float64{
					"actions": float64(sys.Rejected.Value()),
				},
				Order: []string{"actions"},
			},
			{
				Name: "scheduling (before engine)",
				Metrics: map[string]float64{
					"actions": float64(m.Scheduler.Dispatched()),
				},
				Order: []string{"actions"},
			},
			{
				Name: "execution control (running)",
				Metrics: map[string]float64{
					"actions": float64(ager.Demotions() + killer.Kills()),
				},
				Order: []string{"actions"},
			},
		},
	}
}
