package experiments

import (
	"dbwlm"
	"dbwlm/internal/engine"
	"dbwlm/internal/execctl"
	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
	"dbwlm/internal/workload"
)

// RunAutonomicMAPE compares the Section 5.3 autonomic manager — a MAPE loop
// whose planner picks among throttle / suspend / kill / reprioritize by
// utility score — against a static threshold configuration, under a workload
// whose mix shifts mid-run (the scenario the paper's open problems describe:
// static thresholds are tuned for one mix and miss after the shift).
func RunAutonomicMAPE(variant string, seed uint64) Row {
	return runAutonomicScenario(variant, seed, func(m *dbwlm.Manager) {
		switch variant {
		case "static-threshold":
			// Tuned for the first phase: a kill threshold long enough that the
			// early, moderate analytics finish. After the shift to monsters the
			// threshold is far too lenient.
			killer := execctl.NewKiller(m.Engine(), 500)
			m.OnDispatch = func(rr *dbwlm.Running) {
				if rr.Req.Workload == "analytics" {
					killer.Manage(rr.Query.ID)
				}
			}
		case "autonomic-mape":
			dbwlm.EnableAutonomic(m)
		}
	})
}

// runAutonomicScenario runs E6's shifting workload on a fresh manager after
// control has armed the variant's execution control.
func runAutonomicScenario(variant string, seed uint64, control func(*dbwlm.Manager)) Row {
	s, m := NewManager(seed)
	m.Router = UniformRouter()
	seq := &workload.Sequence{}
	rng := s.RNG().Fork(1234)
	control(m)

	// Phase 1 (0-120s): moderate analytics. Phase 2 (120-240s): monster mix.
	gens := []workload.Generator{
		&workload.OLTPGen{WorkloadName: "oltp", Rate: 80,
			Priority: policy.PriorityHigh,
			SLO:      policy.AvgResponseTime(300 * sim.Millisecond), Seq: seq},
		&funcGen{name: "analytics", rate: 0.12, start: func(now sim.Time) *workload.Request {
			var spec engine.QuerySpec
			if now < sim.Time(120*sim.Second) {
				spec = engine.QuerySpec{CPUWork: 5 + rng.Float64()*10,
					IOWork: 200 + rng.Float64()*200, MemMB: 128, Parallelism: 2, StateMB: 32}
			} else {
				spec = engine.QuerySpec{CPUWork: 100 + rng.Float64()*60,
					IOWork: 1800 + rng.Float64()*800, MemMB: 1600, Parallelism: 4, StateMB: 250}
			}
			r := workload.NewRequest()
			*r = workload.Request{ID: seq.Next(), Workload: "analytics",
				Priority: policy.PriorityLow, SLO: policy.BestEffort(),
				True: spec, Arrive: now,
				Est: workload.Estimates{CPUSeconds: spec.CPUWork, IOMB: spec.IOWork,
					Timerons: workload.TimeronsOf(spec.CPUWork, spec.IOWork)}}
			return r
		}},
	}
	m.RunWorkload(gens, 240*sim.Second, 120*sim.Second)

	oltp := m.Stats().Workload("oltp")
	ana := m.Stats().Workload("analytics")
	return Row{
		Name: variant,
		Metrics: map[string]float64{
			"oltp_mean_s": oltp.Response.Mean(),
			"oltp_p95_s":  oltp.Response.Percentile(95),
			"oltp_met":    boolMetric(m.Attainment("oltp").Met),
			"ana_done":    float64(ana.Completed.Value()),
			"ana_killed":  float64(ana.Killed.Value()),
			"ana_susp":    float64(ana.Suspends.Value()),
		},
		Order: []string{"oltp_mean_s", "oltp_p95_s", "oltp_met", "ana_done", "ana_killed", "ana_susp"},
	}
}

// RunAutonomic runs the MAPE-vs-static comparison, one variant per worker.
func RunAutonomic(seed uint64) ResultTable {
	vs := []string{"no-control", "static-threshold", "autonomic-mape"}
	t := ResultTable{Title: "E6: autonomic MAPE loop vs static thresholds under a workload shift"}
	t.Rows = RunRows(len(vs), func(i int) Row { return RunAutonomicMAPE(vs[i], seed) })
	return t
}
