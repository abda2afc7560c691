package experiments

import (
	"dbwlm/internal/governor"
	"dbwlm/internal/sim"
	"dbwlm/internal/workload"
)

// Table4Scenario drives the consolidated-server workload of the paper's
// introduction under each commercial-system profile.
type Table4Scenario struct {
	Horizon sim.Duration // default 180s
	Drain   sim.Duration // default 90s
	Seed    uint64
	Config  workload.ScenarioConfig
}

func (c Table4Scenario) withDefaults() Table4Scenario {
	if c.Horizon == 0 {
		c.Horizon = 180 * sim.Second
	}
	if c.Drain == 0 {
		c.Drain = 90 * sim.Second
	}
	if c.Seed == 0 {
		c.Seed = 5
	}
	if c.Config.OLTPRate == 0 {
		c.Config = workload.ScenarioConfig{
			OLTPRate: 40, BIRate: 0.08, AdHocRate: 0.25, MonsterProb: 0.5,
		}
	}
	return c
}

// RunTable4Profile runs the consolidated scenario under one profile (or the
// no-WLM baseline when p is nil).
func RunTable4Profile(p *governor.Profile, sc Table4Scenario) Row {
	sc = sc.withDefaults()
	s, m := NewManager(sc.Seed)
	name := "no-wlm"
	if p != nil {
		p.Attach(m)
		name = p.Name
	} else {
		m.Router = UniformRouter()
	}
	gens := workload.Consolidated(s.RNG().Fork(1), sc.Config)
	m.RunWorkload(gens, sc.Horizon, sc.Drain)

	// Aggregate per-original-workload metrics. Profiles relabel workloads
	// (for example DB2 calls BI dashboards "bi", ad hoc "analytic"); the
	// OLTP stream keeps its name via origin matching in every profile.
	oltp := m.Stats().Workload("oltp")
	met := 0
	total := 0
	// Commutative met/total counts.
	//dbwlm:sorted
	for wl := range m.Attainments() {
		total++
		if m.Attainment(wl).Met {
			met++
		}
	}
	return Row{
		Name: name,
		Metrics: map[string]float64{
			"oltp_mean_s": oltp.Response.Mean(),
			"oltp_p95_s":  oltp.Response.Percentile(95),
			"oltp_thr":    oltp.OverallThroughput(),
			"oltp_vel":    oltp.MeanVelocity(),
			"slo_met":     float64(met),
			"slo_total":   float64(total),
			"sys_done":    float64(m.Stats().System.Completed.Value()),
			"rejected":    float64(m.Stats().System.Rejected.Value()),
			"killed":      float64(m.Stats().System.Killed.Value()),
		},
		Order: []string{"oltp_mean_s", "oltp_p95_s", "oltp_thr", "oltp_vel", "slo_met", "slo_total", "sys_done", "rejected", "killed"},
	}
}

// RunTable4 runs the baseline, the paper's three commercial profiles, and
// the Oracle Database Resource Manager extension profile.
func RunTable4(sc Table4Scenario) ResultTable {
	profiles := append([]*governor.Profile{nil}, governor.Profiles()...)
	profiles = append(profiles, governor.OracleProfile())
	t := ResultTable{Title: "Table 4: commercial workload management systems on the consolidated scenario"}
	t.Rows = RunRows(len(profiles), func(i int) Row { return RunTable4Profile(profiles[i], sc) })
	return t
}
