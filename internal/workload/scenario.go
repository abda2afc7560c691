package workload

import (
	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
)

// ScenarioConfig parameterizes the consolidated-server scenario of the
// paper's introduction: OLTP, BI, report-batch, ad-hoc, and utility
// workloads sharing one database server, each with its own SLA.
type ScenarioConfig struct {
	// OLTPRate is transactional arrivals per second (default 60).
	OLTPRate float64
	// BIRate is analytical arrivals per second (default 0.05).
	BIRate float64
	// AdHocRate is ad-hoc arrivals per second (default 0.05).
	AdHocRate float64
	// MonsterProb is the chance an ad-hoc arrival is a monster (default 0.15).
	MonsterProb float64
	// ReportBatchAt schedules the report batch of reportBatchSize queries
	// (0 disables).
	ReportBatchAt sim.Time
	// UtilityTimes schedules on-line utilities (empty disables).
	UtilityTimes []sim.Time
}

const (
	// reportBatchSize is the number of report queries in the batch.
	reportBatchSize = 15
	// estimateSigma is the optimizer-estimate error of the scenario's
	// OLTP and BI estimates.
	estimateSigma = 0.3
)

func (c ScenarioConfig) withDefaults() ScenarioConfig {
	if c.OLTPRate == 0 {
		c.OLTPRate = 60
	}
	if c.BIRate == 0 {
		c.BIRate = 0.05
	}
	if c.AdHocRate == 0 {
		c.AdHocRate = 0.05
	}
	if c.MonsterProb == 0 {
		c.MonsterProb = 0.15
	}
	return c
}

// Consolidated builds the generators of the consolidated-server scenario.
// Workload names: "oltp" (high priority, 300ms avg RT SLA), "bi" (medium,
// p95 <= 120s), "reports" (low, best effort), "adhoc" (low, best effort,
// occasionally monstrous), "utility" (low).
func Consolidated(rng *sim.RNG, cfg ScenarioConfig) []Generator {
	cfg = cfg.withDefaults()
	seq := &Sequence{}
	em := NewEstimateModel(rng.Fork(0xE57), estimateSigma)
	gens := []Generator{
		&OLTPGen{
			WorkloadName: "oltp",
			Rate:         cfg.OLTPRate,
			Priority:     policy.PriorityHigh,
			SLO:          policy.AvgResponseTime(300 * sim.Millisecond),
			Seq:          seq,
			Est:          em,
		},
		&BIGen{
			WorkloadName: "bi",
			Rate:         cfg.BIRate,
			Priority:     policy.PriorityMedium,
			SLO:          policy.PercentileResponseTime(95, 120*sim.Second),
			Seq:          seq,
			Est:          em,
		},
		&AdHocGen{
			WorkloadName: "adhoc",
			Rate:         cfg.AdHocRate,
			Priority:     policy.PriorityLow,
			SLO:          policy.BestEffort(),
			MonsterProb:  cfg.MonsterProb,
			Seq:          seq,
		},
	}
	if cfg.ReportBatchAt > 0 {
		bi := &BIGen{WorkloadName: "reports", Rate: 0, Priority: policy.PriorityLow,
			SLO: policy.BestEffort(), Seq: seq, Est: em}
		// Initialize the BI generator's templates by starting it with no
		// arrivals; Draw then reuses its distribution.
		gens = append(gens, &BatchGen{
			WorkloadName: "reports",
			At:           cfg.ReportBatchAt,
			Count:        reportBatchSize,
			Priority:     policy.PriorityLow,
			SLO:          policy.PercentileResponseTime(90, 20*sim.Minute),
			Draw: func(i int, now sim.Time) *Request {
				return bi.MakeRequest(now)
			},
		}, bi)
	}
	if len(cfg.UtilityTimes) > 0 {
		gens = append(gens, &UtilityGen{
			WorkloadName: "utility",
			Times:        cfg.UtilityTimes,
			Priority:     policy.PriorityLow,
			Seq:          seq,
			Kind:         "backup",
		})
	}
	return gens
}
