// Package policy defines the vocabulary of workload management policies from
// Section 2 of the paper: business priorities derived from SLAs, performance
// objectives (SLOs) expressed over response time, percentile targets,
// throughput, and execution velocity, the thresholds that guard execution
// (elapsed time, estimated cost, rows returned, concurrency), and the actions
// taken when thresholds are violated.
package policy

import (
	"fmt"

	"dbwlm/internal/sim"
)

// Priority is a business-importance level assigned to a workload by the SLA
// mapping (Section 2.1). It determines resource-access weight and admission
// leniency.
type Priority int

// Priority levels, lowest to highest.
const (
	PriorityLow Priority = iota
	PriorityMedium
	PriorityHigh
	PriorityCritical
)

// String names the priority.
//
//dbwlm:hotpath
func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityMedium:
		return "medium"
	case PriorityHigh:
		return "high"
	case PriorityCritical:
		return "critical"
	default:
		//dbwlm:nolint hotpath -- unreachable for the four declared priorities; formats only corrupt values
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// Weight maps the priority to a resource-share weight: each level gets
// roughly 4x the access rights of the one below, mirroring the agent-priority
// tiers of DB2 service classes.
func (p Priority) Weight() float64 {
	switch p {
	case PriorityLow:
		return 1
	case PriorityMedium:
		return 4
	case PriorityHigh:
		return 16
	case PriorityCritical:
		return 64
	default:
		return 1
	}
}

// SLOKind distinguishes the performance-objective forms of Section 2.1.
type SLOKind int

// SLO kinds.
const (
	// SLOBestEffort has no explicit objective ("non-goal" workloads).
	SLOBestEffort SLOKind = iota
	// SLOAvgResponseTime targets a mean response time.
	SLOAvgResponseTime
	// SLOPercentileResponseTime targets "x% of queries complete within y".
	SLOPercentileResponseTime
	// SLOVelocity targets a minimum execution velocity in (0, 1].
	SLOVelocity
	// SLOThroughputFloor targets a minimum completion rate per second.
	SLOThroughputFloor
)

// String names the SLO kind.
func (k SLOKind) String() string {
	names := []string{"best-effort", "avg-response-time", "percentile-response-time", "velocity", "throughput-floor"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("SLOKind(%d)", int(k))
}

// SLO is one performance objective.
type SLO struct {
	Kind SLOKind
	// Target is the response-time bound (for response-time kinds), the
	// minimum velocity, or the minimum throughput.
	Target float64
	// Percentile applies to SLOPercentileResponseTime (for example 95).
	Percentile float64
}

// BestEffort is the non-goal SLO.
func BestEffort() SLO { return SLO{Kind: SLOBestEffort} }

// AvgResponseTime targets a mean response time.
func AvgResponseTime(d sim.Duration) SLO {
	return SLO{Kind: SLOAvgResponseTime, Target: d.Seconds()}
}

// PercentileResponseTime targets "pct% of requests complete within d".
func PercentileResponseTime(pct float64, d sim.Duration) SLO {
	return SLO{Kind: SLOPercentileResponseTime, Target: d.Seconds(), Percentile: pct}
}

// String renders the SLO.
func (s SLO) String() string {
	switch s.Kind {
	case SLOBestEffort:
		return "best-effort"
	case SLOAvgResponseTime:
		return fmt.Sprintf("avg RT <= %.3fs", s.Target)
	case SLOPercentileResponseTime:
		return fmt.Sprintf("p%.0f RT <= %.3fs", s.Percentile, s.Target)
	case SLOVelocity:
		return fmt.Sprintf("velocity >= %.2f", s.Target)
	case SLOThroughputFloor:
		return fmt.Sprintf("throughput >= %.2f/s", s.Target)
	default:
		return "unknown"
	}
}

// Attainment measures how well observed performance meets the SLO. It
// returns a value >= 1 when the objective is met; below 1 is the fraction of
// the goal achieved. Best-effort always reports 1.
type Attainment struct {
	Met      bool
	Observed float64
	Ratio    float64 // >= 1 means met
}

// Evaluate scores the SLO against observed statistics.
//
//	avgRT, pctRT — seconds; velocity in (0,1]; throughput in req/s.
func (s SLO) Evaluate(avgRT, pctRT, velocity, throughput float64) Attainment {
	switch s.Kind {
	case SLOAvgResponseTime:
		return ratioLess(avgRT, s.Target)
	case SLOPercentileResponseTime:
		return ratioLess(pctRT, s.Target)
	case SLOVelocity:
		return ratioMore(velocity, s.Target)
	case SLOThroughputFloor:
		return ratioMore(throughput, s.Target)
	default:
		return Attainment{Met: true, Ratio: 1}
	}
}

func ratioLess(observed, goal float64) Attainment {
	a := Attainment{Observed: observed}
	if observed <= 0 {
		a.Met, a.Ratio = true, 1
		return a
	}
	a.Ratio = goal / observed
	a.Met = a.Ratio >= 1
	return a
}

func ratioMore(observed, goal float64) Attainment {
	a := Attainment{Observed: observed}
	if goal <= 0 {
		a.Met, a.Ratio = true, 1
		return a
	}
	a.Ratio = observed / goal
	a.Met = a.Ratio >= 1
	return a
}
