// Package admission implements the admission-control class of the taxonomy
// (Section 3.2, Table 2): threshold-based controllers — query-cost and MPL
// thresholds as used by the commercial systems, the conflict-ratio controller
// of Moenkeberg & Weikum [56], the transaction-throughput feedback controller
// of Heiss & Wagner [26], and the indicator-based controller of Zhang et al.
// [79][80] — and prediction-based controllers that learn query runtime from
// history (Ganapathi et al. [21], Gupta et al. PQR [23]).
package admission

import (
	"fmt"

	"dbwlm/internal/engine"
	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
	"dbwlm/internal/workload"
)

// Decision is an admission verdict.
type Decision int

// Decisions.
const (
	// Admit sends the request to the engine (via the scheduler, if any).
	Admit Decision = iota
	// Queue delays the request for a later retry.
	Queue
	// Reject refuses the request with an error to the client.
	Reject
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case Admit:
		return "admit"
	case Queue:
		return "queue"
	case Reject:
		return "reject"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Controller decides whether arriving requests may enter the system.
// Feedback-based controllers also observe completions.
type Controller interface {
	Name() string
	Decide(r *workload.Request, now sim.Time) Decision
}

// View is the snapshot of server load that state-dependent controllers
// consume: the resident-request count and the instantaneous load statistics.
// The simulated *engine.Engine satisfies it directly; the live runtime
// (internal/rt) satisfies it with merged sharded counters, so the same
// threshold and indicator controllers gate simulated and real traffic
// unchanged. Implementations guarantee that each returned figure is exact at
// some recent instant; they do not guarantee that different fields were read
// at the same instant.
type View interface {
	// InEngine reports the number of resident (non-terminal) requests.
	InEngine() int
	// StatsNow snapshots instantaneous load.
	StatsNow() engine.Stats
}

// CompletionObserver is implemented by controllers that learn from finished
// requests (throughput feedback, prediction-based).
type CompletionObserver interface {
	ObserveCompletion(r *workload.Request, responseSeconds float64, now sim.Time)
}

// AdmitAll is the no-control baseline.
type AdmitAll struct{}

// Name implements Controller.
func (AdmitAll) Name() string { return "admit-all" }

// Decide implements Controller.
func (AdmitAll) Decide(*workload.Request, sim.Time) Decision { return Admit }

// CostThreshold rejects (or queues) queries whose estimated cost exceeds a
// per-priority timeron limit — the "query cost" row of Table 2 and SQL
// Server's Query Governor Cost Limit. A missing priority entry means
// unlimited (high-priority work is guaranteed admission, Section 3.2).
type CostThreshold struct {
	// Limits maps priority -> max admissible timerons (0 = unlimited).
	Limits map[policy.Priority]float64
	// QueueInstead queues over-limit work instead of rejecting it.
	QueueInstead bool
}

// Name implements Controller.
func (c *CostThreshold) Name() string { return "cost-threshold" }

// Decide implements Controller.
func (c *CostThreshold) Decide(r *workload.Request, _ sim.Time) Decision {
	limit := c.Limits[r.Priority]
	if limit <= 0 || r.Est.Timerons <= limit {
		return Admit
	}
	if c.QueueInstead {
		return Queue
	}
	return Reject
}

// MPLThreshold queues arrivals when the number of requests in the engine has
// reached the limit — the "MPLs" row of Table 2 and the classic
// multiprogramming-level configuration parameter.
type MPLThreshold struct {
	Engine View
	Max    int
}

// Name implements Controller.
func (c *MPLThreshold) Name() string { return "mpl-threshold" }

// Decide implements Controller.
func (c *MPLThreshold) Decide(_ *workload.Request, _ sim.Time) Decision {
	if c.Engine.InEngine() >= c.Max {
		return Queue
	}
	return Admit
}

// ConflictRatio suspends new transactions while the engine's lock conflict
// ratio exceeds the critical threshold (Moenkeberg & Weikum [56]; their
// empirically robust critical value is ~1.3).
type ConflictRatio struct {
	Engine View
	// Critical is the conflict-ratio threshold (default 1.3).
	Critical float64
}

// Name implements Controller.
func (c *ConflictRatio) Name() string { return "conflict-ratio" }

// Decide implements Controller.
func (c *ConflictRatio) Decide(_ *workload.Request, _ sim.Time) Decision {
	crit := c.Critical
	if crit <= 0 {
		crit = 1.3
	}
	if c.Engine.StatsNow().ConflictRatio > crit {
		return Queue
	}
	return Admit
}

// Indicators gates low-priority work while any monitored engine metric
// exceeds its threshold (Zhang et al. [79][80]): a set of congestion
// indicators rather than a single parameter.
type Indicators struct {
	Engine View
	// MaxMemPressure gates when demand/capacity exceeds this (default 1.0).
	MaxMemPressure float64
	// MaxBlockedFraction gates when blocked/in-engine exceeds this
	// (default 0.4).
	MaxBlockedFraction float64
	// MaxConflictRatio gates on lock contention (default 1.5).
	MaxConflictRatio float64
	// GatePriorityBelow: only requests with priority strictly below this
	// are delayed (default PriorityHigh — low and medium wait).
	GatePriorityBelow policy.Priority
}

// Name implements Controller.
func (c *Indicators) Name() string { return "indicators" }

// Congested reports whether any indicator is over threshold.
func (c *Indicators) Congested() bool { return c.Excess(c.Engine.StatsNow()) > 0 }

// Excess reports how far st's worst indicator is over its threshold, in the
// indicator's own units (pressure, blocked fraction, conflict ratio); 0 means
// no threshold fired.
func (c *Indicators) Excess(st engine.Stats) float64 {
	maxMem := c.MaxMemPressure
	if maxMem <= 0 {
		maxMem = 1.0
	}
	maxBlocked := c.MaxBlockedFraction
	if maxBlocked <= 0 {
		maxBlocked = 0.4
	}
	maxCR := c.MaxConflictRatio
	if maxCR <= 0 {
		maxCR = 1.5
	}
	// Plain comparisons, not the max builtin: a NaN indicator must read as
	// "not over", never poison the others.
	worst := 0.0
	if d := st.MemPressure - maxMem; d > worst {
		worst = d
	}
	if st.InEngine > 0 {
		if d := float64(st.Blocked)/float64(st.InEngine) - maxBlocked; d > worst {
			worst = d
		}
	}
	if d := st.ConflictRatio - maxCR; d > worst {
		worst = d
	}
	return worst
}

// Decide implements Controller.
func (c *Indicators) Decide(r *workload.Request, _ sim.Time) Decision {
	gate := c.GatePriorityBelow
	if gate == 0 {
		gate = policy.PriorityHigh
	}
	if r.Priority >= gate {
		return Admit
	}
	if c.Congested() {
		return Queue
	}
	return Admit
}

// Chain applies controllers in order; the first non-Admit decision wins.
type Chain struct {
	Controllers []Controller
}

// Name implements Controller.
func (c *Chain) Name() string { return "chain" }

// Decide implements Controller.
func (c *Chain) Decide(r *workload.Request, now sim.Time) Decision {
	for _, sub := range c.Controllers {
		if d := sub.Decide(r, now); d != Admit {
			return d
		}
	}
	return Admit
}

// ObserveCompletion forwards completions to chained observers.
func (c *Chain) ObserveCompletion(r *workload.Request, responseSeconds float64, now sim.Time) {
	for _, sub := range c.Controllers {
		if o, ok := sub.(CompletionObserver); ok {
			o.ObserveCompletion(r, responseSeconds, now)
		}
	}
}
