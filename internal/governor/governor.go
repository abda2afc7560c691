// Package governor assembles emulation profiles of the three commercial
// workload management systems the paper examines in Section 4.1 — IBM DB2
// Workload Manager, Microsoft SQL Server Resource/Query Governor, and
// Teradata Active System Management — each built purely from the technique
// classes Table 4 assigns to it. The profiles configure a dbwlm.Manager and
// are exercised side by side by the Table 4 benchmark.
package governor

import (
	"dbwlm"
	"dbwlm/internal/admission"
	"dbwlm/internal/characterize"
	"dbwlm/internal/execctl"
	"dbwlm/internal/policy"
	"dbwlm/internal/scheduling"
	"dbwlm/internal/sim"
	"dbwlm/internal/sqlmini"
	"dbwlm/internal/workload"
)

// Profile is a commercial-system emulation: a name and an Attach function
// that configures a manager as Table 4 describes the system.
type Profile struct {
	Name string
	// Attach wires the profile into the manager.
	Attach func(m *dbwlm.Manager)
}

// chainDispatch composes OnDispatch hooks.
func chainDispatch(m *dbwlm.Manager, hook func(*dbwlm.Running)) {
	prev := m.OnDispatch
	m.OnDispatch = func(rr *dbwlm.Running) {
		if prev != nil {
			prev(rr)
		}
		hook(rr)
	}
}

// DB2Profile emulates IBM DB2 Workload Manager (Section 4.1.1): workloads
// identified by connection origin and work classes by statement type with
// predictive cost elements; service classes with subclasses whose thresholds
// trigger priority aging; concurrency thresholds queueing excess activities;
// and stop-execution thresholds killing runaway queries.
func DB2Profile() *Profile {
	return &Profile{
		Name: "IBM DB2 Workload Manager",
		Attach: func(m *dbwlm.Manager) {
			// Service classes: OLTP gets a high-weight class; analytical work
			// runs in a tiered class subject to aging; ad hoc in a low class.
			router := characterize.NewRouter(&characterize.ServiceClass{
				Name: "default", Priority: policy.PriorityLow,
			}).
				AddClass(&characterize.ServiceClass{
					Name: "SYSTRANSACT", Priority: policy.PriorityHigh,
				}).
				AddClass(&characterize.ServiceClass{
					Name: "SYSANALYTIC", Priority: policy.PriorityMedium,
					Tiers: []characterize.ServiceTier{
						{Name: "fresh", Weight: 4},
						{Name: "aged", Weight: 1},
						{Name: "stale", Weight: 0.25},
					},
				}).
				AddClass(&characterize.ServiceClass{
					Name: "SYSLOW", Priority: policy.PriorityLow,
					Tiers: []characterize.ServiceTier{
						{Name: "fresh", Weight: 1},
						{Name: "aged", Weight: 0.2},
					},
				}).
				// Workload definitions: origin first (connection attributes),
				// then work classes by type + predictive cost.
				AddDef(&characterize.WorkloadDef{
					Name: "oltp", Match: characterize.OriginMatcher{App: "pos-terminal"},
					ServiceClass: "SYSTRANSACT",
				}).
				AddDef(&characterize.WorkloadDef{
					Name: "utility", Match: characterize.TypeMatcher{
						Types: []sqlmini.StatementType{sqlmini.StmtCall, sqlmini.StmtLoad, sqlmini.StmtDDL},
					},
					ServiceClass: "SYSLOW",
				}).
				AddDef(&characterize.WorkloadDef{
					Name: "bi", Match: characterize.OriginMatcher{App: "bi-dashboard"},
					ServiceClass: "SYSANALYTIC",
				}).
				AddDef(&characterize.WorkloadDef{
					Name: "bigdml", Match: characterize.TypeMatcher{
						Types:       []sqlmini.StatementType{sqlmini.StmtRead},
						MinTimerons: 8_000, // "large queries" work class with predictive cost
					},
					ServiceClass: "SYSLOW",
				}).
				AddDef(&characterize.WorkloadDef{
					Name: "analytic", Match: characterize.TypeMatcher{
						Types: []sqlmini.StatementType{sqlmini.StmtRead, sqlmini.StmtWrite},
					},
					ServiceClass: "SYSANALYTIC",
				})
			m.Router = router
			// Concurrency thresholds (queue activities action).
			m.Scheduler = scheduling.NewScheduler(scheduling.NewPriority(),
				scheduling.NewClassMPL(map[string]int{
					"SYSANALYTIC": 6,
					"SYSLOW":      2,
				}))
			// Admission thresholds: estimated cost limit on low-priority work.
			m.Admission = &admission.CostThreshold{
				Limits: map[policy.Priority]float64{
					policy.PriorityLow: 500_000,
				},
				QueueInstead: false,
			}
			// Execution thresholds: aging within the analytic class, stop
			// execution for true runaways.
			ager := execctl.NewAger(m.Engine(), []float64{4, 1, 0.25}, []float64{30, 120})
			killer := execctl.NewKiller(m.Engine(), 600)
			chainDispatch(m, func(rr *dbwlm.Running) {
				switch rr.Class.Name {
				case "SYSANALYTIC":
					ager.Manage(rr.Query.ID)
					killer.Manage(rr.Query.ID)
				case "SYSLOW", "default":
					killer.Manage(rr.Query.ID)
				}
			})
		},
	}
}

// SQLServerProfile emulates Microsoft SQL Server Resource Governor with the
// Query Governor Cost Limit option (Section 4.1.2): classifier functions
// route sessions into workload groups; groups live in resource pools with
// MIN/MAX CPU shares enforced by periodic reallocation; the cost-limit
// option disallows queries whose estimated execution time exceeds the limit.
func SQLServerProfile() *Profile {
	return &Profile{
		Name: "Microsoft SQL Server Resource/Query Governor",
		Attach: func(m *dbwlm.Manager) {
			pools, err := characterize.NewPoolSet(
				&characterize.ResourcePool{Name: "oltp_pool", MinCPU: 0.5, MaxCPU: 1, MaxMem: 1},
				&characterize.ResourcePool{Name: "bi_pool", MinCPU: 0.2, MaxCPU: 0.45, MaxMem: 1},
				&characterize.ResourcePool{Name: "default", MinCPU: 0, MaxCPU: 0.3, MaxMem: 1},
			)
			if err != nil {
				panic(err)
			}
			// Classifier functions (user-written criteria).
			router := characterize.NewRouter(&characterize.ServiceClass{
				Name: "default", Priority: policy.PriorityLow,
			}).
				AddClass(&characterize.ServiceClass{Name: "oltp_pool", Priority: policy.PriorityHigh}).
				AddClass(&characterize.ServiceClass{Name: "bi_pool", Priority: policy.PriorityMedium}).
				AddDef(&characterize.WorkloadDef{
					Name: "oltp", Match: characterize.CriteriaFunc{
						Name: "classify_oltp",
						Fn: func(r *workload.Request) bool {
							return r.Origin.App == "pos-terminal" || (r.Type == sqlmini.StmtWrite && r.Est.Timerons < 1000)
						},
					},
					ServiceClass: "oltp_pool",
				}).
				AddDef(&characterize.WorkloadDef{
					Name: "bi", Match: characterize.CriteriaFunc{
						Name: "classify_bi",
						Fn: func(r *workload.Request) bool {
							return r.Origin.App == "bi-dashboard" || r.Est.Timerons >= 1000
						},
					},
					ServiceClass: "bi_pool",
				})
			m.Router = router
			// Query Governor Cost Limit: disallow queries with estimated
			// execution time over the limit (reject, server-wide).
			m.Admission = &admission.CostThreshold{Limits: map[policy.Priority]float64{
				policy.PriorityLow:      2_000_000,
				policy.PriorityMedium:   8_000_000,
				policy.PriorityHigh:     0,
				policy.PriorityCritical: 0,
			}}
			// Memory-grant queueing: Resource Governor makes queries wait
			// for a memory grant when their pool's memory is exhausted;
			// emulated as per-pool concurrency limits sized from the pools'
			// MaxMem against typical analytic working sets.
			m.Scheduler = scheduling.NewScheduler(scheduling.NewPriority(),
				scheduling.NewClassMPL(map[string]int{
					"bi_pool": 4,
					"default": 2,
				}))
			// Pool-based dynamic reallocation: every 250ms recompute each
			// pool's effective share from which pools have demand and spread
			// the pool's weight across its running queries.
			shares := NewPoolShares(m, pools)
			m.Sim().Every(250*sim.Millisecond, func() bool {
				shares.Step()
				return true
			})
		},
	}
}

// PoolShares enforces Resource Governor pool shares on a manager's running
// queries: a pool is the service class of the same name, and each Step
// spreads the CPU share AllocateCPU gives the pools with queries in flight
// evenly over those queries as engine weights (at least 0.01), pools in
// declared order and queries by ascending ID. Once warm it allocates nothing.
type PoolShares struct {
	m      *dbwlm.Manager
	pools  *characterize.PoolSet
	demand []bool
	shares []float64
	ids    [][]int64 // each pool's in-flight query IDs, during a Step
}

// NewPoolShares returns the enforcement step for the pools over m.
func NewPoolShares(m *dbwlm.Manager, pools *characterize.PoolSet) *PoolShares {
	n := len(pools.Pools())
	return &PoolShares{m: m, pools: pools, demand: make([]bool, n), ids: make([][]int64, n)}
}

// Step sets the weights from the pools' current demand.
func (p *PoolShares) Step() {
	for i := range p.ids {
		p.ids[i] = p.ids[i][:0]
	}
	for _, q := range p.m.Engine().Live() {
		if rr := dbwlm.RunningOf(q); rr != nil {
			for i, pool := range p.pools.Pools() {
				if pool.Name == rr.Class.Name {
					p.ids[i] = append(p.ids[i], q.ID)
				}
			}
		}
	}
	for i, ids := range p.ids {
		p.demand[i] = len(ids) > 0
	}
	p.shares = p.pools.AllocateCPU(p.demand, p.shares)
	for i, ids := range p.ids {
		if len(ids) == 0 || p.shares[i] <= 0 {
			continue
		}
		per := max(0.01, 100*p.shares[i]/float64(len(ids)))
		for _, id := range ids {
			_ = p.m.Engine().SetWeight(id, per)
		}
	}
}

// TeradataProfile emulates Teradata Active System Management (Section
// 4.1.3): workload definitions with who/where/what classification criteria;
// object and query-resource filters rejecting unwanted work before
// execution; workload throttles delaying excess concurrency; and exception
// criteria with kill actions monitored during execution.
func TeradataProfile() *Profile {
	return &Profile{
		Name: "Teradata Active System Management",
		Attach: func(m *dbwlm.Manager) {
			router := characterize.NewRouter(&characterize.ServiceClass{
				Name: "WD-Default", Priority: policy.PriorityLow,
			}).
				AddClass(&characterize.ServiceClass{Name: "WD-Tactical", Priority: policy.PriorityCritical}).
				AddClass(&characterize.ServiceClass{Name: "WD-Analytic", Priority: policy.PriorityMedium}).
				AddClass(&characterize.ServiceClass{Name: "WD-Background", Priority: policy.PriorityLow}).
				// "who" criteria.
				AddDef(&characterize.WorkloadDef{
					Name: "oltp", Match: characterize.OriginMatcher{App: "pos-terminal"},
					ServiceClass: "WD-Tactical",
				}).
				// "what" criteria: estimated processing time.
				AddDef(&characterize.WorkloadDef{
					Name: "bi", Match: characterize.All{
						characterize.TypeMatcher{Types: []sqlmini.StatementType{sqlmini.StmtRead}},
						characterize.TypeMatcher{MinTimerons: 1000},
					},
					ServiceClass: "WD-Analytic",
				}).
				AddDef(&characterize.WorkloadDef{
					Name: "background", Match: characterize.TypeMatcher{
						Types: []sqlmini.StatementType{sqlmini.StmtCall, sqlmini.StmtLoad},
					},
					ServiceClass: "WD-Background",
				})
			m.Router = router
			// Query resource filters: reject work estimated to touch "too
			// many" rows or run "too long".
			m.Admission = &admission.Chain{Controllers: []admission.Controller{
				&admission.CostThreshold{Limits: map[policy.Priority]float64{
					policy.PriorityLow: 8_000,
				}},
				// Utility/system throttles: a global concurrency valve.
				&admission.MPLThreshold{Engine: m.Engine(), Max: 40},
			}}
			// Object throttles: per-workload-definition concurrency with a
			// delay queue.
			m.Scheduler = scheduling.NewScheduler(scheduling.NewPriority(),
				scheduling.NewClassMPL(map[string]int{
					"WD-Analytic":   5,
					"WD-Background": 1,
				}))
			// Exception criteria: CPU time and elapsed-time exceptions kill
			// the query (exception action).
			killer := execctl.NewKiller(m.Engine(), 900)
			chainDispatch(m, func(rr *dbwlm.Running) {
				if rr.Class.Name != "WD-Tactical" {
					killer.Manage(rr.Query.ID)
				}
			})
		},
	}
}

// Profiles returns the three Table 4 systems in paper order.
func Profiles() []*Profile {
	return []*Profile{DB2Profile(), SQLServerProfile(), TeradataProfile()}
}
