// Resourcegovernor: a SQL Server Resource Governor-style configuration
// built by hand from the framework's pieces — classifier functions routing
// sessions into workload groups, resource pools with MIN/MAX CPU shares,
// and a reallocation loop enforcing the pool shares on running queries —
// on a multi-tenant mix where one tenant misbehaves.
//
//	go run ./examples/resourcegovernor
package main

import (
	"fmt"

	"dbwlm"
	"dbwlm/internal/characterize"
	"dbwlm/internal/engine"
	"dbwlm/internal/governor"
	"dbwlm/internal/policy"
	"dbwlm/internal/scheduling"
	"dbwlm/internal/sim"
	"dbwlm/internal/workload"
)

func main() {
	s := sim.New(3)
	m := dbwlm.New(s, engine.Config{Cores: 8, MemoryMB: 4096, IOMBps: 800})

	// Two tenant pools: tenant A is guaranteed 60% of the CPU, tenant B is
	// capped at 35% so its misbehaving analytics cannot take the server.
	pools, err := characterize.NewPoolSet(
		&characterize.ResourcePool{Name: "tenantA", MinCPU: 0.6, MaxCPU: 1.0, MaxMem: 1},
		&characterize.ResourcePool{Name: "tenantB", MinCPU: 0.1, MaxCPU: 0.35, MaxMem: 1},
	)
	if err != nil {
		panic(err)
	}

	// Classifier functions route by client app (the session attribute a real
	// classifier function would inspect).
	m.Router = characterize.NewRouter(nil).
		AddClass(&characterize.ServiceClass{Name: "tenantA", Priority: policy.PriorityHigh}).
		AddClass(&characterize.ServiceClass{Name: "tenantB", Priority: policy.PriorityMedium}).
		AddDef(&characterize.WorkloadDef{
			Name: "tenantA",
			Match: characterize.CriteriaFunc{Name: "classify_a",
				Fn: func(r *workload.Request) bool { return r.Origin.App == "pos-terminal" }},
			ServiceClass: "tenantA",
		}).
		AddDef(&characterize.WorkloadDef{
			Name: "tenantB",
			Match: characterize.CriteriaFunc{Name: "classify_b",
				Fn: func(r *workload.Request) bool { return r.Origin.App != "pos-terminal" }},
			ServiceClass: "tenantB",
		})

	// Memory grants: tenant B's analytics wait for a memory grant when the
	// pool's memory is exhausted (emulated as a per-pool concurrency limit,
	// as in Resource Governor's memory governance).
	m.Scheduler = scheduling.NewScheduler(scheduling.NewPriority(),
		scheduling.NewClassMPL(map[string]int{"tenantB": 2}))

	// The reallocation loop: compute each pool's effective share from demand
	// and spread it over the pool's running queries.
	shares := governor.NewPoolShares(m, pools)
	s.Every(250*sim.Millisecond, func() bool {
		shares.Step()
		return true
	})

	gens := []workload.Generator{
		&workload.OLTPGen{WorkloadName: "tenantA-oltp", Rate: 60,
			Priority: policy.PriorityHigh,
			SLO:      policy.AvgResponseTime(300 * sim.Millisecond),
			Seq:      &workload.Sequence{}},
		// Tenant B floods the server with heavy analytics.
		&workload.AdHocGen{WorkloadName: "tenantB-analytics", Rate: 0.3,
			Priority: policy.PriorityMedium, SLO: policy.BestEffort(),
			MonsterProb: 0.5, Seq: &workload.Sequence{}},
	}
	m.RunWorkload(gens, 120*sim.Second, 60*sim.Second)

	fmt.Print(m.Report())
	fmt.Printf("\ntenant A SLA met: %v\n", m.Attainment("tenantA").Met)
}
