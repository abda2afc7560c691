// Autonomic: the Section 5.3 vision running live — dbwlm.EnableAutonomic
// attaches a MAPE feedback loop that monitors per-workload SLO attainment,
// diagnoses violations, plans the cheapest effective control action per
// victim query by utility score (throttle vs suspend vs kill), executes it
// on the engine, and resumes suspended work once the system is healthy.
//
//	go run ./examples/autonomic
package main

import (
	"fmt"

	"dbwlm"
	"dbwlm/internal/autonomic"
	"dbwlm/internal/engine"
	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
	"dbwlm/internal/workload"
)

func main() {
	s := sim.New(9)
	m := dbwlm.New(s, engine.Config{Cores: 8, MemoryMB: 4096, IOMBps: 800})
	am := dbwlm.EnableAutonomic(m)

	gens := []workload.Generator{
		&workload.OLTPGen{WorkloadName: "oltp", Rate: 80,
			Priority: policy.PriorityHigh,
			SLO:      policy.AvgResponseTime(300 * sim.Millisecond),
			Seq:      &workload.Sequence{}},
		&workload.AdHocGen{WorkloadName: "adhoc", Rate: 0.15,
			Priority: policy.PriorityLow, SLO: policy.BestEffort(),
			MonsterProb: 0.5, Seq: &workload.Sequence{}},
	}
	m.RunWorkload(gens, 180*sim.Second, 90*sim.Second)

	fmt.Print(m.Report())
	fmt.Printf("\nMAPE loop: %d cycles, %d symptoms, %d actions\n",
		am.Loop.Cycles(), am.Loop.Symptoms(), am.Loop.Actions())
	// Render action counts in declared kind order, not map order, so repeated
	// runs print byte-identical reports.
	actions := am.Actions()
	for kind := autonomic.ActionThrottle; kind <= autonomic.ActionNone; kind++ {
		if n := actions[kind]; n > 0 {
			fmt.Printf("  %v: %d\n", kind, n)
		}
	}
	fmt.Printf("OLTP SLA met: %v\n", m.Attainment("oltp").Met)
	fmt.Println()
	fmt.Println("live dashboard at end of run:")
	fmt.Print(m.Dashboard())
}
