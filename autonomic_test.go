package dbwlm

import (
	"testing"

	"dbwlm/internal/engine"
	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
	"dbwlm/internal/workload"
)

func TestEnableAutonomicProtectsOLTP(t *testing.T) {
	s := sim.New(1)
	m := New(s, engine.Config{Cores: 8, MemoryMB: 4096, IOMBps: 800})
	am := EnableAutonomic(m)

	gens := []workload.Generator{
		oltpGen(60),
		&workload.BatchGen{
			WorkloadName: "monsters", At: sim.Time(10 * sim.Second), Count: 5,
			Priority: policy.PriorityLow, SLO: policy.BestEffort(),
			Draw: func(i int, now sim.Time) *workload.Request {
				return &workload.Request{
					ID: int64(100 + i), Workload: "monsters",
					True: engine.QuerySpec{CPUWork: 80, IOWork: 1800, MemMB: 1600,
						Parallelism: 4, StateMB: 200},
					Arrive: now,
				}
			},
		},
	}
	m.RunWorkload(gens, 90*sim.Second, 60*sim.Second)

	if !m.Attainment("oltp").Met {
		t.Fatalf("autonomic manager failed the OLTP SLA:\n%s", m.Report())
	}
	if am.Loop.Cycles() == 0 {
		t.Fatal("MAPE loop never ran")
	}
	total := int64(0)
	for _, n := range am.Actions() {
		total += n
	}
	if total == 0 {
		t.Fatal("no control actions executed despite monster burst")
	}
}

func TestAutonomicResumesWhenHealthy(t *testing.T) {
	s := sim.New(3)
	m := New(s, engine.Config{Cores: 8, MemoryMB: 4096, IOMBps: 800})
	am := EnableAutonomic(m)
	// One short monster burst; after OLTP recovers, suspended monsters must
	// be resumed and eventually complete.
	gens := []workload.Generator{
		oltpGen(40),
		&workload.BatchGen{
			WorkloadName: "monsters", At: sim.Time(5 * sim.Second), Count: 2,
			Priority: policy.PriorityLow, SLO: policy.BestEffort(),
			Draw: func(i int, now sim.Time) *workload.Request {
				return &workload.Request{
					ID: int64(100 + i), Workload: "monsters",
					True:   engine.QuerySpec{CPUWork: 20, IOWork: 600, MemMB: 2500, Parallelism: 4, StateMB: 100},
					Arrive: now,
				}
			},
		},
	}
	m.RunWorkload(gens, 60*sim.Second, 300*sim.Second)
	done := m.Stats().Workload("monsters").Completed.Value()
	if done != 2 {
		t.Fatalf("suspended monsters did not complete after resume: done=%d actions=%v\n%s",
			done, am.Actions(), m.Report())
	}
}
