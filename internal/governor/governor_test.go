package governor

import (
	"testing"

	"dbwlm"
	"dbwlm/internal/characterize"
	"dbwlm/internal/engine"
	"dbwlm/internal/sim"
	"dbwlm/internal/workload"
)

// runProfile drives the consolidated scenario under a profile and returns
// the manager for inspection.
func runProfile(t *testing.T, p *Profile, seed uint64) *dbwlm.Manager {
	t.Helper()
	s := sim.New(seed)
	m := dbwlm.New(s, engine.Config{Cores: 8, MemoryMB: 4096, IOMBps: 800})
	p.Attach(m)
	gens := workload.Consolidated(s.RNG().Fork(1), workload.ScenarioConfig{
		OLTPRate: 40, BIRate: 0.05, AdHocRate: 0.12, MonsterProb: 0.4,
	})
	m.RunWorkload(gens, 120*sim.Second, 60*sim.Second)
	return m
}

// TestProfilesListAndClasses: Profiles lists the three Table 4 systems in
// the table's order, each with an Attach.
func TestProfilesListAndClasses(t *testing.T) {
	ps := Profiles()
	want := []string{"IBM DB2 Workload Manager", "Microsoft SQL Server Resource/Query Governor", "Teradata Active System Management"}
	if len(ps) != len(want) {
		t.Fatalf("profiles = %d, want %d", len(ps), len(want))
	}
	for i, p := range ps {
		if p.Name != want[i] || p.Attach == nil {
			t.Fatalf("profile %d = %q (attach set %v), want %q", i, p.Name, p.Attach != nil, want[i])
		}
	}
}

func TestDB2ProfileRoutesAndProtectsOLTP(t *testing.T) {
	m := runProfile(t, DB2Profile(), 1)
	oltp := m.Stats().Workload("oltp")
	if oltp.Completed.Value() < 3000 {
		t.Fatalf("oltp completed = %d", oltp.Completed.Value())
	}
	if !m.Attainment("oltp").Met {
		t.Fatalf("DB2 profile failed OLTP SLA: %v", m.Report())
	}
	// Analytic work was classified and ran.
	if m.Stats().Workload("analytic").Completed.Value() == 0 {
		t.Fatal("no analytic work classified")
	}
}

func TestSQLServerProfileEnforcesPools(t *testing.T) {
	m := runProfile(t, SQLServerProfile(), 2)
	if !m.Attainment("oltp").Met {
		t.Fatalf("SQL Server profile failed OLTP SLA:\n%v", m.Report())
	}
	if m.Stats().Workload("bi").Completed.Value() == 0 {
		t.Fatal("bi pool did no work")
	}
}

func TestTeradataProfileFiltersAndThrottles(t *testing.T) {
	m := runProfile(t, TeradataProfile(), 3)
	if !m.Attainment("oltp").Met {
		t.Fatalf("Teradata profile failed OLTP SLA:\n%v", m.Report())
	}
	// Filters must have rejected some oversized ad-hoc work.
	rejected := m.Stats().Workload("WD-Default").Rejected.Value() +
		m.Stats().Workload("adhoc").Rejected.Value() +
		m.Stats().Workload("bi").Rejected.Value()
	if rejected == 0 {
		t.Log(m.Report())
		t.Fatal("Teradata filters rejected nothing")
	}
}

func TestProfilesBeatNoWLMOnOLTP(t *testing.T) {
	// The Table 4 headline: every commercial profile keeps the OLTP SLA
	// under consolidation pressure; the unmanaged server does not.
	baseline := func(seed uint64) *dbwlm.Manager {
		s := sim.New(seed)
		m := dbwlm.New(s, engine.Config{Cores: 8, MemoryMB: 4096, IOMBps: 800})
		// No WLM: every request runs immediately at uniform weight.
		m.Router = characterize.NewRouter(&characterize.ServiceClass{Name: "flat", Weight: 1})
		gens := workload.Consolidated(s.RNG().Fork(1), workload.ScenarioConfig{
			OLTPRate: 40, BIRate: 0.05, AdHocRate: 0.12, MonsterProb: 0.4,
		})
		m.RunWorkload(gens, 120*sim.Second, 60*sim.Second)
		return m
	}
	base := baseline(1)
	baseRT := base.Stats().Workload("oltp").Response.Mean()
	for _, p := range Profiles() {
		m := runProfile(t, p, 1)
		rt := m.Stats().Workload("oltp").Response.Mean()
		if rt >= baseRT {
			t.Fatalf("%s did not improve OLTP mean RT: %v vs baseline %v", p.Name, rt, baseRT)
		}
	}
}

func TestOracleProfileProtectsInteractive(t *testing.T) {
	m := runProfile(t, OracleProfile(), 4)
	if !m.Attainment("oltp").Met {
		t.Fatalf("Oracle profile failed OLTP SLA:\n%v", m.Report())
	}
	if m.Stats().Workload("reporting").Completed.Value() == 0 {
		t.Fatal("reporting group did no work")
	}
}

// TestPoolSharesMatchesMapLoop runs the SQL Server profile and, every
// 700 ms of virtual time, holds one PoolShares step over the same pools to
// the loop it replaced — a demand map from RunningAll, shares by pool name,
// and one QueriesOfClass list per pool — comparing the weight each in-flight
// query ends with, bit for bit. Once warm the step allocates nothing.
func TestPoolSharesMatchesMapLoop(t *testing.T) {
	s := sim.New(3)
	m := dbwlm.New(s, engine.Config{Cores: 8, MemoryMB: 4096, IOMBps: 800})
	SQLServerProfile().Attach(m)
	pools, err := characterize.NewPoolSet(
		&characterize.ResourcePool{Name: "oltp_pool", MinCPU: 0.5, MaxCPU: 1, MaxMem: 1},
		&characterize.ResourcePool{Name: "bi_pool", MinCPU: 0.2, MaxCPU: 0.45, MaxMem: 1},
		&characterize.ResourcePool{Name: "default", MinCPU: 0, MaxCPU: 0.3, MaxMem: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	step := NewPoolShares(m, pools)
	checks, weighted := 0, 0
	allocs := -1.0
	s.Every(700*sim.Millisecond, func() bool {
		demand := map[string]bool{}
		for _, rr := range m.RunningAll() {
			demand[rr.Class.Name] = true
		}
		d := make([]bool, len(pools.Pools()))
		for i, p := range pools.Pools() {
			d[i] = demand[p.Name]
		}
		alloc := pools.AllocateCPU(d, nil)
		want := map[int64]float64{}
		for i, p := range pools.Pools() {
			var ids []int64
			for _, rr := range m.RunningAll() {
				if rr.Class.Name == p.Name {
					ids = append(ids, rr.Query.ID)
				}
			}
			if len(ids) == 0 || alloc[i] <= 0 {
				continue
			}
			per := 100 * alloc[i] / float64(len(ids))
			if per < 0.01 {
				per = 0.01
			}
			for _, id := range ids {
				want[id] = per
			}
		}
		before := map[int64]float64{}
		for _, q := range m.Engine().Live() {
			before[q.ID] = q.Weight
		}
		step.Step()
		for _, q := range m.Engine().Live() {
			w, ok := want[q.ID]
			if !ok || q.State().Terminal() {
				w = before[q.ID]
			} else {
				weighted++
			}
			if q.Weight != w {
				t.Fatalf("at %v query %d has weight %v, the map loop gives %v", s.Now(), q.ID, q.Weight, w)
			}
		}
		checks++
		if allocs < 0 && len(want) >= 8 {
			allocs = testing.AllocsPerRun(20, step.Step)
		}
		return true
	})
	m.RunWorkload(workload.Consolidated(s.RNG().Fork(1), workload.ScenarioConfig{
		OLTPRate: 40, BIRate: 0.08, AdHocRate: 0.25, MonsterProb: 0.5,
	}), 60*sim.Second, 30*sim.Second)
	if checks < 100 || weighted == 0 || allocs < 0 {
		t.Fatalf("%d checks, %d weights set, allocations measured: %v; the run exercised too little", checks, weighted, allocs >= 0)
	}
	if allocs != 0 {
		t.Fatalf("a warm step with queries in flight allocates %v times", allocs)
	}
}
