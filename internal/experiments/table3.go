package experiments

import (
	"dbwlm"
	"dbwlm/internal/engine"
	"dbwlm/internal/execctl"
	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
	"dbwlm/internal/workload"
)

// Table3Variant names an execution-control approach (a Table 3 row).
type Table3Variant string

// Table 3 variants: baseline plus the paper's five approaches (throttling
// measured with the PI controller; suspend-and-resume with both strategies
// folded into the A2 ablation).
const (
	T3None          Table3Variant = "no-control"
	T3PriorityAging Table3Variant = "priority-aging"
	T3Realloc       Table3Variant = "policy-realloc"
	T3Kill          Table3Variant = "query-kill"
	T3SuspendResume Table3Variant = "suspend-resume"
	T3Throttle      Table3Variant = "throttling-pi"
)

// Table3Variants lists all variants in paper order.
func Table3Variants() []Table3Variant {
	return []Table3Variant{T3None, T3PriorityAging, T3Realloc, T3Kill, T3SuspendResume, T3Throttle}
}

// Table3Scenario: a high-priority OLTP stream shares the server with a
// burst of problematic analytical queries (badly underestimated monster
// scans with large working sets) — the execution-control motivation of
// Section 2.3.
type Table3Scenario struct {
	Seed uint64 // default 11
}

// The Table 3 scenario's shape.
const (
	// t3OLTPRate is the OLTP stream's arrivals per second.
	t3OLTPRate = 60
	// t3Monsters problematic queries arrive together at t3MonsterAt.
	t3Monsters  = 6
	t3MonsterAt = sim.Time(20 * sim.Second)
	// t3Horizon is how long arrivals run; a 60 s drain follows.
	t3Horizon = 120 * sim.Second
)

func (c Table3Scenario) withDefaults() Table3Scenario {
	if c.Seed == 0 {
		c.Seed = 11
	}
	return c
}

// RunTable3Variant runs the problematic-query scenario under one
// execution-control approach.
func RunTable3Variant(v Table3Variant, sc Table3Scenario) Row {
	sc = sc.withDefaults()
	s, m := NewManager(sc.Seed)
	m.Router = UniformRouter()

	// Execution controllers, armed per-variant at dispatch time.
	var ager *execctl.Ager
	var killer *execctl.Killer
	var suspender *execctl.Suspender
	var throttler *execctl.Throttler
	var realloc *execctl.EconomicReallocator

	switch v {
	case T3PriorityAging:
		ager = execctl.NewAger(m.Engine(), []float64{1, 0.25, 0.05}, []float64{10, 40})
	case T3Kill:
		killer = execctl.NewKiller(m.Engine(), 20)
	case T3SuspendResume:
		suspender = execctl.NewSuspender(m.Engine(), func() bool {
			// Pressure: the server's memory is overcommitted (the condition
			// the monsters create) or the OLTP class is missing its goal.
			return m.Engine().StatsNow().MemPressure > 1.05 || !m.Attainment("oltp").Met
		}, engine.SuspendDumpState)
	case T3Throttle:
		var lastDone float64
		var lastAt sim.Time
		perf := func() float64 {
			// Production performance: OLTP completions per second over the
			// offered rate.
			ws := m.Stats().Workload("oltp")
			now := m.Now()
			done := float64(ws.Completed.Value())
			dt := now.Sub(lastAt).Seconds()
			rate := 0.0
			if dt > 0 {
				rate = (done - lastDone) / dt
			}
			lastDone, lastAt = done, now
			return rate / t3OLTPRate
		}
		throttler = execctl.NewThrottler(m.Engine(), perf, &execctl.PIController{}, execctl.MethodConstant)
	case T3Realloc:
		realloc = &execctl.EconomicReallocator{
			Engine: m.Engine(),
			Classes: []execctl.ClassImportance{
				{Name: "flat", Importance: 1},
			},
			Attainment: func(string) float64 { return 1 },
			QueriesOf:  func(string) []int64 { return nil },
		}
		// Replaced below once classes are known; the reallocator works on
		// the oltp/monster split directly.
		realloc.Classes = []execctl.ClassImportance{
			{Name: "oltp", Importance: 10},
			{Name: "monster", Importance: 1},
		}
		realloc.Attainment = func(class string) float64 {
			if class == "oltp" {
				return m.Attainment("oltp").Ratio
			}
			return 10 // monsters are best-effort: always comfortably "met"
		}
		realloc.QueriesOf = func(class string) []int64 {
			var out []int64
			for _, rr := range m.RunningAll() {
				isMonster := rr.Req.Workload == "monster"
				if (class == "monster") == isMonster {
					out = append(out, rr.Query.ID)
				}
			}
			return out
		}
		realloc.Start()
	}

	m.OnDispatch = func(rr *dbwlm.Running) {
		if rr.Req.Workload != "monster" {
			// Under reallocation, arrivals between auctions inherit the
			// auction outcome.
			if realloc != nil {
				pop := 0
				for _, q := range m.Engine().Live() {
					if r := dbwlm.RunningOf(q); r != nil && r.Req.Workload != "monster" {
						pop++
					}
				}
				_ = m.Engine().SetWeight(rr.Query.ID, realloc.WeightFor("oltp", pop))
			}
			return
		}
		id := rr.Query.ID
		switch {
		case ager != nil:
			ager.Manage(id)
		case killer != nil:
			killer.Manage(id)
		case suspender != nil:
			suspender.Manage(id)
		case throttler != nil:
			throttler.Manage(id)
		}
	}

	// Workload: OLTP stream plus a monster burst.
	oltp := &workload.OLTPGen{
		WorkloadName: "oltp",
		Rate:         t3OLTPRate,
		Priority:     policy.PriorityHigh,
		SLO:          policy.AvgResponseTime(300 * sim.Millisecond),
		Seq:          &workload.Sequence{},
	}
	rng := s.RNG().Fork(99)
	monsters := &workload.BatchGen{
		WorkloadName: "monster",
		At:           t3MonsterAt,
		Count:        t3Monsters,
		Priority:     policy.PriorityLow,
		SLO:          policy.BestEffort(),
		Draw: func(i int, now sim.Time) *workload.Request {
			spec := engine.QuerySpec{
				CPUWork:     70 + rng.Float64()*30,
				IOWork:      1800 + rng.Float64()*600,
				MemMB:       1500 + rng.Float64()*500,
				Parallelism: 4,
				Rows:        5_000_000,
				StateMB:     250,
			}
			r := workload.NewRequest()
			*r = workload.Request{
				ID:   int64(1_000_000 + i),
				SQL:  append(r.SQL, "SELECT * FROM sales_fact WHERE amount > 0"...),
				True: spec,
				Est: workload.Estimates{ // badly underestimated
					CPUSeconds: spec.CPUWork / 8, IOMB: spec.IOWork / 8,
					MemMB: spec.MemMB / 2, Rows: float64(spec.Rows) / 8,
					Timerons: workload.TimeronsOf(spec.CPUWork/8, spec.IOWork/8),
				},
				Arrive: now,
			}
			return r
		},
	}
	m.RunWorkload([]workload.Generator{oltp, monsters}, t3Horizon, 60*sim.Second)

	ows := m.Stats().Workload("oltp")
	mws := m.Stats().Workload("monster")
	suspends := float64(mws.Suspends.Value())
	if suspender != nil {
		suspends = float64(suspender.Suspends())
	}
	row := Row{
		Name: string(v),
		Metrics: map[string]float64{
			"oltp_mean_s":  ows.Response.Mean(),
			"oltp_p95_s":   ows.Response.Percentile(95),
			"oltp_thr":     ows.OverallThroughput(),
			"oltp_done":    float64(ows.Completed.Value()),
			"monster_done": float64(mws.Completed.Value()),
			"monster_kill": float64(mws.Killed.Value()),
			"monster_susp": suspends,
		},
		Order: []string{"oltp_mean_s", "oltp_p95_s", "oltp_thr", "oltp_done", "monster_done", "monster_kill", "monster_susp"},
	}
	return row
}

// RunTable3 runs all variants, fanned out across the worker pool.
func RunTable3(sc Table3Scenario) ResultTable {
	vs := Table3Variants()
	t := ResultTable{Title: "Table 3: execution-control approaches vs problematic queries"}
	t.Rows = RunRows(len(vs), func(i int) Row { return RunTable3Variant(vs[i], sc) })
	return t
}
