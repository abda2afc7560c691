package execctl

import (
	"math"
	"testing"
	"testing/quick"

	"dbwlm/internal/engine"
	"dbwlm/internal/metrics"
	"dbwlm/internal/sim"
)

func newEng(cfg engine.Config) (*sim.Simulator, *engine.Engine) {
	s := sim.New(1)
	return s, engine.New(s, cfg)
}

func TestAgerDemotesOnElapsed(t *testing.T) {
	s, e := newEng(engine.Config{Cores: 1, IOMBps: 1e9})
	a := NewAger(e, []float64{16, 4, 1}, []float64{1, 3})
	a.Events = metrics.NewRecorder(0)
	q := e.Submit(engine.QuerySpec{CPUWork: 100, Parallelism: 1}, 1, nil)
	m := &Managed{Query: q, Class: "bi"}
	a.Manage(m)
	if q.Weight != 16 {
		t.Fatalf("initial weight = %v, want top tier 16", q.Weight)
	}
	s.Run(sim.Time(2 * sim.Second))
	if m.Tier != 1 || q.Weight != 4 {
		t.Fatalf("after 2s: tier=%d weight=%v, want tier 1 weight 4", m.Tier, q.Weight)
	}
	s.Run(sim.Time(4 * sim.Second))
	if m.Tier != 2 || q.Weight != 1 {
		t.Fatalf("after 4s: tier=%d weight=%v, want tier 2 weight 1", m.Tier, q.Weight)
	}
	// No demotion past the bottom tier.
	s.Run(sim.Time(10 * sim.Second))
	if m.Tier != 2 {
		t.Fatal("demoted past bottom tier")
	}
	if a.Demotions() != 2 {
		t.Fatalf("demotions = %d", a.Demotions())
	}
}

func TestAgerRowsTrigger(t *testing.T) {
	s, e := newEng(engine.Config{Cores: 1, IOMBps: 1e9})
	a := NewAger(e, []float64{8, 1}, nil)
	a.RowsTrigger = 100
	q := e.Submit(engine.QuerySpec{CPUWork: 10, Rows: 10000, Parallelism: 1}, 1, nil)
	a.Manage(&Managed{Query: q})
	s.Run(sim.Time(2 * sim.Second)) // ~20% done -> 2000 rows > 100
	if q.Weight != 1 {
		t.Fatalf("rows trigger did not demote: weight=%v", q.Weight)
	}
}

func TestAgerForgetsFinishedQueries(t *testing.T) {
	s, e := newEng(engine.Config{Cores: 1, IOMBps: 1e9})
	a := NewAger(e, []float64{8, 1}, []float64{100})
	q := e.Submit(engine.QuerySpec{CPUWork: 0.1, Parallelism: 1}, 1, nil)
	a.Manage(&Managed{Query: q})
	s.Run(sim.Time(5 * sim.Second))
	if len(a.managed) != 0 {
		t.Fatal("finished query still managed")
	}
}

func TestEconomicReallocatorShiftsWeights(t *testing.T) {
	s, e := newEng(engine.Config{Cores: 4, IOMBps: 1e9})
	gold := e.Submit(engine.QuerySpec{CPUWork: 1000, Parallelism: 4}, 1, nil)
	bronze := e.Submit(engine.QuerySpec{CPUWork: 1000, Parallelism: 4}, 1, nil)
	att := map[string]float64{"gold": 0.3, "bronze": 5.0} // gold suffering
	r := &EconomicReallocator{
		Engine: e,
		Classes: []ClassImportance{
			{Name: "gold", Importance: 10},
			{Name: "bronze", Importance: 1},
		},
		Attainment: func(c string) float64 { return att[c] },
		QueriesOf: func(c string) []int64 {
			if c == "gold" {
				return []int64{gold.ID}
			}
			return []int64{bronze.ID}
		},
		Period: sim.Second,
	}
	r.Start()
	s.Run(sim.Time(3 * sim.Second))
	if r.rounds < 2 {
		t.Fatalf("rounds = %d", r.rounds)
	}
	w := r.lastWeights
	if w["gold"] <= w["bronze"] {
		t.Fatalf("suffering important class should outbid: %v", w)
	}
	if gold.Weight <= bronze.Weight {
		t.Fatalf("weights not applied to queries: gold=%v bronze=%v", gold.Weight, bronze.Weight)
	}
	// Once gold recovers, its bid collapses to the floor and weights converge.
	att["gold"] = 5.0
	s.Run(sim.Time(6 * sim.Second))
	w = r.lastWeights
	ratio := w["gold"] / w["bronze"]
	// Both at floor bids: ratio equals importance ratio (10), down from the
	// crisis allocation which was far higher.
	if ratio > 15 {
		t.Fatalf("gold kept crisis allocation after recovery: %v", w)
	}
}

func TestKillerKillsLongRunners(t *testing.T) {
	s, e := newEng(engine.Config{Cores: 1, IOMBps: 1e9})
	k := NewKiller(e, 2)
	k.Events = metrics.NewRecorder(0)
	var killed []int64
	var resubmits []bool
	k.OnKill = func(id int64, resubmit bool) {
		killed = append(killed, id)
		resubmits = append(resubmits, resubmit)
	}
	long := e.Submit(engine.QuerySpec{CPUWork: 100, Parallelism: 1}, 1, nil)
	short := e.Submit(engine.QuerySpec{CPUWork: 0.5, Parallelism: 1}, 1, nil)
	k.Manage(&Managed{Query: long})
	k.Manage(&Managed{Query: short})
	s.Run(sim.Time(10 * sim.Second))
	if len(killed) != 1 || killed[0] != long.ID {
		t.Fatalf("killed = %v, want only the long query %d", killed, long.ID)
	}
	if resubmits[0] {
		t.Fatal("resubmit not requested but reported")
	}
	if k.Kills() != 1 {
		t.Fatal("kill counter wrong")
	}
}

func TestKillerMaxRows(t *testing.T) {
	s, e := newEng(engine.Config{Cores: 1, IOMBps: 1e9})
	k := NewKiller(e, 0)
	k.MaxRows = 1000
	q := e.Submit(engine.QuerySpec{CPUWork: 10, Rows: 1_000_000, Parallelism: 1}, 1, nil)
	k.Manage(&Managed{Query: q})
	s.Run(sim.Time(5 * sim.Second))
	if q.State() != engine.StateKilled {
		t.Fatalf("row-limit kill did not fire: %v", q.State())
	}
}

func TestOptimalSuspendPlanExtremes(t *testing.T) {
	ops := []OpSuspendCost{
		{StateMB: 100, RedoSeconds: 10}, // dump: 1s+1s=2 vs goback 10 -> dump
		{StateMB: 1000, RedoSeconds: 1}, // dump: 10+10=20 vs goback 1 -> goback
	}
	// Generous suspend budget: per-op optima.
	p := OptimalSuspendPlan(ops, 100, 1e9)
	if p.Choices[0] != ChoiceDumpState || p.Choices[1] != ChoiceGoBack {
		t.Fatalf("choices = %v", p.Choices)
	}
	if math.Abs(p.SuspendSeconds-1) > 1e-9 || math.Abs(p.ResumeSeconds-2) > 1e-9 {
		t.Fatalf("costs = %v/%v", p.SuspendSeconds, p.ResumeSeconds)
	}
	// Tight suspend budget forces GoBack everywhere.
	p = OptimalSuspendPlan(ops, 100, 0.5)
	if p.Choices[0] != ChoiceGoBack || p.Choices[1] != ChoiceGoBack {
		t.Fatalf("tight budget choices = %v", p.Choices)
	}
	if p.SuspendSeconds != 0 {
		t.Fatalf("goback suspend cost = %v", p.SuspendSeconds)
	}
}

func TestOptimalSuspendPlanMatchesGreedy(t *testing.T) {
	// Property: for random small instances, exhaustive (n<=20) result never
	// exceeds the all-Dump or all-GoBack strategies in total cost, and
	// respects the suspend budget when feasible.
	f := func(states [6]uint8, redos [6]uint8, budgetRaw uint8) bool {
		ops := make([]OpSuspendCost, 6)
		var allDumpSus float64
		for i := range ops {
			ops[i] = OpSuspendCost{StateMB: float64(states[i]%100) + 1, RedoSeconds: float64(redos[i]%20) + 0.1}
			allDumpSus += ops[i].StateMB / 10
		}
		budget := float64(budgetRaw%50) / 4
		p := OptimalSuspendPlan(ops, 10, budget)
		// Budget respected when feasible (all-GoBack always feasible at 0).
		if p.SuspendSeconds > budget+1e-9 && p.SuspendSeconds != 0 {
			return false
		}
		// Never worse than all-GoBack.
		var allGo float64
		for _, op := range ops {
			allGo += op.RedoSeconds
		}
		if p.Total() > allGo+1e-9 {
			return false
		}
		// Never worse than all-Dump when all-Dump is feasible.
		if allDumpSus <= budget {
			var allDump float64
			for _, op := range ops {
				allDump += 2 * op.StateMB / 10
			}
			if p.Total() > allDump+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalSuspendPlanGreedyLargeN(t *testing.T) {
	ops := make([]OpSuspendCost, 30) // > 20 forces the greedy path
	for i := range ops {
		ops[i] = OpSuspendCost{StateMB: float64(10 * (i + 1)), RedoSeconds: float64(i + 1)}
	}
	p := OptimalSuspendPlan(ops, 100, 5)
	if p.SuspendSeconds > 5+1e-9 {
		t.Fatalf("greedy exceeded budget: %v", p.SuspendSeconds)
	}
	if len(p.Choices) != 30 {
		t.Fatal("wrong choice count")
	}
}

func TestSuspenderCycle(t *testing.T) {
	s, e := newEng(engine.Config{Cores: 2, IOMBps: 1000, MemoryMB: 4096})
	pressure := false
	sp := NewSuspender(e, func() bool { return pressure }, engine.SuspendGoBack)
	q := e.Submit(engine.QuerySpec{CPUWork: 20, MemMB: 500, Parallelism: 1}, 1, nil)
	sp.Manage(&Managed{Query: q})
	s.Run(sim.Time(2 * sim.Second))
	if q.State() != engine.StateRunning {
		t.Fatal("no pressure but not running")
	}
	pressure = true
	s.Run(sim.Time(3 * sim.Second))
	if q.State() != engine.StateSuspended {
		t.Fatalf("under pressure state = %v, want suspended", q.State())
	}
	if st := e.StatsNow(); st.MemDemandMB != 0 {
		t.Fatal("suspended query still holds memory")
	}
	pressure = false
	s.Run(sim.Time(4 * sim.Second))
	if q.State() != engine.StateRunning {
		t.Fatalf("pressure cleared but state = %v", q.State())
	}
	if sp.Suspends() != 1 || sp.resumes != 1 {
		t.Fatalf("suspends=%d resumes=%d", sp.Suspends(), sp.resumes)
	}
	s.Run(sim.Time(60 * sim.Second))
	if q.State() != engine.StateDone {
		t.Fatalf("query never finished: %v", q.State())
	}
}

func TestPIControllerConverges(t *testing.T) {
	// Plant: perfRatio = 0.5 + 0.5*throttle (linear, as Parekh assumes).
	c := &PIController{Target: 0.9}
	u := 0.0
	for i := 0; i < 100; i++ {
		perf := 0.5 + 0.5*u
		u = c.Update(perf)
	}
	finalPerf := 0.5 + 0.5*u
	if math.Abs(finalPerf-0.9) > 0.05 {
		t.Fatalf("PI converged to perf %v, want ~0.9 (u=%v)", finalPerf, u)
	}
}

func TestPIControllerBacksOff(t *testing.T) {
	c := &PIController{Target: 0.5}
	// Production perf far above target: throttle must go to zero.
	u := 0.5
	for i := 0; i < 50; i++ {
		u = c.Update(1.0)
	}
	if u != 0 {
		t.Fatalf("PI did not release throttle: %v", u)
	}
}

func TestStepControllerDiminishes(t *testing.T) {
	c := &StepController{Target: 0.9, InitialStep: 0.2}
	u1 := c.Update(0.5) // violated: up 0.2
	if math.Abs(u1-0.2) > 1e-9 {
		t.Fatalf("first step = %v", u1)
	}
	u2 := c.Update(0.95) // met: direction change, step halves to 0.1, down
	if math.Abs(u2-0.1) > 1e-9 {
		t.Fatalf("second step = %v, want 0.1", u2)
	}
	u3 := c.Update(0.5) // violated again: halves to 0.05, up
	if math.Abs(u3-0.15) > 1e-9 {
		t.Fatalf("third step = %v, want 0.15", u3)
	}
	// Output stays in [0, 0.95].
	for i := 0; i < 100; i++ {
		u := c.Update(0.1)
		if u < 0 || u > 0.95 {
			t.Fatalf("step output out of range: %v", u)
		}
	}
}

func TestBlackBoxJumpsToModelSolution(t *testing.T) {
	// Plant: perf = 0.6 + 0.4*u → target 0.9 needs u = 0.75.
	c := &BlackBoxController{Target: 0.9, MinSamples: 4}
	u := 0.0
	for i := 0; i < 30; i++ {
		perf := 0.6 + 0.4*u
		u = c.Update(perf)
	}
	if math.Abs(u-0.75) > 0.05 {
		t.Fatalf("black-box settled at u=%v, want ~0.75", u)
	}
}

func TestThrottlerConstantProtectsProduction(t *testing.T) {
	// Production OLTP stream shares a 2-core box with a monster query.
	// Unthrottled, production gets ~half the CPU; the throttler must give
	// it back ~90%.
	s, e := newEng(engine.Config{Cores: 2, IOMBps: 1e9})
	monster := e.Submit(engine.QuerySpec{CPUWork: 1e6, Parallelism: 2}, 1, nil)
	prod := e.Submit(engine.QuerySpec{CPUWork: 1e6, Parallelism: 2}, 1, nil)

	var lastProd float64
	perf := func() float64 {
		// Production performance ratio: measured CPU progress rate over the
		// baseline rate it would get alone (2 cores).
		cur := prod.CPUDone()
		rate := cur - lastProd
		lastProd = cur
		return rate / 2.0 // per 1s control period at 2 cores
	}
	th := NewThrottler(e, perf, &PIController{Target: 0.9}, MethodConstant)
	th.Manage(&Managed{Query: monster})
	s.Run(sim.Time(60 * sim.Second))
	if th.Amount() < 0.5 {
		t.Fatalf("throttle amount = %v, expected substantial throttling", th.Amount())
	}
	// Production rate at the end should be near 90% of 2 cores.
	before := prod.CPUDone()
	s.Run(sim.Time(70 * sim.Second))
	rate := (prod.CPUDone() - before) / 10
	if rate < 1.6 {
		t.Fatalf("production rate = %v cores, want >= 1.6 under throttling", rate)
	}
}

func TestThrottlerInterruptPausesAndReleases(t *testing.T) {
	s, e := newEng(engine.Config{Cores: 1, IOMBps: 1e9})
	q := e.Submit(engine.QuerySpec{CPUWork: 1e6, Parallelism: 1}, 1, nil)
	fixed := fixedController{amount: 0.5}
	th := NewThrottler(e, func() float64 { return 1 }, fixed, MethodInterrupt)
	th.InterruptWindow = 4 * sim.Second
	th.Period = sim.Second
	th.Manage(&Managed{Query: q})
	s.Run(sim.Time(20 * sim.Second))
	// With 50% interrupt throttling the query should have made roughly half
	// progress: pauses of 2s alternate with free runs.
	done := q.CPUDone()
	if done < 6 || done > 16 {
		t.Fatalf("interrupt-throttled progress = %v over 20s, want roughly half", done)
	}
}

type fixedController struct{ amount float64 }

func (f fixedController) Name() string           { return "fixed" }
func (f fixedController) Update(float64) float64 { return f.amount }

func TestThrottleMethodString(t *testing.T) {
	if MethodConstant.String() != "constant" || MethodInterrupt.String() != "interrupt" {
		t.Fatal("method names wrong")
	}
}

func TestKillerMaxCPUSeconds(t *testing.T) {
	s, e := newEng(engine.Config{Cores: 4, IOMBps: 1e9})
	k := NewKiller(e, 0)
	k.MaxCPUSeconds = 2
	hog := e.Submit(engine.QuerySpec{CPUWork: 100, Parallelism: 4}, 1, nil)
	light := e.Submit(engine.QuerySpec{CPUWork: 1, IOWork: 100, Parallelism: 1}, 1, nil)
	k.Manage(&Managed{Query: hog})
	k.Manage(&Managed{Query: light})
	s.Run(sim.Time(5 * sim.Second))
	if hog.State() != engine.StateKilled {
		t.Fatalf("CPU hog not killed: %v (cpu=%v)", hog.State(), hog.CPUDone())
	}
	if light.State() == engine.StateKilled {
		t.Fatal("light query killed despite low CPU consumption")
	}
}
