package execctl

import (
	"math"
	"testing"
	"testing/quick"

	"dbwlm/internal/engine"
	"dbwlm/internal/sim"
)

func newEng(cfg engine.Config) (*sim.Simulator, *engine.Engine) {
	s := sim.New(1)
	return s, engine.New(s, cfg)
}

func TestAgerDemotesOnElapsed(t *testing.T) {
	s, e := newEng(engine.Config{Cores: 1, IOMBps: 1e9})
	a := NewAger(e, []float64{16, 4, 1}, []float64{1, 3})
	q := e.Submit(engine.QuerySpec{CPUWork: 100, Parallelism: 1}, 1, nil)
	a.Manage(q.ID)
	m := &a.managed.queries[0]
	if q.Weight != 16 {
		t.Fatalf("initial weight = %v, want top tier 16", q.Weight)
	}
	s.Run(sim.Time(2 * sim.Second))
	if m.tier != 1 || q.Weight != 4 {
		t.Fatalf("after 2s: tier=%d weight=%v, want tier 1 weight 4", m.tier, q.Weight)
	}
	s.Run(sim.Time(4 * sim.Second))
	if m.tier != 2 || q.Weight != 1 {
		t.Fatalf("after 4s: tier=%d weight=%v, want tier 2 weight 1", m.tier, q.Weight)
	}
	// No demotion past the bottom tier.
	s.Run(sim.Time(10 * sim.Second))
	if m.tier != 2 {
		t.Fatal("demoted past bottom tier")
	}
	if a.Demotions() != 2 {
		t.Fatalf("demotions = %d", a.Demotions())
	}
}

func TestAgerForgetsFinishedQueries(t *testing.T) {
	s, e := newEng(engine.Config{Cores: 1, IOMBps: 1e9})
	a := NewAger(e, []float64{8, 1}, []float64{100})
	q := e.Submit(engine.QuerySpec{CPUWork: 0.1, Parallelism: 1}, 1, nil)
	a.Manage(q.ID)
	s.Run(sim.Time(5 * sim.Second))
	if len(a.managed.queries) != 0 {
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
	}
	r.Start()
	s.Run(sim.Time(3 * sim.Second))
	if r.rounds < 2 {
		t.Fatalf("rounds = %d", r.rounds)
	}
	const goldPos, bronzePos = 0, 1 // positions in Classes
	w := r.weights
	if w[goldPos] <= w[bronzePos] {
		t.Fatalf("suffering important class should outbid: %v", w)
	}
	if gold.Weight <= bronze.Weight {
		t.Fatalf("weights not applied to queries: gold=%v bronze=%v", gold.Weight, bronze.Weight)
	}
	// Once gold recovers, its bid collapses to the floor and weights converge.
	att["gold"] = 5.0
	s.Run(sim.Time(6 * sim.Second))
	w = r.weights
	ratio := w[goldPos] / w[bronzePos]
	// Both at floor bids: ratio equals importance ratio (10), down from the
	// crisis allocation which was far higher.
	if ratio > 15 {
		t.Fatalf("gold kept crisis allocation after recovery: %v", w)
	}
}

func TestKillerKillsLongRunners(t *testing.T) {
	s, e := newEng(engine.Config{Cores: 1, IOMBps: 1e9})
	k := NewKiller(e, 2)
	outcomes := map[int64]engine.Outcome{}
	record := func(q *engine.Query, oc engine.Outcome) { outcomes[q.ID] = oc }
	long := e.Submit(engine.QuerySpec{CPUWork: 100, Parallelism: 1}, 1, record)
	short := e.Submit(engine.QuerySpec{CPUWork: 0.5, Parallelism: 1}, 1, record)
	k.Manage(long.ID)
	k.Manage(short.ID)
	s.Run(sim.Time(10 * sim.Second))
	if outcomes[long.ID] != engine.OutcomeKilled || outcomes[short.ID] != engine.OutcomeCompleted {
		t.Fatalf("outcomes = %v, want only the long query %d killed", outcomes, long.ID)
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
	k.Manage(q.ID)
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
	sp.Manage(q.ID)
	s.Run(sim.Time(2 * sim.Second))
	if q.State() != engine.StateRunning {
		t.Fatal("no pressure but not running")
	}
	pressure = true
	s.Run(sim.Time(3 * sim.Second))
	if q.State() != engine.StateSuspended {
		t.Fatalf("under pressure state = %v, want suspended", q.State())
	}
	if st := e.StatsNow(); st.MemPressure != 0 {
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

// TestSuspenderWithoutProgressIndicatorSuspendsAll holds the Suspender to
// suspending every running managed query under pressure, however close to
// done it is: victim choice reads no progress indicator.
func TestSuspenderWithoutProgressIndicatorSuspendsAll(t *testing.T) {
	s, e := newEng(engine.Config{Cores: 4, IOMBps: 1000})
	sp := NewSuspender(e, func() bool { return true }, engine.SuspendGoBack)
	q := e.Submit(engine.QuerySpec{CPUWork: 5, Parallelism: 1}, 1, nil)
	sp.Manage(q.ID)
	s.Run(sim.Time(sim.Second))
	if q.State() != engine.StateSuspended {
		t.Fatalf("state = %v, want suspended", q.State())
	}
}

func TestPIControllerConverges(t *testing.T) {
	// Plant: perfRatio = 0.5 + 0.5*throttle (linear, as Parekh assumes).
	c := &PIController{}
	u := 0.0
	for i := 0; i < 100; i++ {
		perf := 0.5 + 0.5*u
		u = c.Update(perf)
	}
	finalPerf := 0.5 + 0.5*u
	if math.Abs(finalPerf-throttleTarget) > 0.05 {
		t.Fatalf("PI converged to perf %v, want ~%v (u=%v)", finalPerf, throttleTarget, u)
	}
}

func TestPIControllerBacksOff(t *testing.T) {
	c := &PIController{}
	// Production perf above target: throttle must go to zero.
	u := 0.5
	for i := 0; i < 50; i++ {
		u = c.Update(1.0)
	}
	if u != 0 {
		t.Fatalf("PI did not release throttle: %v", u)
	}
}

func TestStepControllerDiminishes(t *testing.T) {
	c := &StepController{}
	u1 := c.Update(0.5) // violated: up 0.2
	if math.Abs(u1-0.2) > 1e-9 {
		t.Fatalf("first step = %v", u1)
	}
	u2 := c.Update(1.0) // met: direction change, step halves to 0.1, down
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
	// Plant: perf = 0.6 + 0.4*u → target 0.95 needs u = 0.875.
	c := &BlackBoxController{}
	u := 0.0
	for i := 0; i < 30; i++ {
		perf := 0.6 + 0.4*u
		u = c.Update(perf)
	}
	if want := (throttleTarget - 0.6) / 0.4; math.Abs(u-want) > 0.05 {
		t.Fatalf("black-box settled at u=%v, want ~%v", u, want)
	}
}

func TestThrottlerConstantProtectsProduction(t *testing.T) {
	// Production OLTP stream shares a 2-core box with a monster query.
	// Unthrottled, production gets ~half the CPU; the throttler must give
	// it back ~95%.
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
	th := NewThrottler(e, perf, &PIController{}, MethodConstant)
	th.Manage(monster.ID)
	s.Run(sim.Time(60 * sim.Second))
	if th.Amount() < 0.5 {
		t.Fatalf("throttle amount = %v, expected substantial throttling", th.Amount())
	}
	// Production rate at the end should be near 95% of 2 cores.
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
	th.Manage(q.ID)
	s.Run(sim.Time(20 * sim.Second))
	// With 50% interrupt throttling the query should have made roughly half
	// progress: pauses of 4s alternate with free runs.
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
	k.Manage(hog.ID)
	k.Manage(light.ID)
	s.Run(sim.Time(5 * sim.Second))
	if hog.State() != engine.StateKilled {
		t.Fatalf("CPU hog not killed: %v (cpu=%v)", hog.State(), hog.CPUDone())
	}
	if light.State() == engine.StateKilled {
		t.Fatal("light query killed despite low CPU consumption")
	}
}

// TestControllersIgnoreRecycledQuery pins that a controller's registration
// ends with its query: a Killer and an Ager that managed a query which then
// finished must not act on the long-running query the engine recycles its
// object into. Both key their sweeps by query ID, not by the object.
func TestControllersIgnoreRecycledQuery(t *testing.T) {
	s, e := newEng(engine.Config{Cores: 4, IOMBps: 1e9})
	k := NewKiller(e, 2)
	a := NewAger(e, []float64{8, 1}, []float64{1})
	// The keeper keeps the quantum loop running, so a tick compacts the
	// finished queries onto the free list before the newcomer arrives.
	e.Submit(engine.QuerySpec{CPUWork: 1e9}, 1, nil)
	var victim *engine.Query
	for i := 0; i < 24; i++ {
		victim = e.Submit(engine.QuerySpec{CPUWork: 0.01, Parallelism: 1}, 1, nil)
	}
	k.Manage(victim.ID)
	a.Manage(victim.ID)
	oldID := victim.ID
	s.Run(sim.Time(300 * sim.Millisecond))
	if e.Get(oldID) != nil {
		t.Fatal("the managed query has not finished")
	}
	newcomer := e.Submit(engine.QuerySpec{CPUWork: 1e9, Parallelism: 1}, 3, nil)
	if newcomer != victim {
		t.Fatal("the engine did not recycle the managed query's object")
	}
	s.Run(sim.Time(10 * sim.Second))
	if k.Kills() != 0 || e.Get(newcomer.ID) != newcomer {
		t.Fatalf("killer acted on the recycled object: %d kills", k.Kills())
	}
	if a.Demotions() != 0 || newcomer.Weight != 3 {
		t.Fatalf("ager acted on the recycled object: %d demotions, weight %v", a.Demotions(), newcomer.Weight)
	}
}
