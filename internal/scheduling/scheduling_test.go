package scheduling

import (
	"math"
	"testing"
	"testing/quick"

	"dbwlm/internal/engine"
	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
	"dbwlm/internal/sqlmini"
	"dbwlm/internal/workload"
)

func item(id int64, pri policy.Priority, timerons float64, at sim.Time) *Item {
	return &Item{
		Req:      &workload.Request{ID: id, Priority: pri, Est: workload.Estimates{Timerons: timerons}},
		Enqueued: at,
		Class:    "c",
	}
}

func TestFCFSOrder(t *testing.T) {
	q := NewFCFS()
	for i := int64(1); i <= 3; i++ {
		q.Push(item(i, policy.PriorityLow, 1, sim.Time(i)))
	}
	if q.Peek(0).Req.ID != 1 {
		t.Fatal("peek wrong")
	}
	for i := int64(1); i <= 3; i++ {
		if got := q.Pop(0); got.Req.ID != i {
			t.Fatalf("pop %d, want %d", got.Req.ID, i)
		}
	}
	if q.Pop(0) != nil || q.Peek(0) != nil || q.Len() != 0 {
		t.Fatal("empty queue misbehaves")
	}
}

func TestPriorityQueueOrder(t *testing.T) {
	q := NewPriority()
	q.Push(item(1, policy.PriorityLow, 1, 0))
	q.Push(item(2, policy.PriorityCritical, 1, sim.Time(5)))
	q.Push(item(3, policy.PriorityHigh, 1, sim.Time(1)))
	q.Push(item(4, policy.PriorityCritical, 1, sim.Time(1))) // earlier critical
	order := []int64{4, 2, 3, 1}
	for _, want := range order {
		if got := q.Pop(0).Req.ID; got != want {
			t.Fatalf("pop %d, want %d", got, want)
		}
	}
}

func TestPriorityQueueHeapProperty(t *testing.T) {
	f := func(pris []uint8) bool {
		q := NewPriority()
		for i, p := range pris {
			q.Push(item(int64(i), policy.Priority(p%4), 1, sim.Time(i)))
		}
		last := policy.PriorityCritical
		for q.Len() > 0 {
			it := q.Pop(0)
			if it.Req.Priority > last {
				return false
			}
			last = it.Req.Priority
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSJFOrder(t *testing.T) {
	q := NewSJF()
	q.Push(item(1, policy.PriorityLow, 500, 0))
	q.Push(item(2, policy.PriorityLow, 5, 0))
	q.Push(item(3, policy.PriorityLow, 50, 0))
	order := []int64{2, 3, 1}
	for _, want := range order {
		if got := q.Pop(0).Req.ID; got != want {
			t.Fatalf("pop %d, want %d", got, want)
		}
	}
}

func TestRankQueueAgingPreventsStarvation(t *testing.T) {
	q := NewRank()
	// A huge low-priority query that has waited long enough must outrank a
	// NEWLY ARRIVING cheap high-priority query (starvation-freedom: the old
	// item's aged rank eventually exceeds any fresh arrival's base rank).
	old := item(1, policy.PriorityLow, 1e6, 0)
	q.Push(old)
	fresh := item(2, policy.PriorityHigh, 10, sim.Time(10*sim.Second))
	q.Push(fresh)
	// Shortly after both arrive: fresh high-priority wins.
	got := q.Peek(sim.Time(11 * sim.Second))
	if got.Req.ID != 2 {
		t.Fatalf("fresh high-priority should rank first, got %d", got.Req.ID)
	}
	if q.Pop(sim.Time(11*sim.Second)).Req.ID != 2 {
		t.Fatal("pop disagrees with peek")
	}
	// Much later, a brand-new high-priority arrival loses to the aged one.
	late := item(3, policy.PriorityHigh, 10, sim.Time(10000*sim.Second))
	q.Push(late)
	got = q.Peek(sim.Time(10000 * sim.Second))
	if got.Req.ID != 1 {
		t.Fatal("aging failed to protect the starved query from new arrivals")
	}
	if q.Len() != 2 {
		t.Fatal("len wrong after pop")
	}
}

func TestQueueNames(t *testing.T) {
	for _, q := range []Queue{NewFCFS(), NewPriority(), NewSJF(), NewRank()} {
		if q.Name() == "" {
			t.Fatal("unnamed queue")
		}
	}
}

func TestMPLDispatcher(t *testing.T) {
	d := &MPL{Max: 2}
	it := item(1, policy.PriorityLow, 1, 0)
	if !d.CanDispatch(it, 0) {
		t.Fatal("empty should dispatch")
	}
	d.OnDispatch(it)
	d.OnDispatch(it)
	if d.CanDispatch(it, 0) {
		t.Fatal("over MPL dispatched")
	}
	d.OnFinish(it)
	if !d.CanDispatch(it, 0) || d.Running() != 1 {
		t.Fatal("finish did not free a slot")
	}
}

func TestClassMPLDispatcher(t *testing.T) {
	d := NewClassMPL(map[string]int{"bi": 1})
	bi := &Item{Req: &workload.Request{}, Class: "bi"}
	oltp := &Item{Req: &workload.Request{}, Class: "oltp"}
	d.OnDispatch(bi)
	if d.CanDispatch(bi, 0) {
		t.Fatal("bi over class limit")
	}
	if !d.CanDispatch(oltp, 0) {
		t.Fatal("unlimited class blocked")
	}
	d.OnFinish(bi)
	if !d.CanDispatch(bi, 0) || d.Running("bi") != 0 {
		t.Fatal("class slot not freed")
	}
}

func TestCostLimitDispatcher(t *testing.T) {
	d := NewCostLimit(map[string]float64{"c": 100})
	small := item(1, policy.PriorityLow, 40, 0)
	big := item(2, policy.PriorityLow, 500, 0)
	if !d.CanDispatch(big, 0) {
		t.Fatal("empty class must always run one request")
	}
	d.OnDispatch(small)
	if !d.CanDispatch(small, 0) {
		t.Fatal("40+40 <= 100 should dispatch")
	}
	d.OnDispatch(small)
	if d.CanDispatch(small, 0) {
		t.Fatal("80+40 > 100 dispatched")
	}
	d.OnFinish(small)
	d.OnFinish(small)
	if d.Used("c") != 0 {
		t.Fatalf("used = %v after all finished", d.Used("c"))
	}
	d.SetLimit("c", 1000)
	d.OnDispatch(small)
	if !d.CanDispatch(big, 0) {
		t.Fatal("raised limit not honored")
	}
}

func TestSchedulerDispatchAndHOLSkip(t *testing.T) {
	q := NewFCFS()
	d := NewClassMPL(map[string]int{"bi": 1})
	s := NewScheduler(q, d)
	var released []int64
	s.Release = func(it *Item) { released = append(released, it.Req.ID) }
	bi1 := &Item{Req: &workload.Request{ID: 1}, Class: "bi"}
	bi2 := &Item{Req: &workload.Request{ID: 2}, Class: "bi"}
	oltp := &Item{Req: &workload.Request{ID: 3}, Class: "oltp"}
	s.Enqueue(bi1, 0)
	s.Enqueue(bi2, 0)
	s.Enqueue(oltp, 0) // must skip over blocked bi2
	if len(released) != 2 || released[0] != 1 || released[1] != 3 {
		t.Fatalf("released = %v, want [1 3]", released)
	}
	if s.Waiting() != 1 {
		t.Fatalf("waiting = %d", s.Waiting())
	}
	s.OnFinish(bi1, 0)
	if len(released) != 3 || released[2] != 2 {
		t.Fatalf("released after finish = %v", released)
	}
	if s.Dispatched() != 3 {
		t.Fatal("dispatch count wrong")
	}
}

func TestMM1(t *testing.T) {
	if got := MM1ResponseTime(5, 10); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("MM1(5,10) = %v, want 0.2", got)
	}
	if !math.IsInf(MM1ResponseTime(10, 10), 1) {
		t.Fatal("unstable queue should be +Inf")
	}
}

func TestErlangCKnownValues(t *testing.T) {
	// c=1: Erlang C equals rho.
	if got := ErlangC(1, 0.5); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("ErlangC(1, 0.5) = %v, want 0.5", got)
	}
	// Classic: c=2, a=1 -> P(wait) = 1/3.
	if got := ErlangC(2, 1); math.Abs(got-1.0/3) > 1e-9 {
		t.Fatalf("ErlangC(2, 1) = %v, want 1/3", got)
	}
	if ErlangC(2, 5) != 1 {
		t.Fatal("overloaded ErlangC should be 1")
	}
}

func TestMMCReducesToMM1(t *testing.T) {
	a := MMCResponseTime(5, 10, 1)
	b := MM1ResponseTime(5, 10)
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("MMC(c=1) = %v, MM1 = %v", a, b)
	}
	// More servers shrink response time.
	one := MMCResponseTime(8, 10, 1)
	two := MMCResponseTime(8, 10, 2)
	if !(two < one) {
		t.Fatalf("two servers (%v) not faster than one (%v)", two, one)
	}
}

func TestPSResponseTime(t *testing.T) {
	// Full capacity: identical to M/M/1 with mu = 1/s.
	if got := PSResponseTime(5, 0.1, 1); math.Abs(got-MM1ResponseTime(5, 10)) > 1e-9 {
		t.Fatalf("PS full capacity = %v", got)
	}
	// Half capacity halves the service rate.
	if !math.IsInf(PSResponseTime(5, 0.1, 0.4), 1) {
		t.Fatal("PS should be unstable when lambda >= f/s")
	}
}

func TestOptimalMPL(t *testing.T) {
	// Memory-bound: 2000MB / 500MB = 4 even with 8 cores.
	if got := OptimalMPL(2000, 500, 8); got != 4 {
		t.Fatalf("memory-bound MPL = %d, want 4", got)
	}
	// CPU-bound: plenty of memory -> 2x cores.
	if got := OptimalMPL(100000, 10, 8); got != 16 {
		t.Fatalf("cpu-bound MPL = %d, want 16", got)
	}
	if OptimalMPL(1, 1000, 8) != 1 {
		t.Fatal("MPL below 1")
	}
}

func TestUtilityShape(t *testing.T) {
	if u := Utility(1); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("Utility(1) = %v, want 0.5", u)
	}
	if !(Utility(2) > Utility(1) && Utility(1) > Utility(0.5)) {
		t.Fatal("utility not monotone in attainment")
	}
	if Utility(math.Inf(1)) != 1 {
		t.Fatal("utility at +Inf attainment should be 1")
	}
	// Bounded in [0, 1].
	for _, a := range []float64{0, 0.01, 0.5, 1, 10, 1e6} {
		u := Utility(a)
		if u < 0 || u > 1 {
			t.Fatalf("Utility(%v) = %v out of [0,1]", a, u)
		}
	}
}

func TestPlannerFavorsImportantTightClass(t *testing.T) {
	p := &Planner{
		Goals: []ClassGoal{
			{Name: "gold", Importance: 10, TargetRT: 0.5},
			{Name: "bronze", Importance: 1, TargetRT: 60},
		},
		ServerTimeronsPerSecond: 10000,
	}
	loads := map[string]ClassLoad{
		"gold":   {ArrivalRate: 5, MeanServiceSeconds: 0.1, MeanTimerons: 100},
		"bronze": {ArrivalRate: 5, MeanServiceSeconds: 0.1, MeanTimerons: 100},
	}
	limits := p.Plan(loads)
	if limits["gold"] <= limits["bronze"] {
		t.Fatalf("gold limit %v should exceed bronze %v", limits["gold"], limits["bronze"])
	}
	fr := p.Fractions(limits, loads)
	if fr["gold"] <= fr["bronze"] {
		t.Fatal("fractions disagree with limits")
	}
	// No class fully starved.
	if limits["bronze"] <= 0 {
		t.Fatal("bronze fully starved")
	}
}

func TestPlannerIgnoresIdleClasses(t *testing.T) {
	p := &Planner{
		Goals: []ClassGoal{
			{Name: "busy", Importance: 1, TargetRT: 1},
			{Name: "idle", Importance: 100, TargetRT: 0.01},
		},
		ServerTimeronsPerSecond: 10000,
	}
	loads := map[string]ClassLoad{
		"busy": {ArrivalRate: 5, MeanServiceSeconds: 0.1, MeanTimerons: 100},
		"idle": {ArrivalRate: 0, MeanServiceSeconds: 0.1, MeanTimerons: 100},
	}
	limits := p.Plan(loads)
	fr := p.Fractions(limits, loads)
	if fr["busy"] < 0.5 {
		t.Fatalf("busy class got %v of the server despite idle competitor", fr["busy"])
	}
}

func TestLoadTracker(t *testing.T) {
	lt := NewLoadTracker(10 * sim.Second)
	for i := 0; i < 50; i++ {
		lt.ObserveArrival("c", sim.Time(i)*sim.Time(sim.Second)/5)
	}
	lt.ObserveService("c", 0.2, 100)
	lt.ObserveService("c", 0.4, 300)
	loads := lt.Loads(sim.Time(10 * sim.Second))
	l := loads["c"]
	if math.Abs(l.ArrivalRate-5) > 0.5 {
		t.Fatalf("arrival rate = %v, want ~5", l.ArrivalRate)
	}
	if math.Abs(l.MeanServiceSeconds-0.3) > 1e-9 || math.Abs(l.MeanTimerons-200) > 1e-9 {
		t.Fatalf("service stats = %+v", l)
	}
	// Old arrivals age out.
	loads = lt.Loads(sim.Time(100 * sim.Second))
	if loads["c"].ArrivalRate != 0 {
		t.Fatal("stale arrivals not trimmed")
	}
}

func TestSlicePlanEquivalence(t *testing.T) {
	cm := sqlmini.NewCostModel(sqlmini.DefaultCatalog())
	plan, err := cm.PlanSQL(`SELECT store_id, SUM(amount) FROM sales_fact
		JOIN store_dim ON sales_fact.store_id = store_dim.id
		GROUP BY store_id ORDER BY store_id`)
	if err != nil {
		t.Fatal(err)
	}
	total := sqlmini.CostOf(plan)
	slices := SlicePlan(plan, workload.TimeronsOf(total.CPUSeconds, total.IOMB)/4)
	if len(slices) < 2 {
		t.Fatalf("plan not sliced: %d slices", len(slices))
	}
	cpu, io := TotalWork(slices)
	if math.Abs(cpu-total.CPUSeconds) > 1e-9 {
		t.Fatalf("CPU not conserved: %v vs %v", cpu, total.CPUSeconds)
	}
	if io < total.IOMB {
		t.Fatalf("IO should include handoff overhead: %v < %v", io, total.IOMB)
	}
	// Each slice smaller than the whole.
	for _, s := range slices {
		if s.Spec.CPUWork >= total.CPUSeconds {
			t.Fatal("slice as large as the plan")
		}
	}
}

func TestSlicePlanSingleSliceWhenCheap(t *testing.T) {
	cm := sqlmini.NewCostModel(sqlmini.DefaultCatalog())
	plan, _ := cm.PlanSQL("SELECT balance FROM accounts WHERE id = 1")
	slices := SlicePlan(plan, 1e12)
	if len(slices) != 1 {
		t.Fatalf("cheap plan sliced into %d", len(slices))
	}
}

func TestRunSlicedCompletesInOrder(t *testing.T) {
	s := sim.New(1)
	e := engine.New(s, engine.Config{Cores: 4, IOMBps: 1000})
	slices := []Slice{
		{Spec: engine.QuerySpec{CPUWork: 0.5}},
		{Spec: engine.QuerySpec{CPUWork: 0.5}},
		{Spec: engine.QuerySpec{CPUWork: 0.5}},
	}
	var done engine.Outcome = -1
	RunSliced(e, slices, 1, 1, func(oc engine.Outcome) { done = oc })
	s.Run(sim.Time(30 * sim.Second))
	if done != engine.OutcomeCompleted {
		t.Fatalf("sliced run outcome = %v", done)
	}
	// At most one slice in the engine at a time implies serialized elapsed
	// time >= 1.5s even with 4 cores.
	if s.Now().Seconds() < 1.4 {
		t.Fatal("slices overlapped")
	}
}

func TestRunSlicedStopsOnKill(t *testing.T) {
	s := sim.New(1)
	e := engine.New(s, engine.Config{Cores: 1, IOMBps: 1000})
	slices := []Slice{
		{Spec: engine.QuerySpec{CPUWork: 5}},
		{Spec: engine.QuerySpec{CPUWork: 5}},
	}
	var done engine.Outcome = -1
	RunSliced(e, slices, 1, 1, func(oc engine.Outcome) { done = oc })
	s.Run(sim.Time(sim.Second))
	// Kill the in-flight slice.
	for _, q := range e.Running() {
		if err := e.Kill(q.ID); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(sim.Time(20 * sim.Second))
	if done != engine.OutcomeKilled {
		t.Fatalf("outcome = %v, want killed", done)
	}
	if e.InEngine() != 0 {
		t.Fatal("later slices still submitted after kill")
	}
}

func TestFeedbackMPLBacksOffWhenSlow(t *testing.T) {
	s := sim.New(1)
	e := engine.New(s, engine.Config{})
	d := &FeedbackMPL{Engine: e, TargetRT: 1, Interval: sim.Second}
	d.Start()
	start := d.MPL()
	// Feed slow responses for several intervals.
	for i := 0; i < 5; i++ {
		d.ObserveResponse(10)
		d.ObserveResponse(12)
		s.Run(s.Now().Add(sim.Duration(1100) * sim.Millisecond))
	}
	if d.MPL() >= start {
		t.Fatalf("MPL did not back off: %d -> %d", start, d.MPL())
	}
	// Fast responses with idle CPU: MPL grows again.
	low := d.MPL()
	for i := 0; i < 5; i++ {
		d.ObserveResponse(0.1)
		s.Run(s.Now().Add(sim.Duration(1100) * sim.Millisecond))
	}
	if d.MPL() <= low {
		t.Fatalf("MPL did not recover: %d -> %d", low, d.MPL())
	}
}

func TestUnlimitedDispatcher(t *testing.T) {
	var d Unlimited
	if !d.CanDispatch(nil, 0) || d.Name() == "" {
		t.Fatal("unlimited broken")
	}
	d.OnDispatch(nil)
	d.OnFinish(nil)
}

func TestFCFSStableUnderSkipRepush(t *testing.T) {
	// The scheduler pops items, skips blocked ones, and re-pushes them; the
	// FCFS queue must keep them in original arrival order.
	q := NewFCFS()
	d := NewClassMPL(map[string]int{"bi": 0}) // bi always blocked
	s := NewScheduler(q, d)
	var released []int64
	s.Release = func(it *Item) { released = append(released, it.Req.ID) }
	// Interleave blocked (bi) and free (oltp) arrivals.
	for i := int64(1); i <= 6; i++ {
		class := "oltp"
		if i%2 == 0 {
			class = "bi"
		}
		s.Enqueue(&Item{Req: &workload.Request{ID: i}, Class: class, Enqueued: sim.Time(i)}, sim.Time(i))
	}
	// Free items released in arrival order despite skip/re-push churn.
	want := []int64{1, 3, 5}
	if len(released) != 3 {
		t.Fatalf("released = %v", released)
	}
	for i, id := range want {
		if released[i] != id {
			t.Fatalf("released = %v, want %v", released, want)
		}
	}
	// The blocked ones remain in arrival order.
	d.Limits["bi"] = 10
	s.TryDispatch(sim.Time(100))
	if len(released) != 6 || released[3] != 2 || released[4] != 4 || released[5] != 6 {
		t.Fatalf("after unblock released = %v", released)
	}
}
