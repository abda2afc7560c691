package scheduling

import (
	"math"
	"testing"
	"testing/quick"

	"dbwlm/internal/engine"
	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
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
	if got := q.Pop(sim.Time(11 * sim.Second)); got.Req.ID != 2 {
		t.Fatalf("fresh high-priority should rank first, got %d", got.Req.ID)
	}
	// Much later, a brand-new high-priority arrival loses to the aged one.
	late := item(3, policy.PriorityHigh, 10, sim.Time(10000*sim.Second))
	q.Push(late)
	if got := q.Pop(sim.Time(10000 * sim.Second)); got.Req.ID != 1 {
		t.Fatal("aging failed to protect the starved query from new arrivals")
	}
	if q.Len() != 1 {
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
	if !d.CanDispatch(it, 0) || d.running != 1 {
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
	if !d.CanDispatch(bi, 0) || d.classes.get("bi").used != 0 {
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
	if used := d.classes.get("c").used; used != 0 {
		t.Fatalf("used = %v after all finished", used)
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
		"gold":   {ArrivalRate: 5, MeanServiceSeconds: 0.1},
		"bronze": {ArrivalRate: 5, MeanServiceSeconds: 0.1},
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
		"busy": {ArrivalRate: 5, MeanServiceSeconds: 0.1},
		"idle": {ArrivalRate: 0, MeanServiceSeconds: 0.1},
	}
	limits := p.Plan(loads)
	fr := p.Fractions(limits, loads)
	if fr["busy"] < 0.5 {
		t.Fatalf("busy class got %v of the server despite idle competitor", fr["busy"])
	}
}

func TestRunSlicedCompletesInOrder(t *testing.T) {
	s := sim.New(1)
	e := engine.New(s, engine.Config{Cores: 4, IOMBps: 1000})
	slices := []engine.QuerySpec{{CPUWork: 0.5}, {CPUWork: 0.5}, {CPUWork: 0.5}}
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
	slices := []engine.QuerySpec{{CPUWork: 5}, {CPUWork: 5}}
	var done engine.Outcome = -1
	RunSliced(e, slices, 1, 1, func(oc engine.Outcome) { done = oc })
	s.Run(sim.Time(sim.Second))
	// Kill the in-flight slice: the first, and the engine's first query.
	if err := e.Kill(1); err != nil {
		t.Fatal(err)
	}
	s.Run(sim.Time(20 * sim.Second))
	if done != engine.OutcomeKilled {
		t.Fatalf("outcome = %v, want killed", done)
	}
	if e.InEngine() != 0 {
		t.Fatal("later slices still submitted after kill")
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
	d.classes.setLimit("bi", 10)
	s.TryDispatch(sim.Time(100))
	if len(released) != 6 || released[3] != 2 || released[4] != 4 || released[5] != 6 {
		t.Fatalf("after unblock released = %v", released)
	}
}

// Fractions is the capacity fractions a set of limits implies: the inverse
// of Plan's conversion.
func (p *Planner) Fractions(limits map[string]float64, loads map[string]ClassLoad) map[string]float64 {
	out := make(map[string]float64, len(limits))
	for name, lim := range limits {
		l := loads[name]
		den := p.ServerTimeronsPerSecond * math.Max(l.MeanServiceSeconds, 0.001) * planSlack
		if den > 0 {
			out[name] = lim / den
		}
	}
	return out
}
