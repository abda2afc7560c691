package dbwlm

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"dbwlm/internal/admission"
	"dbwlm/internal/characterize"
	"dbwlm/internal/engine"
	"dbwlm/internal/execctl"
	"dbwlm/internal/policy"
	"dbwlm/internal/scheduling"
	"dbwlm/internal/sim"
	"dbwlm/internal/workload"
)

func oltpGen(rate float64) *workload.OLTPGen {
	return &workload.OLTPGen{
		WorkloadName: "oltp",
		Rate:         rate,
		Priority:     policy.PriorityHigh,
		SLO:          policy.AvgResponseTime(200 * sim.Millisecond),
		Seq:          &workload.Sequence{},
	}
}

func TestManagerEndToEndCompletesWork(t *testing.T) {
	s := sim.New(1)
	m := New(s, engine.Config{Cores: 8, MemoryMB: 4096, IOMBps: 800})
	m.RunWorkload([]workload.Generator{oltpGen(50)}, 10*sim.Second, 5*sim.Second)
	ws := m.Stats().Workload("oltp")
	if ws.Completed.Value() < 400 {
		t.Fatalf("completed = %d, want ~500", ws.Completed.Value())
	}
	if ws.Response.Mean() > 0.2 {
		t.Fatalf("unloaded OLTP mean RT = %v, want well under 200ms", ws.Response.Mean())
	}
	a := m.Attainment("oltp")
	if !a.Met {
		t.Fatalf("unloaded OLTP should meet its SLO: %+v", a)
	}
	if !strings.Contains(m.Report(), "oltp") {
		t.Fatal("report missing workload")
	}
}

func TestManagerRejectionPath(t *testing.T) {
	s := sim.New(1)
	m := New(s, engine.Config{})
	m.Admission = &admission.CostThreshold{Limits: map[policy.Priority]float64{
		policy.PriorityLow: 1, // rejects everything low-priority
	}}
	seq := &workload.Sequence{}
	gen := &workload.AdHocGen{WorkloadName: "adhoc", Rate: 10, Priority: policy.PriorityLow,
		SLO: policy.BestEffort(), Seq: seq, MonsterProb: 0}
	m.RunWorkload([]workload.Generator{gen}, 5*sim.Second, sim.Second)
	ws := m.Stats().Workload("adhoc")
	if ws.Rejected.Value() == 0 {
		t.Fatal("nothing rejected")
	}
	if ws.Completed.Value() != 0 {
		t.Fatal("rejected work completed")
	}
}

func TestManagerAdmissionQueueRetries(t *testing.T) {
	s := sim.New(1)
	m := New(s, engine.Config{Cores: 4, IOMBps: 800})
	m.Admission = &admission.MPLThreshold{Engine: m.Engine(), Max: 2}
	m.RunWorkload([]workload.Generator{oltpGen(100)}, 5*sim.Second, 20*sim.Second)
	ws := m.Stats().Workload("oltp")
	if ws.Completed.Value() < 300 {
		t.Fatalf("completed = %d; queued admissions must eventually run", ws.Completed.Value())
	}
	// With MPL 2 under 100/s offered load, waits must be visible.
	if ws.Wait.Mean() <= 0 {
		t.Fatal("no waiting recorded despite MPL 2")
	}
}

func TestManagerSchedulerIntegration(t *testing.T) {
	s := sim.New(1)
	m := New(s, engine.Config{Cores: 2, IOMBps: 400})
	m.Scheduler = scheduling.NewScheduler(scheduling.NewPriority(), &scheduling.MPL{Max: 4})
	m.RunWorkload([]workload.Generator{oltpGen(80)}, 5*sim.Second, 10*sim.Second)
	if m.Scheduler.Dispatched() == 0 {
		t.Fatal("scheduler released nothing")
	}
	if m.Stats().Workload("oltp").Completed.Value() < 200 {
		t.Fatalf("completed = %d", m.Stats().Workload("oltp").Completed.Value())
	}
	// MPL 4 respected: engine never held more than 4.
	if m.Engine().InEngine() > 4 {
		t.Fatal("engine over MPL")
	}
}

func TestManagerRouterLabelsRequests(t *testing.T) {
	s := sim.New(1)
	router := characterize.NewRouter(nil).
		AddClass(&characterize.ServiceClass{Name: "gold", Priority: policy.PriorityCritical}).
		AddDef(&characterize.WorkloadDef{
			Name: "pos-work", Match: characterize.OriginMatcher{App: "pos-terminal"},
			ServiceClass: "gold",
		})
	m := New(s, engine.Config{})
	m.Router = router
	var sawClass string
	m.OnDispatch = func(rr *Running) { sawClass = rr.Class.Name }
	m.RunWorkload([]workload.Generator{oltpGen(20)}, 2*sim.Second, 2*sim.Second)
	if sawClass != "gold" {
		t.Fatalf("dispatched class = %q, want gold", sawClass)
	}
	// Requests were relabeled by the router.
	if m.Stats().Workload("pos-work").Completed.Value() == 0 {
		t.Fatal("router label not applied to stats")
	}
}

func TestManagerKillResubmitFlow(t *testing.T) {
	s := sim.New(1)
	m := New(s, engine.Config{Cores: 2, IOMBps: 400})
	m.MaxResubmits = 2
	killer := execctl.NewKiller(m.Engine(), 1.0) // kill anything over 1s
	resubmitted := 0
	m.OnDispatch = func(rr *Running) {
		if rr.Req.Workload == "big" {
			killer.Manage(rr.Query.ID)
		}
	}
	m.OnFinish = func(rr *Running, oc engine.Outcome) {
		if oc == engine.OutcomeKilled {
			if m.Resubmit(rr) {
				resubmitted++
			}
		}
	}
	req := &workload.Request{
		ID: 1, Workload: "big", Priority: policy.PriorityLow,
		SLO:  policy.BestEffort(),
		True: engine.QuerySpec{CPUWork: 100, Parallelism: 1},
		Est:  workload.Estimates{Timerons: 1e6},
	}
	m.Submit(req)
	s.Run(sim.Time(30 * sim.Second))
	if resubmitted != 2 {
		t.Fatalf("resubmitted %d times, want MaxResubmits=2", resubmitted)
	}
	ws := m.Stats().Workload("big")
	if ws.Killed.Value() != 3 { // initial + 2 resubmits, all killed
		t.Fatalf("killed = %d, want 3", ws.Killed.Value())
	}
	if ws.Resubmits.Value() != 2 {
		t.Fatalf("resubmits = %d", ws.Resubmits.Value())
	}
}

func TestManagerDeadlockVictimResubmitted(t *testing.T) {
	s := sim.New(1)
	m := New(s, engine.Config{Cores: 4, IOMBps: 1e9})
	mk := func(id int64, keys [2]int) *workload.Request {
		return &workload.Request{
			ID: id, Workload: "txn", SLO: policy.BestEffort(),
			True: engine.QuerySpec{CPUWork: 5, Parallelism: 1, Locks: []engine.LockReq{
				{Key: keys[0], Exclusive: true, AtProgress: 0},
				{Key: keys[1], Exclusive: true, AtProgress: 0.3},
			}},
		}
	}
	m.Submit(mk(1, [2]int{1, 2}))
	m.Submit(mk(2, [2]int{2, 1}))
	s.Run(sim.Time(60 * sim.Second))
	ws := m.Stats().Workload("txn")
	if ws.Deadlocks.Value() != 1 {
		t.Fatalf("deadlocks = %d", ws.Deadlocks.Value())
	}
	// Victim retried and both eventually completed.
	if ws.Completed.Value() != 2 {
		t.Fatalf("completed = %d, want 2 (victim resubmitted)", ws.Completed.Value())
	}
}

func TestManagerAttainmentUnknownWorkload(t *testing.T) {
	s := sim.New(1)
	m := New(s, engine.Config{})
	a := m.Attainment("ghost")
	if !a.Met {
		t.Fatal("unknown workload should trivially meet")
	}
	if len(m.Attainments()) != 0 {
		t.Fatal("no workloads expected")
	}
}

func TestManagerVelocityBounds(t *testing.T) {
	s := sim.New(1)
	m := New(s, engine.Config{Cores: 8, IOMBps: 800})
	m.RunWorkload([]workload.Generator{oltpGen(10)}, 5*sim.Second, 5*sim.Second)
	v := m.Stats().Workload("oltp").MeanVelocity()
	if v <= 0 || v > 1 {
		t.Fatalf("velocity = %v out of (0,1]", v)
	}
}

// TestManagedOLTPAllocBudget bounds what one managed transaction allocates
// end to end — generator, admission, FCFS queue behind an MPL dispatcher,
// engine, lock table, completion statistics. Its Request with its SQL and
// lock arrays, its Running record (with the Item inside) and its engine Query
// are reused from transactions that finished before it, and with no Router
// it runs under a stand-in ServiceClass the Manager keeps (DESIGN.md section
// 6). The commit before the generators stopped parsing their own SQL
// measured 32.4 here, the one before the reuse 8.0, the one before the
// request owned its SQL text 3.1, and this one 0.1: what is left is the
// growth of pools and queues and the sync.Pool's losses to the collector. The
// budget trips on one allocation per transaction coming back — a SQL string,
// a stand-in, a closure, a map entry — not on noise; the lifetime tests pin
// each reused object on its own. Under the race detector, whose sync.Pool
// drops a quarter of its Puts, each dropped request costs its three arrays
// again (1.1 measured), and the budget is 2.
func TestManagedOLTPAllocBudget(t *testing.T) {
	budget := 1.0
	if poolDropsPuts() {
		budget = 2
	}
	s := sim.New(1)
	m := New(s, engine.Config{Cores: 8, MemoryMB: 4096, IOMBps: 800})
	m.Scheduler = scheduling.NewScheduler(scheduling.NewFCFS(), &scheduling.MPL{Max: 16})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.RunWorkload([]workload.Generator{oltpGen(100)}, 60*sim.Second, 10*sim.Second)
	runtime.ReadMemStats(&after)
	done := m.Stats().Workload("oltp").Completed.Value()
	if done < 5000 {
		t.Fatalf("completed = %d, want ~6000", done)
	}
	perTxn := float64(after.Mallocs-before.Mallocs) / float64(done)
	t.Logf("%.1f allocations per completed transaction over %d", perTxn, done)
	if perTxn > budget {
		t.Fatalf("%.1f allocations per completed transaction, budget %.0f", perTxn, budget)
	}
}

// poolDropsPuts reports whether this build's sync.Pool drops Puts at random,
// as it does under the race detector: a Get straight after a Put on the same
// goroutine otherwise returns what was put.
func poolDropsPuts() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(new(int))
		if p.Get() == nil {
			return true
		}
	}
	return false
}

// deferTwice queues every request on its first two decisions and admits it
// on the third, recording the order it is asked in.
type deferTwice struct {
	seen  map[int64]int
	asked []int64
}

func (deferTwice) Name() string { return "defer-twice" }

func (c *deferTwice) Decide(r *workload.Request, _ sim.Time) admission.Decision {
	c.asked = append(c.asked, r.ID)
	if c.seen[r.ID]++; c.seen[r.ID] <= 2 {
		return admission.Queue
	}
	return admission.Admit
}

// TestRetryBatchKeepsQueueOrder pins the admission queue's discipline across
// the retry loop: each retry re-evaluates the RetryBatch oldest requests, and
// one deferred again goes behind everything already waiting.
func TestRetryBatchKeepsQueueOrder(t *testing.T) {
	s := sim.New(1)
	m := New(s, engine.Config{})
	ctrl := &deferTwice{seen: map[int64]int{}}
	m.Admission = ctrl
	m.RetryBatch = 2
	m.AdmissionRetry = sim.Second
	for id := int64(1); id <= 5; id++ {
		m.Submit(&workload.Request{ID: id, Workload: "w", True: engine.QuerySpec{CPUWork: 0.001}})
	}
	s.Run(sim.Time(sim.Minute))
	want := []int64{
		1, 2, 3, 4, 5, // arrivals: all deferred
		1, 2, 3, 4, 5, // retries of two: deferred again, to the back
		1, 2, 3, 4, 5, // admitted
	}
	if !slices.Equal(ctrl.asked, want) {
		t.Fatalf("decisions asked for %v, want %v", ctrl.asked, want)
	}
	if m.admissionQueue.Len() != 0 || m.Stats().Workload("w").Completed.Value() != 5 {
		t.Fatalf("%d still queued, %d completed", m.admissionQueue.Len(), m.Stats().Workload("w").Completed.Value())
	}
}
