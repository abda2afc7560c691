package dbwlm

import (
	"fmt"

	"dbwlm/internal/admission"
	"dbwlm/internal/characterize"
	"dbwlm/internal/engine"
	"dbwlm/internal/fifo"
	"dbwlm/internal/metrics"
	"dbwlm/internal/policy"
	"dbwlm/internal/scheduling"
	"dbwlm/internal/sim"
	"dbwlm/internal/workload"
)

// Running is the manager-side record of a request from its dispatch (or its
// entry into the wait queue) on: its scheduling.Item — the request, its
// enqueue instant, service-class name and weight — its engine query, and its
// classification. The record embeds the item so the two are one allocation;
// Class here is the service class itself, the item's Class its name.
//
// The record and its request belong to the Manager. Hooks may read them
// until OnFinish has returned; after that the Manager reuses the record, and
// the request too unless it was re-queued (Resubmit), for later requests. A
// hook that needs the request later keeps rr.Req.Clone(), and one that needs
// the query keeps its ID. While the query is in flight the record is its
// Owner, so the engine's Live list is the in-flight set (RunningAll).
type Running struct {
	scheduling.Item
	Query *engine.Query
	Class *characterize.ServiceClass
	// DispatchedAt is when the request entered the engine (last attempt).
	DispatchedAt sim.Time
	wl           *workloadRec
}

// workloadRec is what the Manager keeps per workload name, resolved on
// Submit (and on each admission retry) and carried on Running from there.
type workloadRec struct {
	name     string
	stats    *metrics.WorkloadStats
	class    string // the service class it last ran under, once classSet
	classSet bool
	sloSeen  bool // its first request's SLO is noted
}

// Manager is the workload management system: it identifies arriving requests
// (characterization), imposes admission control, schedules wait queues, and
// exposes the hooks execution controllers act through — the three-control
// process of Table 1 around the simulated engine.
type Manager struct {
	// Router classifies requests into workload definitions and service
	// classes. When nil everything lands in a default class.
	Router *characterize.Router
	// Admission gates arrivals (nil = admit all).
	Admission admission.Controller
	// Scheduler orders and releases admitted requests. When nil, requests
	// are dispatched immediately.
	Scheduler *scheduling.Scheduler
	// OnDispatch, when set, is invoked as each request enters the engine —
	// the hook execution controllers (ager, killer, throttler, suspender,
	// fuzzy controller) use to take over a query. The record stays valid
	// until OnFinish returns (see Running); controllers key by query ID.
	OnDispatch func(*Running)
	// OnFinish, when set, observes every terminal outcome. The record is
	// recycled when it returns, and so is its request unless the request
	// was re-queued with Resubmit.
	OnFinish func(*Running, engine.Outcome)
	// AdmissionRetry is the delay before re-evaluating queued admissions
	// (default 500ms).
	AdmissionRetry sim.Duration
	// RetryBatch caps how many queued admissions are re-evaluated per retry
	// cycle (0 = all). State-dependent controllers (conflict ratio,
	// indicators) see stale engine state within one event; a bounded batch
	// prevents a mass re-admission storm when the gate momentarily opens.
	RetryBatch int
	// MaxResubmits bounds kill-and-resubmit loops (default 3).
	MaxResubmits int
	// MaxQueueDelay rejects requests that have waited in the admission
	// queue longer than this (0 = wait forever) — the queue timeout of
	// Oracle Resource Manager's active session pools.
	MaxQueueDelay sim.Duration

	sim   *sim.Simulator
	eng   *engine.Engine
	stats *metrics.Registry

	// admissionQueue holds requests the admission controller deferred. A
	// fifo.Queue, so a retry that takes the head neither leaves the array
	// pinning requests it already admitted nor re-grows it while an overload
	// lasts.
	admissionQueue fifo.Queue[*workload.Request]
	retryArmed     bool
	slos           map[string]policy.SLO
	workloads      map[string]*workloadRec
	// standIns are the classes requests share with no Router, one per name
	// and priority: nothing writes through Running.Class.
	standIns []*characterize.ServiceClass
	// onEngineFinish and retryFn are m.finished and m.retry bound once, so
	// a release or a retry hands the simulator the same func value every
	// time instead of a closure of its own.
	onEngineFinish func(*engine.Query, engine.Outcome)
	retryFn        func()
	// freeRun holds records whose run ended, for dispatchOrSchedule to
	// reuse.
	freeRun []*Running
}

// New builds a manager over a fresh engine on the simulator.
func New(s *sim.Simulator, engCfg engine.Config) *Manager {
	m := &Manager{
		sim:       s,
		eng:       engine.New(s, engCfg),
		stats:     metrics.NewRegistry(),
		slos:      make(map[string]policy.SLO),
		workloads: make(map[string]*workloadRec),
	}
	m.onEngineFinish = m.finished
	m.retryFn = m.retry
	return m
}

// Engine exposes the simulated DBMS.
func (m *Manager) Engine() *engine.Engine { return m.eng }

// Sim exposes the simulator.
func (m *Manager) Sim() *sim.Simulator { return m.sim }

// Stats exposes the monitoring registry.
func (m *Manager) Stats() *metrics.Registry { return m.stats }

// Now reports virtual time.
func (m *Manager) Now() sim.Time { return m.sim.Now() }

// Submit runs a request through identification, admission, and scheduling.
// The request belongs to the Manager from here on: it is returned to
// workload.NewRequest's pool when admission rejects it, when it times out in
// the admission queue, or after OnFinish has returned for its run, so the
// caller must not read it again (see Running).
func (m *Manager) Submit(req *workload.Request) {
	var class *characterize.ServiceClass
	if m.Router != nil {
		_, class = m.Router.Classify(req)
	} else {
		class = m.standIn("default", req.Priority)
	}
	wl := m.workloadOf(req.Workload)
	if !wl.sloSeen {
		wl.sloSeen = true
		m.slos[req.Workload] = req.SLO
	}
	wl.stats.ObserveArrival(req.Arrive)
	m.stats.System.ObserveArrival(req.Arrive)
	m.admit(req, wl, class)
}

// workloadOf returns the named workload's record, making it if need be.
func (m *Manager) workloadOf(name string) *workloadRec {
	wl := m.workloads[name]
	if wl == nil {
		wl = &workloadRec{name: name, stats: m.stats.Workload(name)}
		m.workloads[name] = wl
	}
	return wl
}

// standIn returns the stand-in class with the name and priority.
func (m *Manager) standIn(name string, p policy.Priority) *characterize.ServiceClass {
	for _, c := range m.standIns {
		if c.Name == name && c.Priority == p {
			return c
		}
	}
	c := &characterize.ServiceClass{Name: name, Priority: p}
	m.standIns = append(m.standIns, c)
	return c
}

func (m *Manager) admit(req *workload.Request, wl *workloadRec, class *characterize.ServiceClass) {
	ctrl := m.Admission
	if ctrl == nil {
		ctrl = admission.AdmitAll{}
	}
	switch ctrl.Decide(req, m.sim.Now()) {
	case admission.Reject:
		wl.stats.Rejected.Inc()
		m.stats.System.Rejected.Inc()
		workload.FreeRequest(req)
	case admission.Queue:
		m.admissionQueue.Push(req)
		m.armRetry()
	case admission.Admit:
		m.dispatchOrSchedule(req, wl, class)
	}
}

func (m *Manager) armRetry() {
	if m.retryArmed || m.admissionQueue.Len() == 0 {
		return
	}
	m.retryArmed = true
	retry := m.AdmissionRetry
	if retry <= 0 {
		retry = 500 * sim.Millisecond
	}
	m.sim.ScheduleDetached(retry, m.retryFn)
}

// retry re-evaluates the deferred requests at the queue's head.
func (m *Manager) retry() {
	m.retryArmed = false
	// The batch is counted before the loop: admit may queue a request
	// again, behind everything already waiting.
	batch := m.admissionQueue.Len()
	if m.RetryBatch > 0 && batch > m.RetryBatch {
		batch = m.RetryBatch
	}
	for ; batch > 0; batch-- {
		req := m.admissionQueue.Items()[0]
		m.admissionQueue.Drop(1)
		wl := m.workloadOf(req.Workload)
		if m.MaxQueueDelay > 0 && m.sim.Now().Sub(req.Arrive) > m.MaxQueueDelay {
			wl.stats.Rejected.Inc()
			m.stats.System.Rejected.Inc()
			workload.FreeRequest(req)
			continue
		}
		class, wl := m.classFor(req, wl)
		m.admit(req, wl, class)
	}
	m.armRetry()
}

// classFor returns the service class a deferred request is re-admitted
// into, and its workload record, which classifying it again may rename.
func (m *Manager) classFor(req *workload.Request, wl *workloadRec) (*characterize.ServiceClass, *workloadRec) {
	if m.Router == nil {
		return m.standIn("default", req.Priority), wl
	}
	if wl.classSet {
		if c := m.Router.Class(wl.class); c != nil {
			return c, wl
		}
	}
	_, class := m.Router.Classify(req)
	if req.Workload != wl.name {
		wl = m.workloadOf(req.Workload)
	}
	return class, wl
}

func (m *Manager) dispatchOrSchedule(req *workload.Request, wl *workloadRec, class *characterize.ServiceClass) {
	wl.class, wl.classSet = class.Name, true
	var rr *Running
	if n := len(m.freeRun); n > 0 {
		rr = m.freeRun[n-1]
		m.freeRun[n-1] = nil
		m.freeRun = m.freeRun[:n-1]
	} else {
		rr = &Running{}
	}
	rr.Item = scheduling.Item{
		Req:      req,
		Enqueued: m.sim.Now(),
		Class:    class.Name,
		Weight:   class.EffectiveWeight(),
		Owner:    rr,
	}
	rr.wl = wl
	if m.Scheduler == nil {
		rr.Class = class
		m.release(rr)
		return
	}
	if m.Scheduler.Release == nil {
		m.Scheduler.Release = func(it *scheduling.Item) {
			rr := it.Owner.(*Running)
			rr.Class = m.classByName(it.Class)
			m.release(rr)
		}
	}
	m.Scheduler.Enqueue(&rr.Item, m.sim.Now())
}

func (m *Manager) classByName(name string) *characterize.ServiceClass {
	if m.Router != nil {
		if c := m.Router.Class(name); c != nil {
			return c
		}
		return m.Router.Default()
	}
	return m.standIn(name, policy.PriorityMedium)
}

// release sends a record's request into the engine.
func (m *Manager) release(rr *Running) {
	q := m.eng.Submit(rr.Req.True, rr.Weight, m.onEngineFinish)
	rr.Query = q
	rr.DispatchedAt = m.sim.Now()
	q.Owner = rr
	if observeRunning != nil {
		observeRunning(m, rr, true)
	}
	if m.OnDispatch != nil {
		m.OnDispatch(rr)
	}
}

func (m *Manager) finished(q *engine.Query, oc engine.Outcome) {
	rr := RunningOf(q)
	if rr == nil {
		return
	}
	q.Owner = nil
	if observeRunning != nil {
		observeRunning(m, rr, false)
	}
	req := rr.Req
	attempts := req.Resubmit
	now := m.sim.Now()
	if m.Scheduler != nil {
		m.Scheduler.OnFinish(&rr.Item, now)
	}
	ws := rr.wl.stats
	switch oc {
	case engine.OutcomeCompleted:
		response := now.Sub(rr.Req.Arrive)
		wait := rr.DispatchedAt.Sub(rr.Req.Arrive)
		ideal := m.eng.IdealSeconds(rr.Req.True)
		velocity := 1.0
		if response.Seconds() > 0 {
			velocity = ideal / response.Seconds()
			if velocity > 1 {
				velocity = 1
			}
		}
		ws.ObserveCompletion(now, response, wait, velocity)
		m.stats.System.ObserveCompletion(now, response, wait, velocity)
		if obs, ok := m.Admission.(admission.CompletionObserver); ok && m.Admission != nil {
			obs.ObserveCompletion(rr.Req, response.Seconds(), now)
		}
	case engine.OutcomeKilled:
		ws.Killed.Inc()
		m.stats.System.Killed.Inc()
	case engine.OutcomeDeadlocked:
		ws.Deadlocks.Inc()
		m.stats.System.Deadlocks.Inc()
		// Deadlock victims are resubmitted transparently (the DBMS would
		// return a retryable error).
		m.Resubmit(rr)
	}
	if q.Suspends() > 0 {
		ws.Suspends.Add(int64(q.Suspends()))
	}
	if m.OnFinish != nil {
		m.OnFinish(rr, oc)
	}
	// A re-queued request (Resubmit counted the attempt) lives on in a new
	// record; otherwise its run is over.
	if req.Resubmit == attempts {
		workload.FreeRequest(req)
	}
	*rr = Running{}
	m.freeRun = append(m.freeRun, rr)
}

// Resubmit queues a killed request for another execution attempt
// (kill-and-resubmit, Krompass et al.). It reports false when the request
// has exhausted its resubmission budget. rr is a record OnFinish is handling,
// or, to resubmit later, a record holding a clone of that request and its
// class (the Manager reuses rr once OnFinish returns).
func (m *Manager) Resubmit(rr *Running) bool {
	max := m.MaxResubmits
	if max <= 0 {
		max = 3
	}
	if rr.Req.Resubmit >= max {
		return false
	}
	rr.Req.Resubmit++
	wl := rr.wl
	if wl == nil || wl.name != rr.Req.Workload { // a record the caller built
		wl = m.workloadOf(rr.Req.Workload)
	}
	wl.stats.Resubmits.Inc()
	m.stats.System.Resubmits.Inc()
	m.dispatchOrSchedule(rr.Req, wl, rr.Class)
	return true
}

// observeRunning, when non-nil, sees each record join the in-flight set
// (before OnDispatch) and leave it (as its finish starts). Tests set it to
// hold the set to a reference through whole experiment runs.
var observeRunning func(m *Manager, rr *Running, joined bool)

// RunningOf returns the record of an engine query the Manager dispatched, or
// nil when the query is not in flight under a Manager (its finish has
// started, or another caller submitted it).
func RunningOf(q *engine.Query) *Running {
	rr, _ := q.Owner.(*Running)
	return rr
}

// RunningAll returns the in-flight records in ascending engine query ID
// order — the engine's Live order, so no sort is needed. The order matters:
// controllers (execution control, MAPE planning) iterate this list and act
// on queries in sequence, so a map-order walk would make control decisions —
// and therefore whole runs — nondeterministic. A query that turned terminal
// but whose finish has not started yet still counts.
func (m *Manager) RunningAll() []*Running {
	var out []*Running
	for _, q := range m.eng.Live() {
		if rr := RunningOf(q); rr != nil {
			out = append(out, rr)
		}
	}
	return out
}

// Attainment evaluates a workload's SLO against its observed statistics.
func (m *Manager) Attainment(name string) policy.Attainment {
	slo, ok := m.slos[name]
	if !ok {
		return policy.Attainment{Met: true, Ratio: 1}
	}
	ws := m.stats.Workload(name)
	pct := slo.Percentile
	if pct == 0 {
		pct = 95
	}
	return slo.Evaluate(
		ws.Response.Mean(),
		ws.Response.Percentile(pct),
		ws.MeanVelocity(),
		ws.Throughput.Rate(m.sim.Now()),
	)
}

// Attainments evaluates every known workload.
func (m *Manager) Attainments() map[string]policy.Attainment {
	out := make(map[string]policy.Attainment, len(m.slos))
	// Map-to-map evaluation: each workload's attainment is independent.
	//dbwlm:sorted
	for name := range m.slos {
		out[name] = m.Attainment(name)
	}
	return out
}

// RunWorkload starts the generators and runs the simulation until the
// horizon plus a drain period; it is the standard experiment driver.
func (m *Manager) RunWorkload(gens []workload.Generator, horizon, drain sim.Duration) {
	for _, g := range gens {
		g.Start(m.sim, sim.Time(horizon), func(r *workload.Request) { m.Submit(r) })
	}
	m.sim.Run(sim.Time(horizon + drain))
}

// Report renders the per-workload statistics table.
func (m *Manager) Report() string {
	out := m.stats.Report()
	for _, name := range m.stats.Names() {
		if slo, ok := m.slos[name]; ok && slo.Kind != policy.SLOBestEffort {
			a := m.Attainment(name)
			out += fmt.Sprintf("%-14s SLO %v: observed %.4g (ratio %.2f, met=%v)\n",
				name, slo, a.Observed, a.Ratio, a.Met)
		}
	}
	return out
}
