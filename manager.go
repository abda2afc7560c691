package dbwlm

import (
	"cmp"
	"fmt"
	"slices"

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

// Running is the manager-side handle for a dispatched request: the request,
// its engine query, and its classification.
type Running struct {
	Req   *workload.Request
	Query *engine.Query
	Item  *scheduling.Item
	Class *characterize.ServiceClass
	// DispatchedAt is when the request entered the engine (last attempt).
	DispatchedAt sim.Time
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
	// fuzzy controller) use to take ownership of a query.
	OnDispatch func(*Running)
	// OnFinish, when set, observes every terminal outcome.
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
	running        map[int64]*Running // by engine query ID
	slos           map[string]policy.SLO
	classOf        map[string]string // workload name -> class name
	// onEngineFinish is m.finished bound once, so a release hands the engine
	// the same func value every time instead of a closure of its own.
	onEngineFinish func(*engine.Query, engine.Outcome)
}

// New builds a manager over a fresh engine on the simulator.
func New(s *sim.Simulator, engCfg engine.Config) *Manager {
	m := &Manager{
		sim:     s,
		eng:     engine.New(s, engCfg),
		stats:   metrics.NewRegistry(),
		running: make(map[int64]*Running),
		slos:    make(map[string]policy.SLO),
		classOf: make(map[string]string),
	}
	m.onEngineFinish = m.finished
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
func (m *Manager) Submit(req *workload.Request) {
	var class *characterize.ServiceClass
	if m.Router != nil {
		_, class = m.Router.Classify(req)
	} else {
		class = &characterize.ServiceClass{Name: "default", Priority: req.Priority}
	}
	m.noteWorkload(req)
	m.stats.Workload(req.Workload).ObserveArrival(req.Arrive)
	m.stats.System.ObserveArrival(req.Arrive)
	m.admit(req, class)
}

func (m *Manager) noteWorkload(req *workload.Request) {
	if _, ok := m.slos[req.Workload]; !ok {
		m.slos[req.Workload] = req.SLO
	}
}

func (m *Manager) admit(req *workload.Request, class *characterize.ServiceClass) {
	ctrl := m.Admission
	if ctrl == nil {
		ctrl = admission.AdmitAll{}
	}
	switch ctrl.Decide(req, m.sim.Now()) {
	case admission.Reject:
		m.stats.Workload(req.Workload).Rejected.Inc()
		m.stats.System.Rejected.Inc()
		m.stats.Events.Record(metrics.Event{
			Kind: metrics.EventControlAction, At: m.sim.Now(), Query: req.ID,
			Workload: req.Workload, What: "reject", Value: req.Est.Timerons,
		})
	case admission.Queue:
		m.admissionQueue.Push(req)
		m.armRetry()
	case admission.Admit:
		m.dispatchOrSchedule(req, class)
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
	m.sim.Schedule(retry, func() {
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
			if m.MaxQueueDelay > 0 && m.sim.Now().Sub(req.Arrive) > m.MaxQueueDelay {
				m.stats.Workload(req.Workload).Rejected.Inc()
				m.stats.System.Rejected.Inc()
				m.stats.Events.Record(metrics.Event{
					Kind: metrics.EventControlAction, At: m.sim.Now(), Query: req.ID,
					Workload: req.Workload, What: "queue-timeout",
					Value: m.sim.Now().Sub(req.Arrive).Seconds(),
				})
				continue
			}
			class := m.classFor(req)
			m.admit(req, class)
		}
		m.armRetry()
	})
}

func (m *Manager) classFor(req *workload.Request) *characterize.ServiceClass {
	if m.Router == nil {
		return &characterize.ServiceClass{Name: "default", Priority: req.Priority}
	}
	if name, ok := m.classOf[req.Workload]; ok {
		if c := m.Router.Class(name); c != nil {
			return c
		}
	}
	_, class := m.Router.Classify(req)
	return class
}

func (m *Manager) dispatchOrSchedule(req *workload.Request, class *characterize.ServiceClass) {
	m.classOf[req.Workload] = class.Name
	it := &scheduling.Item{
		Req:      req,
		Enqueued: m.sim.Now(),
		Class:    class.Name,
		Weight:   class.EffectiveWeight(),
	}
	if m.Scheduler == nil {
		m.release(it, class)
		return
	}
	if m.Scheduler.Release == nil {
		m.Scheduler.Release = func(rel *scheduling.Item) {
			m.release(rel, m.classByName(rel.Class))
		}
	}
	m.Scheduler.Enqueue(it, m.sim.Now())
}

func (m *Manager) classByName(name string) *characterize.ServiceClass {
	if m.Router != nil {
		if c := m.Router.Class(name); c != nil {
			return c
		}
		return m.Router.Default()
	}
	return &characterize.ServiceClass{Name: name, Priority: policy.PriorityMedium}
}

// release sends an item into the engine.
func (m *Manager) release(it *scheduling.Item, class *characterize.ServiceClass) {
	req := it.Req
	q := m.eng.Submit(req.True, it.Weight, m.onEngineFinish)
	rr := &Running{Req: req, Query: q, Item: it, Class: class, DispatchedAt: m.sim.Now()}
	m.running[q.ID] = rr
	if m.OnDispatch != nil {
		m.OnDispatch(rr)
	}
}

func (m *Manager) finished(q *engine.Query, oc engine.Outcome) {
	rr := m.running[q.ID]
	if rr == nil {
		return
	}
	delete(m.running, q.ID)
	now := m.sim.Now()
	if m.Scheduler != nil {
		m.Scheduler.OnFinish(rr.Item, now)
	}
	ws := m.stats.Workload(rr.Req.Workload)
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
}

// Resubmit queues a killed request for another execution attempt
// (kill-and-resubmit, Krompass et al.). It reports false when the request
// has exhausted its resubmission budget.
func (m *Manager) Resubmit(rr *Running) bool {
	max := m.MaxResubmits
	if max <= 0 {
		max = 3
	}
	if rr.Req.Resubmit >= max {
		return false
	}
	rr.Req.Resubmit++
	m.stats.Workload(rr.Req.Workload).Resubmits.Inc()
	m.stats.System.Resubmits.Inc()
	m.dispatchOrSchedule(rr.Req, rr.Class)
	return true
}

// RunningAll returns all in-flight handles in ascending engine query ID
// order. The order matters: controllers (execution control, MAPE planning)
// iterate this list and act on queries in sequence, so a map-order walk
// would make control decisions — and therefore whole runs — nondeterministic.
func (m *Manager) RunningAll() []*Running {
	out := make([]*Running, 0, len(m.running))
	for _, rr := range m.running {
		out = append(out, rr)
	}
	slices.SortFunc(out, func(a, b *Running) int { return cmp.Compare(a.Query.ID, b.Query.ID) })
	return out
}

// QueriesOfClass lists engine query IDs currently attributed to a service
// class — the reallocator's view. Sorted ascending for deterministic
// control decisions.
func (m *Manager) QueriesOfClass(class string) []int64 {
	out := make([]int64, 0, len(m.running))
	for id, rr := range m.running {
		if rr.Class != nil && rr.Class.Name == class {
			out = append(out, id)
		}
	}
	slices.Sort(out)
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
