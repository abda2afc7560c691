package rt

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dbwlm/internal/admission"
	"dbwlm/internal/engine"
	"dbwlm/internal/metrics"
	"dbwlm/internal/obsv"
	"dbwlm/internal/policy"
	"dbwlm/internal/slo"
)

// ClassID indexes the runtime's fixed class table.
type ClassID int32

// ClassSpec declares one service class at runtime construction. Limits are
// the initial policy; ApplyPolicy reloads them while traffic is flowing.
type ClassSpec struct {
	Name     string
	Priority policy.Priority
	// MaxMPL caps concurrently admitted requests of the class (0 = unlimited).
	MaxMPL int
	// MaxCostTimerons rejects requests whose estimated cost exceeds it
	// (0 = unlimited).
	MaxCostTimerons float64
	// MaxQueueDelay rejects queued requests that have waited longer, checked
	// at retry points — Manager.MaxQueueDelay semantics (0 = wait forever).
	MaxQueueDelay time.Duration
	// RetryBatch caps waiters re-evaluated per retry cycle (0 = all) —
	// Manager.RetryBatch semantics.
	RetryBatch int
}

// Options tunes the runtime.
type Options struct {
	// RetryEvery is the cadence of the background queue re-evaluation loop
	// started by Start (default 500ms — Manager.AdmissionRetry's default).
	RetryEvery time.Duration
	// GlobalMaxMPL caps concurrent admissions across all classes
	// (0 = unlimited).
	GlobalMaxMPL int
	// Now overrides the monotonic clock (nanoseconds); tests inject a fake
	// clock to drive queue timeouts deterministically.
	Now func() int64
}

// Verdict is the outcome of an admission attempt.
type Verdict uint8

// Verdicts.
const (
	// Admitted: the request holds a slot; the caller must Done the Grant.
	Admitted Verdict = iota
	// RejectedCost: estimated cost over the class limit.
	RejectedCost
	// RejectedTimeout: queued longer than MaxQueueDelay.
	RejectedTimeout
	// RejectedPredicted: the prediction gate forecast a runtime beyond the
	// admissible bucket (PredictGate).
	RejectedPredicted
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Admitted:
		return "admitted"
	case RejectedCost:
		return "rejected-cost"
	case RejectedTimeout:
		return "rejected-timeout"
	case RejectedPredicted:
		return "rejected-predicted"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// VerdictFromName parses a verdict name as rendered by String (used by the
// /trace filter).
func VerdictFromName(name string) (Verdict, bool) {
	for v := Admitted; v <= RejectedPredicted; v++ {
		if v.String() == name {
			return v, true
		}
	}
	return 0, false
}

// Grant is the value an admission attempt resolves to. It is plain data — no
// allocation on the admit path — and an admitted Grant must be handed back
// via Done exactly once.
type Grant struct {
	verdict Verdict
	class   ClassID
	start   int64 // runtime clock nanos at admission
	id      int64 // flight-recorder admission ID (0 when the recorder is off)
}

// Verdict reports the admission outcome.
//
//dbwlm:hotpath
func (g Grant) Verdict() Verdict { return g.verdict }

// classState is one service class: its gate, FIFO queue, and striped stats.
type classState struct {
	spec  ClassSpec
	gate  *gate
	queue waitQueue

	admitted *metrics.StripedCounter
	queued   *metrics.StripedCounter
	rejected *metrics.StripedCounter
	timeouts *metrics.StripedCounter
	// latency is the one record of a completion: seconds admitted -> done,
	// its merged count the done total. An attached SLO engine judges
	// deadlines against it (SetSLO).
	latency  *metrics.StripedHistogram
	wait     *metrics.StripedHistogram // seconds queued before admission
	velocity *metrics.StripedHistogram // ideal/actual for completed work
}

// Runtime is the live admission runtime. All exported methods are safe for
// concurrent use.
type Runtime struct {
	classes []*classState
	byName  map[string]ClassID
	global  *gate
	// byPriority lists the classes highest priority first (class ID breaks
	// ties): the order a release drains them in.
	byPriority []ClassID
	// waiting counts parked requests across every class; it moves together
	// with each class gate's waiters, so Done reads one word to learn that
	// nobody waits.
	waiting atomic.Int64

	now        func() int64
	retryEvery time.Duration

	lowPriorityGate atomic.Bool

	// Externally fed load indicators (the live analogue of engine gauges the
	// runtime cannot observe itself); admission.View exposes them.
	memPressure   metrics.AtomicGauge
	conflictRatio metrics.AtomicGauge
	cpuUtil       metrics.AtomicGauge

	// rec is the flight recorder; nil (the default) disables it, and every
	// hook below is a single nil-check branch in that state. qids hands out
	// the admission IDs that correlate one request's lifecycle events —
	// striped, so enabling the recorder adds no shared-line write to the
	// admit path (qid.go).
	rec  *obsv.Recorder
	qids qidAlloc

	// slo is the SLO attainment engine; nil (the default) disables deadline
	// accounting at Done, same single-branch discipline as rec.
	slo *slo.Engine

	stop chan struct{}
}

// SetRecorder attaches a flight recorder; nil detaches it. Call before
// serving traffic — the runtime reads the pointer without synchronization on
// the admit path.
func (r *Runtime) SetRecorder(rec *obsv.Recorder) { r.rec = rec }

// Recorder reports the attached flight recorder (nil when disabled).
func (r *Runtime) Recorder() *obsv.Recorder { return r.rec }

// SetSLO attaches an SLO engine; nil detaches it. Call before serving
// traffic — the runtime reads the pointer without synchronization at Done.
// The engine's class indexes must match this runtime's class table (build it
// from specs in the same order), and it should share the runtime clock so
// windows and deadlines agree. Attaching binds every class the engine tracks
// to the runtime's latency histogram, so Done records a completion once and
// the engine only judges it; one consequence is that an Observe on an
// attached engine records a completion of that class into the runtime's
// stats too.
func (r *Runtime) SetSLO(e *slo.Engine) {
	for i := 0; i < min(e.Classes(), len(r.classes)); i++ {
		e.Bind(i, r.classes[i].latency)
	}
	r.slo = e
}

// SLO reports the attached SLO engine (nil when disabled).
func (r *Runtime) SLO() *slo.Engine { return r.slo }

// New builds a runtime over the given class table. The table is fixed for
// the runtime's lifetime; limits reload via ApplyPolicy.
func New(specs []ClassSpec, opts Options) (*Runtime, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("rt: no classes")
	}
	shards := metrics.StripeShards(0)
	r := &Runtime{
		byName:     make(map[string]ClassID, len(specs)),
		retryEvery: opts.RetryEvery,
		now:        opts.Now,
	}
	if r.retryEvery <= 0 {
		r.retryEvery = 500 * time.Millisecond
	}
	if r.now == nil {
		epoch := time.Now()
		r.now = func() int64 { return int64(time.Since(epoch)) }
	}
	for _, spec := range specs {
		if spec.Name == "" {
			return nil, fmt.Errorf("rt: class with empty name")
		}
		if _, dup := r.byName[spec.Name]; dup {
			return nil, fmt.Errorf("rt: duplicate class %q", spec.Name)
		}
		cs := &classState{
			spec:     spec,
			gate:     newGate(limitsOf(spec)),
			admitted: metrics.NewStripedCounter(shards),
			queued:   metrics.NewStripedCounter(shards),
			rejected: metrics.NewStripedCounter(shards),
			timeouts: metrics.NewStripedCounter(shards),
			latency:  metrics.NewStripedHistogram(shards),
			wait:     metrics.NewStripedHistogram(shards),
			velocity: metrics.NewStripedHistogram(shards),
		}
		r.byName[spec.Name] = ClassID(len(r.classes))
		r.classes = append(r.classes, cs)
	}
	r.global = newGate(gateLimits{maxMPL: int64(opts.GlobalMaxMPL)})
	for id := range r.classes {
		r.byPriority = append(r.byPriority, ClassID(id))
	}
	sort.SliceStable(r.byPriority, func(i, j int) bool {
		return r.classes[r.byPriority[i]].spec.Priority > r.classes[r.byPriority[j]].spec.Priority
	})
	r.qids.init(shards)
	return r, nil
}

func limitsOf(spec ClassSpec) gateLimits {
	return gateLimits{
		maxMPL:        int64(spec.MaxMPL),
		maxCost:       spec.MaxCostTimerons,
		maxQueueDelay: spec.MaxQueueDelay.Nanoseconds(),
		retryBatch:    int32(spec.RetryBatch),
	}
}

// Class resolves a class name.
func (r *Runtime) Class(name string) (ClassID, bool) {
	id, ok := r.byName[name]
	return id, ok
}

// ClassName reports the name of a class ID.
func (r *Runtime) ClassName(id ClassID) string { return r.classes[id].spec.Name }

// NumClasses reports the class-table size.
//
//dbwlm:hotpath
func (r *Runtime) NumClasses() int { return len(r.classes) }

// NowNanos reads the runtime's monotonic clock.
func (r *Runtime) NowNanos() int64 { return r.now() }

// ElapsedSeconds reports how long an admitted Grant has been held — the
// service time the /done path feeds back into the prediction models.
//
//dbwlm:hotpath
func (r *Runtime) ElapsedSeconds(g Grant) float64 {
	if g.verdict != Admitted {
		return 0
	}
	return float64(r.now()-g.start) / 1e9
}

// Admit runs one request through the admission gate, blocking while it is
// queued. The steady-state path — gate open, no waiters — is lock-free and
// allocation-free: a limit-block load, a CAS on each padded gate counter,
// and striped counter increments.
//
//dbwlm:hotpath
func (r *Runtime) Admit(class ClassID, costTimerons float64) Grant {
	return r.admitWith(class, costTimerons, 0, 0, true)
}

// AdmitNoWait is Admit without the parked wait: a request the gate cannot
// seat immediately — MPL exhausted or the congestion gate closed on its
// priority — is rejected with RejectedTimeout (a queue timeout at zero wait)
// instead of queueing. This is the batched wire transport's deadline
// semantics: a batch dispatcher cannot park one op without stalling every op
// behind it in the frame, so ops carrying a wait budget fail fast and the
// client retries on a later frame if it still wants the slot.
//
//dbwlm:hotpath
func (r *Runtime) AdmitNoWait(class ClassID, costTimerons float64) Grant {
	return r.admitWith(class, costTimerons, 0, 0, false)
}

// admitWith is Admit plus the prediction pipeline's trace context — the
// statement fingerprint and predicted service seconds travel into the
// flight-recorder events (both zero on the plain Admit path) — and the wait
// flag separating blocking admits from the wire transport's fail-fast ones.
//
//dbwlm:hotpath
func (r *Runtime) admitWith(class ClassID, costTimerons float64, fp uint64, predicted float64, wait bool) Grant {
	cs := r.classes[class]
	lim := cs.gate.limits.Load()
	// One stripe per decision: the qid allocator, the class counter and the
	// recorder each mask it by their own shard count.
	stripe := metrics.StripeIdx()
	var qid int64
	if r.rec != nil {
		qid = r.qids.next(stripe)
	}
	if lim.maxCost > 0 && costTimerons > lim.maxCost {
		cs.rejected.IncAt(stripe)
		if r.rec != nil {
			r.rec.RecordAt(stripe, obsv.Event{At: r.now(), QID: qid, FP: fp,
				Kind: obsv.KindAdmit, Reason: obsv.ReasonCostLimit,
				Verdict: uint8(RejectedCost), Class: int32(class),
				Value: costTimerons, Aux: predicted})
		}
		return Grant{verdict: RejectedCost, class: class, id: qid}
	}
	gated := r.lowPriorityGate.Load() && cs.spec.Priority < gatePriorityBelow
	// FIFO within class: once waiters exist, new arrivals park behind them
	// instead of barging past on the fast path.
	if !gated && cs.gate.waiters.Load() == 0 {
		if r.global.tryEnter() {
			if cs.gate.tryEnter() {
				cs.admitted.IncAt(stripe)
				start := r.now()
				if r.rec != nil {
					r.rec.RecordAt(stripe, obsv.Event{At: start, QID: qid, FP: fp,
						Kind: obsv.KindAdmit, Reason: obsv.ReasonFastPath,
						Verdict: uint8(Admitted), Class: int32(class),
						Value: costTimerons, Aux: predicted})
				}
				return Grant{verdict: Admitted, class: class, start: start, id: qid}
			}
			r.global.leave()
		}
	}
	if !wait {
		cs.timeouts.IncAt(stripe)
		if r.rec != nil {
			r.rec.RecordAt(stripe, obsv.Event{At: r.now(), QID: qid, FP: fp,
				Kind: obsv.KindAdmit, Reason: obsv.ReasonQueueTimeout,
				Verdict: uint8(RejectedTimeout), Class: int32(class),
				Value: costTimerons, Aux: 0})
		}
		return Grant{verdict: RejectedTimeout, class: class, id: qid}
	}
	//dbwlm:nolint hotpath -- the queued slow path: once a request must park, the channel wait dwarfs the waiter-pool setup
	return r.await(cs, class, costTimerons, qid, fp, predicted, gated)
}

// await parks the request in its class queue until a retry cycle or a
// release hands it a verdict. It parks through its class's drain, which
// re-checks the gates in the same critical section: every holder may have
// released between the failed fast path and the push, each seeing nobody
// waiting, and the re-check is what seats the waiter then instead of at the
// next retry tick.
func (r *Runtime) await(cs *classState, class ClassID, cost float64, qid int64, fp uint64, predicted float64, gated bool) Grant {
	w := waiterPool.Get().(*waiter)
	w.enqueuedAt = r.now()
	w.cost = cost
	w.qid = qid
	w.fp = fp
	w.predicted = predicted
	if r.rec != nil {
		reason := obsv.ReasonGateFull
		if gated {
			reason = obsv.ReasonLowPriorityGate
		}
		r.rec.Record(obsv.Event{At: w.enqueuedAt, QID: qid, FP: fp,
			Kind: obsv.KindEnqueue, Reason: reason, Verdict: obsv.NoVerdict,
			Class: int32(class), Value: cost, Aux: predicted})
	}
	cs.queued.Inc()
	r.drain(cs, class, false, w)
	g := <-w.ch
	waiterPool.Put(w)
	return g
}

// Done releases an admitted Grant: the service latency is recorded (plus
// execution velocity when the caller knows the request's ideal stand-alone
// seconds; pass 0 when unknown), the slot returns to the gate, and parked
// waiters are drained if any: every class that has them, highest priority
// first, since the freed global slot may be the one a waiter of another
// class is parked on. Calling Done on a non-admitted Grant is a
// no-op; calling it twice on the same Grant corrupts the gate — the runtime
// is a cooperative gate, not a hostile-client guard.
//
//dbwlm:hotpath
func (r *Runtime) Done(g Grant, idealSeconds float64) {
	if g.verdict != Admitted {
		return
	}
	cs := r.classes[g.class]
	// One clock reading and one stripe per release: the latency sample, the
	// SLO check and the done event share now; the histograms and the
	// recorder share stripe.
	now := r.now()
	stripe := metrics.StripeIdx()
	elapsed := float64(now-g.start) / 1e9
	cs.latency.RecordAt(stripe, elapsed)
	if idealSeconds > 0 && elapsed > 0 {
		v := idealSeconds / elapsed
		if v > 1 {
			v = 1
		}
		cs.velocity.RecordAt(stripe, v)
	}
	missed := r.slo.Missed(int32(g.class), elapsed)
	if r.rec != nil {
		reason := obsv.ReasonNone
		if missed {
			reason = obsv.ReasonDeadlineMiss
		}
		r.rec.RecordAt(stripe, obsv.Event{At: now, QID: g.id,
			Kind: obsv.KindDone, Reason: reason, Verdict: obsv.NoVerdict,
			Class: int32(g.class), Value: elapsed, Aux: idealSeconds})
	}
	cs.gate.leave()
	r.global.leave()
	if r.waiting.Load() > 0 {
		//dbwlm:nolint hotpath -- waiters parked means the uncontended fast path is already gone; drain takes the queue mutex by design
		r.drainWaiting()
	}
}

// drainWaiting drains every class that has waiters, highest priority first.
func (r *Runtime) drainWaiting() {
	for _, id := range r.byPriority {
		if cs := r.classes[id]; cs.gate.waiters.Load() > 0 {
			r.drain(cs, id, false, nil)
		}
	}
}

// drain re-evaluates the head of one class queue: expired waiters time out
// (only at retry points — enforceTimeout — matching Manager, which checks
// the queue-timeout when its retry timer fires, with "waited strictly longer
// than MaxQueueDelay" semantics), admissible waiters take slots in FIFO
// order, and at most retryBatch waiters are decided per call so a gate
// momentarily opening cannot trigger a mass re-admission storm. A non-nil
// park joins the tail first, under the same lock, so a request parks and
// re-checks its gates in one critical section.
func (r *Runtime) drain(cs *classState, class ClassID, enforceTimeout bool, park *waiter) {
	lim := cs.gate.limits.Load()
	batch := int(lim.retryBatch)
	if batch <= 0 {
		batch = int(^uint(0) >> 1)
	}
	now := r.now()
	gated := r.lowPriorityGate.Load() && cs.spec.Priority < gatePriorityBelow
	cs.queue.mu.Lock()
	defer cs.queue.mu.Unlock()
	if park != nil {
		cs.queue.push(park)
		cs.gate.waiters.Add(1)
		r.waiting.Add(1)
	}
	for processed := 0; processed < batch; processed++ {
		w := cs.queue.peek()
		if w == nil {
			return
		}
		if enforceTimeout && lim.maxQueueDelay > 0 && now-w.enqueuedAt > lim.maxQueueDelay {
			cs.queue.pop()
			cs.gate.waiters.Add(-1)
			r.waiting.Add(-1)
			cs.timeouts.Inc()
			if r.rec != nil {
				r.rec.Record(obsv.Event{At: now, QID: w.qid, FP: w.fp,
					Kind: obsv.KindAdmit, Reason: obsv.ReasonQueueTimeout,
					Verdict: uint8(RejectedTimeout), Class: int32(class),
					Value: w.cost, Aux: float64(now-w.enqueuedAt) / 1e9})
			}
			w.ch <- Grant{verdict: RejectedTimeout, class: class, id: w.qid}
			continue
		}
		if gated {
			return
		}
		if lim.maxCost > 0 && w.cost > lim.maxCost {
			// Limits may have tightened since the request queued; a retry
			// re-runs the full decision, as Manager.admit does.
			cs.queue.pop()
			cs.gate.waiters.Add(-1)
			r.waiting.Add(-1)
			cs.rejected.Inc()
			if r.rec != nil {
				r.rec.Record(obsv.Event{At: now, QID: w.qid, FP: w.fp,
					Kind: obsv.KindAdmit, Reason: obsv.ReasonCostLimit,
					Verdict: uint8(RejectedCost), Class: int32(class),
					Value: w.cost, Aux: w.predicted})
			}
			w.ch <- Grant{verdict: RejectedCost, class: class, id: w.qid}
			continue
		}
		if !r.global.tryEnter() {
			return
		}
		if !cs.gate.tryEnter() {
			r.global.leave()
			return
		}
		stripe := metrics.StripeIdx()
		cs.queue.pop()
		cs.gate.waiters.Add(-1)
		r.waiting.Add(-1)
		cs.admitted.IncAt(stripe)
		cs.wait.RecordAt(stripe, float64(now-w.enqueuedAt)/1e9)
		if r.rec != nil {
			r.rec.RecordAt(stripe, obsv.Event{At: now, QID: w.qid, FP: w.fp,
				Kind: obsv.KindAdmit, Reason: obsv.ReasonDrained,
				Verdict: uint8(Admitted), Class: int32(class),
				Value: w.cost, Aux: float64(now-w.enqueuedAt) / 1e9})
		}
		w.ch <- Grant{verdict: Admitted, class: class, start: now, id: w.qid}
	}
}

// RetryNow runs one re-evaluation cycle over every class queue in class-ID
// order — the live analogue of Manager's admission retry event. Tests and
// the background loop call it; it is safe to call concurrently.
func (r *Runtime) RetryNow() {
	for id, cs := range r.classes {
		r.drain(cs, ClassID(id), true, nil)
	}
}

// Start launches the background retry loop at the RetryEvery cadence.
func (r *Runtime) Start() {
	if r.stop != nil {
		return
	}
	r.stop = make(chan struct{})
	go func(stop chan struct{}) {
		t := time.NewTicker(r.retryEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.RetryNow()
			case <-stop:
				return
			}
		}
	}(r.stop)
}

// Stop halts the background retry loop.
func (r *Runtime) Stop() {
	if r.stop != nil {
		close(r.stop)
		r.stop = nil
	}
}

// SetLoad feeds externally observed load indicators into the runtime's view
// — the live substitute for engine gauges (memory pressure, lock conflict
// ratio, CPU utilization) that indicator controllers consume via StatsNow.
func (r *Runtime) SetLoad(memPressure, conflictRatio, cpuUtil float64) {
	r.memPressure.Set(memPressure)
	r.conflictRatio.Set(conflictRatio)
	r.cpuUtil.Set(cpuUtil)
}

// gatePriorityBelow: while the low-priority gate is closed, only classes with
// priority strictly below this queue (admission.Indicators' default).
const gatePriorityBelow = policy.PriorityHigh

// SetLowPriorityGate opens or closes the congestion gate: while closed-on,
// classes below gatePriorityBelow queue instead of admitting — the effector
// half of the indicator controller (Zhang et al.), whose Decide loop runs
// against the runtime's View and flips this flag.
func (r *Runtime) SetLowPriorityGate(on bool) { r.lowPriorityGate.Store(on) }

// LowPriorityGate reports the congestion-gate state.
func (r *Runtime) LowPriorityGate() bool { return r.lowPriorityGate.Load() }

// InEngine implements admission.View: the number of currently admitted
// requests across all classes (the global gate's occupancy).
func (r *Runtime) InEngine() int { return int(r.global.occupancy()) }

// StatsNow implements admission.View: a merged-shard snapshot in the same
// shape the simulated engine reports, so threshold/indicator controllers run
// unchanged. Each figure is exact at the instant it was read;
// cross-field consistency is not guaranteed (see DESIGN.md, Live runtime).
func (r *Runtime) StatsNow() engine.Stats {
	resident := int(r.global.occupancy())
	var completed int64
	for _, cs := range r.classes {
		completed += cs.latency.Count()
	}
	return engine.Stats{
		Running:        resident,
		InEngine:       resident,
		Completed:      completed,
		MemPressure:    r.memPressure.Value(),
		ConflictRatio:  r.conflictRatio.Value(),
		CPUUtilization: r.cpuUtil.Value(),
	}
}

var _ admission.View = (*Runtime)(nil)

// ApplyPolicy atomically reloads per-class and global limits from a
// validated runtime policy. Classes named in the policy must exist (the
// class table is fixed at construction); on any error nothing is applied.
func (r *Runtime) ApplyPolicy(p *policy.RuntimePolicy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for i := range p.Classes {
		if _, ok := r.byName[p.Classes[i].Class]; !ok {
			return fmt.Errorf("rt: policy names unknown class %q", p.Classes[i].Class)
		}
	}
	// Objectives apply before gate limits so an SLO error (engine disabled,
	// unknown class) leaves the limits untouched.
	if len(p.SLOs) > 0 && r.slo == nil {
		return fmt.Errorf("rt: policy carries slos but the SLO engine is disabled (start with -slo)")
	}
	for i := range p.SLOs {
		s := &p.SLOs[i]
		if err := r.slo.SetObjective(s.Class, s.TargetMS/1e3, s.MissBudget,
			s.Percentile, s.BurnThreshold); err != nil {
			return err
		}
	}
	for i := range p.Classes {
		c := &p.Classes[i]
		cs := r.classes[r.byName[c.Class]]
		cs.gate.limits.Store(&gateLimits{
			maxMPL:        int64(c.MaxMPL),
			maxCost:       c.MaxCostTimerons,
			maxQueueDelay: c.MaxQueueDelayMS * int64(time.Millisecond),
			retryBatch:    int32(c.RetryBatch),
		})
	}
	glim := *r.global.limits.Load()
	glim.maxMPL = int64(p.GlobalMaxMPL)
	r.global.limits.Store(&glim)
	// New limits take effect immediately on the admit fast path; parked
	// waiters are re-evaluated at the next retry cycle or release — the same
	// cadence at which the simulated Manager notices a reopened gate.
	return nil
}

// Policy renders the currently effective limits as a runtime policy
// document (the GET /policy view).
func (r *Runtime) Policy() *policy.RuntimePolicy {
	p := &policy.RuntimePolicy{GlobalMaxMPL: int(r.global.limits.Load().maxMPL)}
	for _, cs := range r.classes {
		lim := cs.gate.limits.Load()
		p.Classes = append(p.Classes, policy.RuntimeClassLimit{
			Class:           cs.spec.Name,
			MaxMPL:          int(lim.maxMPL),
			MaxCostTimerons: lim.maxCost,
			MaxQueueDelayMS: lim.maxQueueDelay / int64(time.Millisecond),
			RetryBatch:      int(lim.retryBatch),
		})
	}
	if r.slo != nil {
		for _, sp := range r.slo.Specs() {
			p.SLOs = append(p.SLOs, policy.RuntimeSLO{
				Class:         sp.Class,
				TargetMS:      sp.Target * 1e3,
				MissBudget:    sp.MissBudget,
				Percentile:    sp.Percentile,
				BurnThreshold: sp.BurnThreshold,
			})
		}
	}
	return p
}

// ClassStats is the merged per-class monitoring view.
type ClassStats struct {
	Class    string           `json:"class"`
	Priority string           `json:"priority"`
	InEngine int64            `json:"in_engine"`
	QueueLen int64            `json:"queue_len"`
	Admitted int64            `json:"admitted"`
	Queued   int64            `json:"queued"`
	Rejected int64            `json:"rejected"`
	Timeouts int64            `json:"timeouts"`
	Done     int64            `json:"done"`
	Latency  metrics.Snapshot `json:"latency"`
	Wait     metrics.Snapshot `json:"wait"`
	Velocity metrics.Snapshot `json:"velocity"`
}

// StatsOf merges one class's shards.
//
//dbwlm:hotpath
func (r *Runtime) StatsOf(id ClassID) ClassStats {
	cs := r.classes[id]
	latency := cs.latency.Snapshot()
	return ClassStats{
		Class:    cs.spec.Name,
		Priority: cs.spec.Priority.String(),
		InEngine: cs.gate.occupancy(),
		QueueLen: cs.gate.waiters.Load(),
		Admitted: cs.admitted.Value(),
		Queued:   cs.queued.Value(),
		Rejected: cs.rejected.Value(),
		Timeouts: cs.timeouts.Value(),
		Done:     latency.Count,
		Latency:  latency,
		Wait:     cs.wait.Snapshot(),
		Velocity: cs.velocity.Snapshot(),
	}
}

// Snapshot merges every class in class-ID order.
func (r *Runtime) Snapshot() []ClassStats { return r.SnapshotInto(nil) }

// SnapshotInto fills buf with the merged per-class view, reusing its backing
// array when it is large enough — the monitoring loop's scratch-buffer path,
// which allocates nothing once the buffer is warm (nil or short buffers grow
// as Snapshot would).
//
//dbwlm:hotpath
func (r *Runtime) SnapshotInto(buf []ClassStats) []ClassStats {
	if cap(buf) < len(r.classes) {
		//dbwlm:nolint hotpath -- cold-buffer growth: runs once per caller, after which the scratch buffer is reused
		buf = make([]ClassStats, len(r.classes))
	}
	buf = buf[:len(r.classes)]
	for i := range r.classes {
		buf[i] = r.StatsOf(ClassID(i))
	}
	return buf
}

// QueueLen reports the number of waiters parked in one class queue. It takes
// the queue lock, so every waiter it counts has also made its re-check.
func (r *Runtime) QueueLen(id ClassID) int64 {
	cs := r.classes[id]
	cs.queue.mu.Lock()
	defer cs.queue.mu.Unlock()
	return cs.gate.waiters.Load()
}

// Token serializes an admitted Grant for transport to an external client
// (the wlmd /admit response) as class:start; ParseToken reverses it at
// /done. When the flight recorder assigned an admission ID, a third field
// carries it so the /done trace event correlates with the /admit one.
func (g Grant) Token() string {
	if g.verdict != Admitted {
		return ""
	}
	if g.id != 0 {
		return fmt.Sprintf("%d:%d:%d", g.class, g.start, g.id)
	}
	return fmt.Sprintf("%d:%d", g.class, g.start)
}

// Parts explodes a Grant into its transportable fields — the binary wire
// protocol's analogue of Token, with no formatting and no allocation. An
// admitted grant round-trips through GrantFromParts on the wire /done path.
//
//dbwlm:hotpath
func (g Grant) Parts() (class ClassID, startNanos, id int64, admitted bool) {
	return g.class, g.start, g.id, g.verdict == Admitted
}

// GrantFromParts reconstructs an admitted Grant from the fields Parts
// produced; ok is false when class names no class. Allocation-free — the
// wire transport's /done path.
//
//dbwlm:hotpath
func (r *Runtime) GrantFromParts(class ClassID, startNanos, id int64) (g Grant, ok bool) {
	if class < 0 || int(class) >= len(r.classes) {
		return Grant{}, false
	}
	return Grant{verdict: Admitted, class: class, start: startNanos, id: id}, true
}

// ParseToken reconstructs an admitted Grant from its token (with or without
// the optional trailing admission-ID field), under GrantFromParts' class
// check.
func (r *Runtime) ParseToken(tok string) (Grant, error) {
	parts := strings.Split(tok, ":")
	if len(parts) != 2 && len(parts) != 3 {
		return Grant{}, fmt.Errorf("rt: malformed token %q", tok)
	}
	var nums [3]int64
	for i, p := range parts {
		bits := 64
		if i == 0 {
			bits = 32 // class
		}
		v, err := strconv.ParseInt(p, 10, bits)
		if err != nil {
			return Grant{}, fmt.Errorf("rt: malformed token %q: %w", tok, err)
		}
		nums[i] = v
	}
	g, ok := r.GrantFromParts(ClassID(nums[0]), nums[1], nums[2])
	if !ok {
		return Grant{}, fmt.Errorf("rt: token %q names no class", tok)
	}
	return g, nil
}
