package engine

import (
	"fmt"
	"math"

	"dbwlm/internal/sim"
)

const (
	// overcommitExponent shapes the slowdown when demanded working memory
	// exceeds MemoryMB: every query's progress is divided by
	// (demand/MemoryMB)^overcommitExponent — a superlinear penalty that
	// produces the classic thrashing knee.
	overcommitExponent = 2
	// deadlockCheckEvery is the number of quanta between wait-for-graph
	// deadlock sweeps.
	deadlockCheckEvery = 5
)

// Config sets the simulated server's capacity and behaviour.
type Config struct {
	// Cores is the total CPU capacity in core-seconds per second.
	Cores float64
	// MemoryMB is the memory available to query working sets.
	MemoryMB float64
	// IOMBps is the aggregate disk bandwidth in MB/s.
	IOMBps float64
	// Quantum is the scheduling quantum (default 10ms).
	Quantum sim.Duration
	// disableFastForward turns off tick elision: every quantum is executed
	// by the full scheduling loop. A test seam, not a knob: fast-forward is
	// bit-for-bit equivalent, and only this package's equivalence and
	// allocation tests run without it.
	disableFastForward bool
}

func (c Config) withDefaults() Config {
	if c.Cores <= 0 {
		c.Cores = 8
	}
	if c.MemoryMB <= 0 {
		c.MemoryMB = 4096
	}
	if c.IOMBps <= 0 {
		c.IOMBps = 400
	}
	if c.Quantum <= 0 {
		c.Quantum = 10 * sim.Millisecond
	}
	return c
}

// SuspendStrategy selects how a query's state is preserved across suspension
// (Chandramouli et al., Section 4.2.3 of the paper).
type SuspendStrategy int

// Suspend strategies.
const (
	// SuspendDumpState writes all operator state at suspend time: expensive
	// suspend (StateMB of IO), cheap resume, no work lost.
	SuspendDumpState SuspendStrategy = iota
	// SuspendGoBack writes only control state: near-free suspend, but
	// execution reverts to the latest asynchronous checkpoint at resume.
	SuspendGoBack
)

// String names the strategy.
func (s SuspendStrategy) String() string {
	if s == SuspendDumpState {
		return "DumpState"
	}
	return "GoBack"
}

// Stats is an instantaneous snapshot of engine load, the raw material for
// every monitor-metric-driven controller.
type Stats struct {
	Running        int // queries making progress
	Blocked        int // queries waiting on locks
	Suspended      int
	InEngine       int     // total non-terminal queries
	CPUUtilization float64 // fraction of cores busy last quantum
	IOUtilization  float64
	MemPressure    float64 // working memory demanded by resident queries / capacity
	ConflictRatio  float64
	Completed      int64
	Killed         int64
	Deadlocks      int64
}

// Engine is the simulated DBMS server.
type Engine struct {
	cfg Config
	sim *sim.Simulator

	// live holds queries in submission (= ascending-ID) order; terminal
	// entries are skipped during iteration and compacted lazily, avoiding
	// a per-quantum sort. Get finds a query in it by binary search.
	live []*Query
	// resident counts the non-terminal queries in live.
	resident int
	locks    *lockTable
	nextID   int64

	ticking     bool
	quantumN    int
	lastCPUUsed float64
	lastIOUsed  float64

	// tickFn caches the tick method value so rescheduling the quantum loop
	// does not allocate a closure per quantum.
	tickFn func()

	// Scratch buffers reused across quanta to avoid per-tick allocation
	// (the tick is the simulator's hot loop).
	scratchAlive    []*Query
	scratchRunnable []*Query
	scratchCPU      []float64
	scratchIO       []float64
	scratchSlots    []allocSlot
	scratchBlocked  []*Query
	scratchFF       []ffRec

	completed int64
	killed    int64
	deadlocks int64

	// freeQ recycles Query objects for Submit: a terminal query goes onto it
	// when alive() compacts it out of the live slice (its onFinish has
	// returned by then, which ends every handle's validity), and Reset puts
	// the whole live slice there. At most maxFreeQ are kept.
	freeQ []*Query
	// freeFire recycles the records that carry onFinish callbacks to their
	// zero-delay events, so a completion allocates no closure.
	freeFire []*finishFire

	// OnQuantum, when non-nil, is invoked at the end of every quantum with
	// the engine; controllers that need per-quantum observation (PI
	// throttling, indicator collection) hook here. Setting it disables tick
	// elision, which pins the engine to quantum-by-quantum execution.
	OnQuantum func(*Engine)
}

// New returns an engine over the simulator with the given configuration.
func New(s *sim.Simulator, cfg Config) *Engine {
	e := &Engine{
		cfg:   cfg.withDefaults(),
		sim:   s,
		locks: newLockTable(),
	}
	e.tickFn = e.tick
	return e
}

// Reset returns the engine to the state of a fresh New over the same
// simulator with a new configuration, retaining every internal buffer: the
// live slice, the lock table, the per-quantum
// scratch, and — through the free list — the Query objects themselves, so a
// pooled engine reused across many runs (trace.ReplayMany) allocates almost
// nothing after its first. Resident queries are discarded without firing
// their onFinish callbacks, so every outstanding *Query handle ends here
// (its object may be recycled by the next Submit). Callers must Reset the
// shared simulator first so no stale engine event can fire. A reset engine's
// next run is bit-for-bit identical to a run on a freshly constructed one,
// which TestResetMatchesFresh pins.
func (e *Engine) Reset(cfg Config) {
	e.cfg = cfg.withDefaults()
	for i, q := range e.live {
		e.recycle(q)
		e.live[i] = nil
	}
	e.live = e.live[:0]
	e.resident = 0
	e.locks.reset()
	e.nextID = 0
	e.ticking = false
	e.quantumN = 0
	e.lastCPUUsed, e.lastIOUsed = 0, 0
	e.completed, e.killed, e.deadlocks = 0, 0, 0
	e.OnQuantum = nil
}

// Sim returns the engine's simulator.
func (e *Engine) Sim() *sim.Simulator { return e.sim }

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Now reports current virtual time.
func (e *Engine) Now() sim.Time { return e.sim.Now() }

// IdealSeconds reports the stand-alone execution time of spec on an idle
// server — the denominator-free "expected execution time" of the paper's
// execution-velocity metric (Section 2.1).
func (e *Engine) IdealSeconds(spec QuerySpec) float64 {
	cpu := spec.CPUWork / math.Min(e.cfg.Cores, spec.parallelism())
	io := spec.IOWork / e.cfg.IOMBps
	return math.Max(cpu, io)
}

// Submit dispatches a query for immediate execution. onFinish fires when the
// query completes, is killed, or dies in a deadlock. The returned Query is
// the engine-side handle used by execution controls; it is valid until
// onFinish has returned (with a nil onFinish, until the query leaves the
// engine), after which the engine reuses the object for a later Submit.
// Code that outlives that point keeps the ID and calls Get.
func (e *Engine) Submit(spec QuerySpec, weight float64, onFinish func(*Query, Outcome)) *Query {
	if weight <= 0 {
		weight = 1
	}
	e.nextID++
	var q *Query
	if n := len(e.freeQ); n > 0 {
		q = e.freeQ[n-1]
		e.freeQ[n-1] = nil
		e.freeQ = e.freeQ[:n-1]
	} else {
		q = &Query{}
	}
	held := q.held[:0]
	if held == nil {
		held = q.heldBuf[:0]
	}
	*q = Query{
		ID:         e.nextID,
		Spec:       spec,
		Weight:     weight,
		state:      StateRunning,
		submitAt:   e.sim.Now(),
		waitingKey: -1,
		held:       held,
		onFinish:   onFinish,
	}
	e.resident++
	e.live = append(e.live, q)
	e.ensureTicking()
	return q
}

// alive returns resident (non-terminal) queries in ascending-ID order,
// compacting the live slice when it accumulates too many terminal entries.
// The returned slice is scratch storage valid until the next call.
func (e *Engine) alive() []*Query {
	if len(e.live) > 2*e.resident+16 {
		kept := e.live[:0]
		for _, q := range e.live {
			// A terminal query whose onFinish has not fired yet (it was
			// finished by an event at this instant) keeps its handle valid
			// until that callback returns; the next compaction takes it.
			if !q.state.Terminal() || q.onFinish != nil {
				kept = append(kept, q)
			} else {
				e.recycle(q)
			}
		}
		for i := len(kept); i < len(e.live); i++ {
			e.live[i] = nil
		}
		e.live = kept
	}
	out := e.scratchAlive[:0]
	for _, q := range e.live {
		if !q.state.Terminal() {
			out = append(out, q)
		}
	}
	e.scratchAlive = out
	return out
}

// maxFreeQ bounds the free list; beyond it the GC takes terminal queries.
const maxFreeQ = 4096

// recycle puts q on the free list, keeping its held-keys buffer.
func (e *Engine) recycle(q *Query) {
	if len(e.freeQ) < maxFreeQ {
		*q = Query{held: q.held[:0]}
		e.freeQ = append(e.freeQ, q)
	}
}

// Get returns the engine-side handle for id, or nil if the query has left
// the engine.
func (e *Engine) Get(id int64) *Query {
	if i := searchID(e.live, id); i < len(e.live) && e.live[i].ID == id && !e.live[i].state.Terminal() {
		return e.live[i]
	}
	return nil
}

// Live returns the engine's queries in ascending ID order: the resident
// ones and the terminal ones not yet compacted away, which include every
// query whose onFinish has not returned. Callers must not modify or keep it.
func (e *Engine) Live() []*Query { return e.live }

// InEngine reports the number of resident (non-terminal) queries.
func (e *Engine) InEngine() int { return e.resident }

// SetWeight changes a query's priority weight (reprioritization /
// resource reallocation effector).
func (e *Engine) SetWeight(id int64, w float64) error {
	q := e.Get(id)
	if q == nil {
		return fmt.Errorf("engine: no such query %d", id)
	}
	if w <= 0 {
		return fmt.Errorf("engine: weight must be positive, got %v", w)
	}
	q.Weight = w
	return nil
}

// SetThrottle sets a query's sleep fraction in [0, 1) (throttling effector).
func (e *Engine) SetThrottle(id int64, frac float64) error {
	q := e.Get(id)
	if q == nil {
		return fmt.Errorf("engine: no such query %d", id)
	}
	if frac < 0 || frac >= 1 {
		return fmt.Errorf("engine: throttle fraction %v out of [0,1)", frac)
	}
	q.Throttle = frac
	return nil
}

// Kill terminates a running query, releasing its resources immediately
// (query-cancellation effector).
func (e *Engine) Kill(id int64) error {
	q := e.Get(id)
	if q == nil {
		return fmt.Errorf("engine: no such query %d", id)
	}
	e.finish(q, StateKilled, OutcomeKilled)
	return nil
}

// Suspend takes a query off the server using the given strategy. With
// DumpState the query spends StateMB/IOMBps of time writing its state before
// its resources are released; with GoBack release is immediate but progress
// reverts to the latest checkpoint. Suspending a blocked or suspending query
// is an error (locks would be held indefinitely; suspend targets analytical
// queries, as in the paper).
func (e *Engine) Suspend(id int64, strategy SuspendStrategy) error {
	q := e.Get(id)
	if q == nil {
		return fmt.Errorf("engine: no such query %d", id)
	}
	if q.state != StateRunning {
		return fmt.Errorf("engine: cannot suspend query %d in state %v", id, q.state)
	}
	q.suspends++
	switch strategy {
	case SuspendGoBack:
		q.goBack = true
		e.park(q)
	case SuspendDumpState:
		q.goBack = false
		dump := sim.DurationFromSeconds(q.Spec.StateMB / e.cfg.IOMBps)
		if dump <= 0 {
			e.park(q)
			return nil
		}
		q.state = StateSuspending
		id := q.ID
		e.sim.Schedule(dump, func() {
			// By ID: a query killed mid-dump may be recycled by now.
			if q := e.Get(id); q != nil && q.state == StateSuspending {
				e.park(q)
			}
		})
	default:
		return fmt.Errorf("engine: unknown suspend strategy %v", strategy)
	}
	return nil
}

// park completes a suspension: resources are released and the query becomes
// dormant. Held locks are released (suspended queries must not block others).
func (e *Engine) park(q *Query) {
	if q.goBack {
		// Revert to the latest checkpoint.
		cp := q.lastCheckpoint
		if q.Spec.CPUWork > 0 {
			q.resumeProgressCPU = cp * q.Spec.CPUWork
		}
		if q.Spec.IOWork > 0 {
			q.resumeProgressIO = cp * q.Spec.IOWork
		}
	} else {
		q.resumeProgressCPU = q.cpuDone
		q.resumeProgressIO = q.ioDone
	}
	q.state = StateSuspended
	q.waitingKey = -1
	for _, w := range e.locks.releaseAll(q) {
		e.wake(w)
	}
}

// Resume puts a suspended query back on the server. With DumpState the saved
// state is read back first (StateMB of extra IO charged to the query); with
// GoBack the work since the last checkpoint is simply re-executed.
func (e *Engine) Resume(id int64) error {
	q := e.Get(id)
	if q == nil {
		return fmt.Errorf("engine: no such query %d", id)
	}
	if q.state != StateSuspended {
		return fmt.Errorf("engine: cannot resume query %d in state %v", id, q.state)
	}
	q.cpuDone = q.resumeProgressCPU
	q.ioDone = q.resumeProgressIO
	if !q.goBack && q.Spec.StateMB > 0 {
		// Reading the dump back is extra IO work: subtract from ioDone,
		// clamping at zero (the engine re-does it as part of the run).
		q.ioDone = math.Max(0, q.ioDone-q.Spec.StateMB)
	}
	q.state = StateRunning
	// Re-acquisition: locks below the already-passed progress points must be
	// re-acquired as execution replays; reset nextLock to match progress.
	q.nextLock = 0
	e.ensureTicking()
	return nil
}

// finish removes q from the engine with the given terminal state.
func (e *Engine) finish(q *Query, st State, oc Outcome) {
	q.state = st
	q.finishAt = e.sim.Now()
	for _, w := range e.locks.releaseAll(q) {
		e.wake(w)
	}
	e.resident--
	switch oc {
	case OutcomeCompleted:
		e.completed++
	case OutcomeKilled:
		e.killed++
	case OutcomeDeadlocked:
		e.deadlocks++
	}
	if q.onFinish != nil {
		// Fire the callback after the current quantum's bookkeeping, so
		// callbacks observe a consistent engine. Detached: the event is
		// pooled by the simulator once it fires.
		var f *finishFire
		if n := len(e.freeFire); n > 0 {
			f = e.freeFire[n-1]
			e.freeFire = e.freeFire[:n-1]
		} else {
			f = &finishFire{e: e}
			f.fn = f.fire
		}
		f.cb, f.q, f.oc = q.onFinish, q, oc
		e.sim.ScheduleDetached(0, f.fn)
	}
}

// finishFire is one pending onFinish callback. fn is the fire method value,
// bound once when the record is first made; the record goes back on the
// engine's free list as it fires.
type finishFire struct {
	e  *Engine
	cb func(*Query, Outcome)
	q  *Query
	oc Outcome
	fn func()
}

func (f *finishFire) fire() {
	cb, q, oc := f.cb, f.q, f.oc
	f.cb, f.q = nil, nil
	f.e.freeFire = append(f.e.freeFire, f)
	cb(q, oc)
	q.onFinish = nil // the handle has ended: compaction may recycle q
}

func (e *Engine) wake(q *Query) {
	if q.state == StateBlocked {
		q.state = StateRunning
		q.waitingKey = -1
	}
}

// ensureTicking starts the quantum loop if it is not running.
func (e *Engine) ensureTicking() {
	if e.ticking {
		return
	}
	e.ticking = true
	e.sim.ScheduleDetached(e.cfg.Quantum, e.tickFn)
}

// tick advances every resident query by one quantum, then fast-forwards
// across any run of provably identical quanta (see fastForward).
func (e *Engine) tick() {
	if e.resident == 0 {
		e.ticking = false
		return
	}
	e.quantumN++
	dt := e.cfg.Quantum.Seconds()

	// Phase 1: lock acquisition for running queries that have reached their
	// next lock point.
	alive := e.alive()
	for _, q := range alive {
		if q.state != StateRunning {
			continue
		}
		e.acquireDueLocks(q)
	}

	// Phase 2: memory pressure over resident (running + blocked +
	// suspending) queries. Iterating the live slice in ascending-ID order
	// keeps the floating-point sum order — and therefore the slowdown —
	// deterministic.
	var memDemand float64
	for _, q := range alive {
		if q.state == StateRunning || q.state == StateBlocked || q.state == StateSuspending {
			memDemand += q.Spec.MemMB
		}
	}
	slowdown := 1.0
	if memDemand > e.cfg.MemoryMB {
		slowdown = math.Pow(memDemand/e.cfg.MemoryMB, overcommitExponent)
	}

	// Phase 3: CPU and IO allocation among runnable queries.
	runnable := e.scratchRunnable[:0]
	for _, q := range alive {
		if q.state == StateRunning {
			runnable = append(runnable, q)
		}
	}
	e.scratchRunnable = runnable
	cpuShares := e.allocateCPU(runnable)
	ioShares := e.allocateIO(runnable)

	// Phase 4: advance progress and account blocked time.
	eff := dt / slowdown
	var cpuUsed, ioUsed float64
	for i, q := range runnable {
		dc := cpuShares[i] * eff
		di := ioShares[i] * eff
		if q.Spec.CPUWork > 0 {
			q.cpuDone = math.Min(q.Spec.CPUWork, q.cpuDone+dc)
		}
		if q.Spec.IOWork > 0 {
			q.ioDone = math.Min(q.Spec.IOWork, q.ioDone+di)
		}
		cpuUsed += cpuShares[i]
		ioUsed += ioShares[i]
		// Asynchronous checkpointing.
		every := q.Spec.checkpointEvery()
		if p := q.Progress(); p >= q.lastCheckpoint+every {
			q.lastCheckpoint = math.Floor(p/every) * every
		}
	}
	blockedN := 0
	for _, q := range alive {
		switch q.state {
		case StateBlocked:
			q.blockedFor += e.cfg.Quantum
			blockedN++
		case StateSuspended:
			q.suspended += e.cfg.Quantum
		}
	}
	e.lastCPUUsed = cpuUsed
	e.lastIOUsed = ioUsed

	// Phase 5: completions.
	finished := 0
	for _, q := range alive {
		if q.state != StateRunning {
			continue
		}
		cpuOK := q.Spec.CPUWork <= 0 || q.cpuDone >= q.Spec.CPUWork-1e-12
		ioOK := q.Spec.IOWork <= 0 || q.ioDone >= q.Spec.IOWork-1e-12
		if cpuOK && ioOK {
			e.finish(q, StateDone, OutcomeCompleted)
			finished++
		}
	}

	// Phase 6: periodic deadlock detection; the youngest query in a cycle
	// is chosen as the victim. A sweep with no blocked queries is a no-op
	// and is skipped outright.
	if e.quantumN%deadlockCheckEvery == 0 && blockedN > 0 {
		finished += e.resolveDeadlocks()
	}

	if e.OnQuantum != nil {
		// Guard the coarse-observation contract: if the hook finished or
		// submitted queries this quantum, the shares just computed are
		// stale and the upcoming quanta are not elidable.
		pre := e.completed + e.killed + e.deadlocks + e.nextID
		e.OnQuantum(e)
		if post := e.completed + e.killed + e.deadlocks + e.nextID; post != pre {
			finished++
		}
	}

	if e.resident == 0 {
		e.ticking = false
		return
	}

	// Fast-forward: when this quantum changed no scheduling input (no query
	// finished and no deadlock victim was killed — share allocation already
	// reflects any phase-1 lock transition), every following quantum repeats
	// the exact same per-query increments until the next "interesting"
	// point. Apply those increments here and skip the intermediate ticks.
	gap := sim.Duration(0)
	if finished == 0 && !e.cfg.disableFastForward && e.OnQuantum == nil {
		gap = e.fastForward(runnable, cpuShares, ioShares, eff, alive, blockedN)
	}
	e.sim.ScheduleDetached(e.cfg.Quantum+gap, e.tickFn)
}

// ffRec is the fast-forward working record for one runnable query: running
// copies of its progress counters, its per-quantum increments, and the
// boundaries at which the shared allocation would stop being valid.
type ffRec struct {
	q      *Query
	cpu    float64 // running copy of cpuDone
	io     float64 // running copy of ioDone
	dc     float64 // CPU progress per quantum at current shares
	di     float64 // IO progress per quantum at current shares
	nc     float64 // candidate cpu after the next quantum
	ni     float64 // candidate io after the next quantum
	cpuLim float64 // stop before cpu reaches this (+Inf: cannot bound)
	ioLim  float64
	lockAt float64 // progress of the next lock acquisition (+Inf: none)
}

// fastForward computes how many upcoming quanta are provably identical to
// the one just executed and applies their state updates in one batch,
// bit-for-bit equivalent to running them one by one. The gap ends at the
// earliest "interesting" point: a query approaching completion (or
// exhausting one resource, which shifts the shares), a lock AtProgress
// point, a deadlock sweep (only relevant while queries are blocked), the
// next pending simulator event, or the driver's Run horizon. It returns the
// extra virtual time to skip before the next full quantum.
func (e *Engine) fastForward(runnable []*Query, cpuShares, ioShares []float64, eff float64, alive []*Query, blockedN int) sim.Duration {
	const absCap = 1 << 16 // safety valve when nothing bounds the gap
	q := int64(e.cfg.Quantum)
	now := e.sim.Now()

	gapMax := int64(absCap)
	if t, ok := e.sim.NextEventAt(); ok {
		// Elided quanta must precede the event strictly: pending events
		// were scheduled before this tick, so at a shared timestamp they
		// fire before the tick would.
		if t <= now {
			return 0
		}
		if g := (int64(t-now) - 1) / q; g < gapMax {
			gapMax = g
		}
	}
	if h, ok := e.sim.Horizon(); ok {
		// The driver stops at h; quanta at exactly h still fire.
		if h <= now {
			return 0
		}
		if g := int64(h-now) / q; g < gapMax {
			gapMax = g
		}
	}
	if blockedN > 0 {
		// The next deadlock sweep may kill a victim; stop just before it.
		d := int64(deadlockCheckEvery)
		if g := d - int64(e.quantumN)%d - 1; g < gapMax {
			gapMax = g
		}
	}
	if gapMax <= 0 {
		return 0
	}

	recs := e.scratchFF[:0]
	for i, qq := range runnable {
		r := ffRec{
			q:      qq,
			cpu:    qq.cpuDone,
			io:     qq.ioDone,
			dc:     cpuShares[i] * eff,
			di:     ioShares[i] * eff,
			cpuLim: math.Inf(1),
			ioLim:  math.Inf(1),
			lockAt: math.Inf(1),
		}
		if w := qq.Spec.CPUWork; w > 0 && r.dc > 0 {
			if r.cpu < w-1e-12 {
				// Completion-epsilon boundary (also precedes the exact
				// clamp that would change slot membership).
				r.cpuLim = w - 1e-12
			} else {
				// Already past the completion epsilon but alive on IO:
				// the remaining boundary is the exact clamp at w.
				r.cpuLim = w
			}
		}
		if w := qq.Spec.IOWork; w > 0 && r.di > 0 {
			if r.io < w-1e-12 {
				r.ioLim = w - 1e-12
			} else {
				r.ioLim = w
			}
		}
		if qq.nextLock < len(qq.Spec.Locks) {
			r.lockAt = qq.Spec.Locks[qq.nextLock].AtProgress
		}
		recs = append(recs, r)
	}
	e.scratchFF = recs

	gap := int64(0)
	for gap < gapMax {
		boundary := false
		for i := range recs {
			r := &recs[i]
			if !math.IsInf(r.lockAt, 1) {
				// Would the next full quantum's phase 1 find a due lock?
				// Replicates Query.Progress bit for bit.
				pc, pi := 1.0, 1.0
				if w := r.q.Spec.CPUWork; w > 0 {
					pc = r.cpu / w
				}
				if w := r.q.Spec.IOWork; w > 0 {
					pi = r.io / w
				}
				p := pc
				if pi < p {
					p = pi
				}
				if p > 1 {
					p = 1
				}
				if r.lockAt <= p {
					boundary = true
					break
				}
			}
			r.nc = r.cpu + r.dc
			r.ni = r.io + r.di
			if r.nc >= r.cpuLim || r.ni >= r.ioLim {
				boundary = true
				break
			}
		}
		if boundary {
			break
		}
		for i := range recs {
			recs[i].cpu = recs[i].nc
			recs[i].io = recs[i].ni
		}
		gap++
	}
	if gap == 0 {
		return 0
	}

	// Commit the batched updates. Values stayed strictly below every
	// CPUWork/IOWork limit, so the per-quantum min() clamps were no-ops.
	for i := range recs {
		r := &recs[i]
		qq := r.q
		if qq.Spec.CPUWork > 0 {
			qq.cpuDone = r.cpu
		}
		if qq.Spec.IOWork > 0 {
			qq.ioDone = r.io
		}
		// Checkpoint catch-up: applying the rule once at the final
		// progress yields the same lastCheckpoint as applying it every
		// quantum, because progress was monotonic across the gap.
		every := qq.Spec.checkpointEvery()
		if p := qq.Progress(); p >= qq.lastCheckpoint+every {
			qq.lastCheckpoint = math.Floor(p/every) * every
		}
	}
	skipped := sim.Duration(gap) * e.cfg.Quantum
	for _, qq := range alive {
		switch qq.state {
		case StateBlocked:
			qq.blockedFor += skipped
		case StateSuspended:
			qq.suspended += skipped
		}
	}
	e.quantumN += int(gap)
	return skipped
}

// acquireDueLocks acquires, in order, every lock whose AtProgress point has
// been reached. The query blocks on the first one that conflicts.
func (e *Engine) acquireDueLocks(q *Query) {
	p := q.Progress()
	for q.nextLock < len(q.Spec.Locks) {
		lr := q.Spec.Locks[q.nextLock]
		if lr.AtProgress > p {
			return
		}
		// Skip locks already held (after resume replay).
		if holds(q, lr.Key) {
			q.nextLock++
			continue
		}
		if e.locks.tryAcquire(q, lr.Key, lr.Exclusive) {
			q.nextLock++
			continue
		}
		q.state = StateBlocked
		q.waitingKey = lr.Key
		q.nextLock++ // the waiter queue grant will add it to held
		return
	}
}

func holds(q *Query, key int) bool {
	for _, k := range q.held {
		if k == key {
			return true
		}
	}
	return false
}

// resolveDeadlocks kills the youngest member of each wait-for cycle. It
// returns the number of victims killed.
func (e *Engine) resolveDeadlocks() int {
	kills := 0
	for {
		// The live slice is in ascending-ID order, as detectDeadlock needs.
		blocked := e.scratchBlocked[:0]
		for _, q := range e.live {
			if q.state == StateBlocked {
				blocked = append(blocked, q)
			}
		}
		var victim *Query
		if len(blocked) > 0 {
			victim = e.locks.detectDeadlock(blocked)
		}
		clear(blocked) // drop the *Query references
		e.scratchBlocked = blocked[:0]
		if victim == nil {
			return kills
		}
		e.finish(victim, StateDeadlocked, OutcomeDeadlocked)
		kills++
	}
}

type allocSlot struct {
	i   int
	w   float64
	cap float64
}

// waterfill divides capacity among slots proportionally to weight, capping
// each slot and redistributing the excess. Throttled queries get a reduced
// cap, so their self-imposed sleep frees real capacity for everyone else —
// and leaves it unused when no one else wants it.
//
// waterfill consumes slots: saturated entries are compacted out of the
// backing array in place between redistribution rounds, so the slice
// contents are unspecified after the call.
func waterfill(slots []allocSlot, capacity float64, shares []float64) {
	for len(slots) > 0 && capacity > 1e-12 {
		var sumW float64
		for _, s := range slots {
			sumW += s.w
		}
		if sumW <= 0 {
			return
		}
		progressed := false
		// Partition in place: unsaturated slots are compacted to the front
		// of the same backing array (stable, so redistribution order — and
		// the floating-point result — matches the old copying version)
		// without allocating a fresh slice per round.
		remaining := slots[:0]
		for _, s := range slots {
			alloc := capacity * s.w / sumW
			if alloc >= s.cap {
				shares[s.i] = s.cap
				capacity -= s.cap
				progressed = true
			} else {
				remaining = append(remaining, s)
			}
		}
		if !progressed {
			for _, s := range remaining {
				shares[s.i] = capacity * s.w / sumW
			}
			return
		}
		slots = remaining
		if capacity < 0 {
			capacity = 0
		}
	}
}

// allocateCPU divides cores among runnable queries by weight, capping each
// query at parallelism×(1−throttle): a throttled query sleeps that fraction
// of each quantum regardless of how idle the server is.
func (e *Engine) allocateCPU(runnable []*Query) []float64 {
	shares := resizeZero(&e.scratchCPU, len(runnable))
	slots := e.scratchSlots[:0]
	for i, q := range runnable {
		if q.Spec.CPUWork <= 0 || q.cpuDone >= q.Spec.CPUWork {
			continue
		}
		if q.Weight <= 0 {
			continue
		}
		slots = append(slots, allocSlot{i: i, w: q.Weight, cap: q.Spec.parallelism() * (1 - q.Throttle)})
	}
	e.scratchSlots = slots
	waterfill(slots, e.cfg.Cores, shares)
	return shares
}

// allocateIO divides IO bandwidth among runnable queries with IO remaining,
// proportionally to weight, capping each query at (1−throttle) of the total
// bandwidth.
func (e *Engine) allocateIO(runnable []*Query) []float64 {
	shares := resizeZero(&e.scratchIO, len(runnable))
	slots := e.scratchSlots[:0]
	for i, q := range runnable {
		if q.Spec.IOWork <= 0 || q.ioDone >= q.Spec.IOWork {
			continue
		}
		if q.Weight <= 0 {
			continue
		}
		slots = append(slots, allocSlot{i: i, w: q.Weight, cap: e.cfg.IOMBps * (1 - q.Throttle)})
	}
	e.scratchSlots = slots
	waterfill(slots, e.cfg.IOMBps, shares)
	return shares
}

// resizeZero grows (or shrinks) *buf to n zeroed entries, reusing capacity.
func resizeZero(buf *[]float64, n int) []float64 {
	s := *buf
	if cap(s) < n {
		s = make([]float64, n)
	} else {
		s = s[:n]
		for i := range s {
			s[i] = 0
		}
	}
	*buf = s
	return s
}

// StatsNow snapshots current engine load in one walk of the live slice. A
// terminal query holds no locks, so the conflict ratio's lock counts are
// summed over the resident queries in the same walk.
func (e *Engine) StatsNow() Stats {
	st := Stats{
		Completed: e.completed,
		Killed:    e.killed,
		Deadlocks: e.deadlocks,
	}
	var memDemand float64
	var held, heldActive int
	for _, q := range e.live {
		if q.state.Terminal() {
			continue
		}
		st.InEngine++
		held += len(q.held)
		if q.state != StateBlocked {
			heldActive += len(q.held)
		}
		switch q.state {
		case StateRunning, StateSuspending:
			st.Running++
			memDemand += q.Spec.MemMB
		case StateBlocked:
			st.Blocked++
			memDemand += q.Spec.MemMB
		case StateSuspended:
			st.Suspended++
		}
	}
	st.MemPressure = memDemand / e.cfg.MemoryMB
	st.CPUUtilization = e.lastCPUUsed / e.cfg.Cores
	st.IOUtilization = e.lastIOUsed / e.cfg.IOMBps
	st.ConflictRatio = lockRatio(held, heldActive)
	return st
}
