package engine

import (
	"math"
	"testing"

	"dbwlm/internal/sim"
)

func newTestEngine(cfg Config) (*sim.Simulator, *Engine) {
	s := sim.New(1)
	return s, New(s, cfg)
}

// Running returns all non-terminal queries, sorted by ID for determinism.
func (e *Engine) Running() []*Query {
	out := make([]*Query, 0, e.resident)
	for _, q := range e.live {
		if !q.state.Terminal() {
			out = append(out, q)
		}
	}
	return out
}

// run advances the simulation up to the horizon (seconds of virtual time).
func run(s *sim.Simulator, seconds float64) {
	s.Run(s.Now().Add(sim.DurationFromSeconds(seconds)))
}

func TestSingleQueryCompletes(t *testing.T) {
	s, e := newTestEngine(Config{Cores: 4, IOMBps: 100})
	var done *Query
	var outcome Outcome
	e.Submit(QuerySpec{CPUWork: 2, IOWork: 50, MemMB: 100, Parallelism: 2}, 1,
		func(q *Query, oc Outcome) { done, outcome = q, oc })
	run(s, 10)
	if done == nil || outcome != OutcomeCompleted {
		t.Fatalf("query did not complete: %v %v", done, outcome)
	}
	// Ideal: max(2/2, 50/100) = 1s. Alone on the server it should take ~1s.
	elapsed := done.finishAt.Sub(done.submitAt).Seconds()
	if elapsed < 0.95 || elapsed > 1.2 {
		t.Fatalf("solo runtime = %vs, want ~1s", elapsed)
	}
	if e.InEngine() != 0 {
		t.Fatalf("engine not empty after completion")
	}
}

func TestIdealSeconds(t *testing.T) {
	_, e := newTestEngine(Config{Cores: 8, IOMBps: 400})
	spec := QuerySpec{CPUWork: 16, IOWork: 100, Parallelism: 4}
	// CPU-bound: 16/4 = 4s vs IO 100/400 = 0.25s.
	if got := e.IdealSeconds(spec); math.Abs(got-4) > 1e-9 {
		t.Fatalf("IdealSeconds = %v, want 4", got)
	}
	spec = QuerySpec{CPUWork: 0.1, IOWork: 800, Parallelism: 1}
	if got := e.IdealSeconds(spec); math.Abs(got-2) > 1e-9 {
		t.Fatalf("IdealSeconds = %v, want 2 (IO-bound)", got)
	}
}

func TestWeightedSharing(t *testing.T) {
	// Two CPU-bound queries, weights 3:1, one core: the heavy one should
	// finish roughly when it has received 3/4 of the core.
	s, e := newTestEngine(Config{Cores: 1, IOMBps: 1000})
	var doneAt [2]sim.Time
	e.Submit(QuerySpec{CPUWork: 3, Parallelism: 1}, 3, func(q *Query, _ Outcome) { doneAt[0] = q.finishAt })
	e.Submit(QuerySpec{CPUWork: 1, Parallelism: 1}, 1, func(q *Query, _ Outcome) { doneAt[1] = q.finishAt })
	run(s, 20)
	// Heavy gets 0.75 cores, light 0.25: both need 4s to finish their work.
	if doneAt[0] == 0 || doneAt[1] == 0 {
		t.Fatal("queries did not finish")
	}
	t0 := doneAt[0].Seconds()
	t1 := doneAt[1].Seconds()
	if math.Abs(t0-4) > 0.3 || math.Abs(t1-4) > 0.3 {
		t.Fatalf("finish times = %v, %v; want both ~4s under 3:1 weights", t0, t1)
	}
}

func TestParallelismCapAndWaterFilling(t *testing.T) {
	// One query capped at 1 core, another uncapped, 4 cores total: the
	// capped query gets 1 core, the other gets the remaining 3 even though
	// weights are equal.
	s, e := newTestEngine(Config{Cores: 4, IOMBps: 1000})
	var capped, wide *Query
	e.Submit(QuerySpec{CPUWork: 2, Parallelism: 1}, 1, nil)
	e.Submit(QuerySpec{CPUWork: 6, Parallelism: 4}, 1, nil)
	for _, q := range e.Running() {
		if q.Spec.Parallelism == 1 {
			capped = q
		} else {
			wide = q
		}
	}
	run(s, 1.0)
	// After 1s: capped should have ~1 core-second done, wide ~3.
	if math.Abs(capped.CPUDone()-1) > 0.15 {
		t.Fatalf("capped query cpuDone = %v, want ~1", capped.CPUDone())
	}
	if math.Abs(wide.CPUDone()-3) > 0.3 {
		t.Fatalf("wide query cpuDone = %v, want ~3", wide.CPUDone())
	}
	_ = s
}

func TestThrottleSlowsQuery(t *testing.T) {
	s, e := newTestEngine(Config{Cores: 1, IOMBps: 1000})
	q := e.Submit(QuerySpec{CPUWork: 10, Parallelism: 1}, 1, nil)
	if err := e.SetThrottle(q.ID, 0.8); err != nil {
		t.Fatal(err)
	}
	run(s, 2)
	// Throttling is a self-imposed sleep: even alone on the server, a query
	// throttled at 0.8 may use only 20% of its capacity — ~0.4 core-seconds
	// after 2 seconds.
	if math.Abs(q.CPUDone()-0.4) > 0.1 {
		t.Fatalf("throttled solo progress = %v, want ~0.4", q.CPUDone())
	}
}

func TestMemoryOvercommitSlowsEveryone(t *testing.T) {
	// Two configurations: fits in memory vs 2x overcommit. The overcommitted
	// run must be more than 2x slower (superlinear thrashing).
	elapsed := func(memPer float64) float64 {
		s, e := newTestEngine(Config{Cores: 8, MemoryMB: 1000, IOMBps: 1000})
		var last sim.Time
		n := 4
		for i := 0; i < n; i++ {
			e.Submit(QuerySpec{CPUWork: 2, MemMB: memPer, Parallelism: 2}, 1,
				func(q *Query, _ Outcome) { last = q.finishAt })
		}
		run(s, 100)
		return last.Seconds()
	}
	fit := elapsed(200)  // 800MB total: fits
	over := elapsed(500) // 2000MB total: 2x overcommit
	if over < 3*fit {
		t.Fatalf("overcommit run %vs vs fit %vs: want superlinear (>3x) slowdown", over, fit)
	}
}

func TestKillReleasesResources(t *testing.T) {
	s, e := newTestEngine(Config{Cores: 1, IOMBps: 1000})
	var killedOutcome Outcome = -1
	big := e.Submit(QuerySpec{CPUWork: 100, Parallelism: 1}, 1,
		func(_ *Query, oc Outcome) { killedOutcome = oc })
	var smallDone sim.Time
	e.Submit(QuerySpec{CPUWork: 1, Parallelism: 1}, 1,
		func(q *Query, _ Outcome) { smallDone = q.finishAt })
	run(s, 0.5)
	if err := e.Kill(big.ID); err != nil {
		t.Fatal(err)
	}
	run(s, 10)
	if killedOutcome != OutcomeKilled {
		t.Fatalf("kill outcome = %v", killedOutcome)
	}
	// Small query had 0.5 core-seconds at t=0.5; after the kill it runs at
	// full speed and finishes ~t=1.0 (vs 2.0 if sharing had continued).
	if smallDone.Seconds() > 1.3 {
		t.Fatalf("small query finished at %vs; kill did not free resources", smallDone.Seconds())
	}
	if e.StatsNow().Killed != 1 {
		t.Fatal("killed counter not incremented")
	}
}

func TestKillUnknownQuery(t *testing.T) {
	_, e := newTestEngine(Config{})
	if err := e.Kill(42); err == nil {
		t.Fatal("killing unknown query should error")
	}
	if err := e.SetWeight(42, 2); err == nil {
		t.Fatal("SetWeight on unknown query should error")
	}
	if err := e.SetThrottle(42, 0.5); err == nil {
		t.Fatal("SetThrottle on unknown query should error")
	}
	if err := e.Resume(42); err == nil {
		t.Fatal("Resume on unknown query should error")
	}
	if err := e.Suspend(42, SuspendGoBack); err == nil {
		t.Fatal("Suspend on unknown query should error")
	}
}

func TestSetterValidation(t *testing.T) {
	_, e := newTestEngine(Config{})
	q := e.Submit(QuerySpec{CPUWork: 1}, 1, nil)
	if err := e.SetWeight(q.ID, 0); err == nil {
		t.Fatal("zero weight accepted")
	}
	if err := e.SetThrottle(q.ID, 1.0); err == nil {
		t.Fatal("throttle 1.0 accepted")
	}
	if err := e.SetThrottle(q.ID, -0.1); err == nil {
		t.Fatal("negative throttle accepted")
	}
}

func TestSuspendDumpStateAndResume(t *testing.T) {
	s, e := newTestEngine(Config{Cores: 1, IOMBps: 100, MemoryMB: 4096})
	q := e.Submit(QuerySpec{CPUWork: 4, MemMB: 500, StateMB: 200, Parallelism: 1}, 1, nil)
	run(s, 2) // ~50% done
	preProgress := q.Progress()
	if err := e.Suspend(q.ID, SuspendDumpState); err != nil {
		t.Fatal(err)
	}
	if q.State() != StateSuspending {
		t.Fatalf("state = %v, want suspending (dump in flight)", q.State())
	}
	// Dump takes 200MB/100MBps = 2s.
	run(s, 1)
	if q.State() != StateSuspending {
		t.Fatalf("dump finished too early: %v", q.State())
	}
	run(s, 1.5)
	if q.State() != StateSuspended {
		t.Fatalf("state = %v, want suspended after dump", q.State())
	}
	// While suspended it consumes no memory.
	if st := e.StatsNow(); st.MemPressure != 0 {
		t.Fatalf("suspended query still holds memory: pressure %v", st.MemPressure)
	}
	if err := e.Resume(q.ID); err != nil {
		t.Fatal(err)
	}
	// DumpState preserves CPU progress.
	if q.Progress() < preProgress-0.15 {
		t.Fatalf("resume lost progress: %v < %v", q.Progress(), preProgress)
	}
	run(s, 30)
	if q.State() != StateDone {
		t.Fatalf("query did not finish after resume: %v", q.State())
	}
}

func TestSuspendGoBackLosesWorkSinceCheckpoint(t *testing.T) {
	s, e := newTestEngine(Config{Cores: 1, IOMBps: 1e9})
	// Checkpoint every 25% of progress.
	q := e.Submit(QuerySpec{CPUWork: 10, CheckpointEvery: 0.25, Parallelism: 1}, 1, nil)
	run(s, 4.2) // ~42% done; last checkpoint at 25%
	if err := e.Suspend(q.ID, SuspendGoBack); err != nil {
		t.Fatal(err)
	}
	if q.State() != StateSuspended {
		t.Fatalf("GoBack suspend should be immediate, state = %v", q.State())
	}
	if err := e.Resume(q.ID); err != nil {
		t.Fatal(err)
	}
	p := q.Progress()
	if math.Abs(p-0.25) > 0.02 {
		t.Fatalf("GoBack resume progress = %v, want 0.25 (last checkpoint)", p)
	}
	run(s, 30)
	if q.State() != StateDone {
		t.Fatalf("query did not finish: %v", q.State())
	}
}

func TestSuspendBlockedQueryRejected(t *testing.T) {
	s, e := newTestEngine(Config{Cores: 2, IOMBps: 1e9})
	a := e.Submit(QuerySpec{CPUWork: 5, Locks: []LockReq{{Key: 1, Exclusive: true}}, Parallelism: 1}, 1, nil)
	b := e.Submit(QuerySpec{CPUWork: 5, Locks: []LockReq{{Key: 1, Exclusive: true}}, Parallelism: 1}, 1, nil)
	run(s, 0.5)
	if b.State() != StateBlocked {
		t.Fatalf("second writer not blocked: %v", b.State())
	}
	if err := e.Suspend(b.ID, SuspendGoBack); err == nil {
		t.Fatal("suspending a blocked query should error")
	}
	_ = a
}

func TestLockConflictAndRelease(t *testing.T) {
	s, e := newTestEngine(Config{Cores: 4, IOMBps: 1e9})
	var order []int64
	mk := func(cpu float64, keys ...int) *Query {
		var locks []LockReq
		for _, k := range keys {
			locks = append(locks, LockReq{Key: k, Exclusive: true, AtProgress: 0})
		}
		return e.Submit(QuerySpec{CPUWork: cpu, Parallelism: 1, Locks: locks}, 1,
			func(qq *Query, _ Outcome) { order = append(order, qq.ID) })
	}
	a := mk(1, 7)
	b := mk(1, 8, 7) // grabs 8, then blocks on 7 while holding 8
	run(s, 0.3)
	if a.State() != StateRunning || b.State() != StateBlocked {
		t.Fatalf("states = %v, %v; want running, blocked", a.State(), b.State())
	}
	cr := e.StatsNow().ConflictRatio
	if cr <= 1 {
		t.Fatalf("conflict ratio = %v, want > 1 with a blocked holder-waiter", cr)
	}
	run(s, 10)
	if len(order) != 2 || order[0] != a.ID || order[1] != b.ID {
		t.Fatalf("completion order = %v", order)
	}
	if b.blockedFor <= 0 {
		t.Fatal("blocked time not accounted")
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	s, e := newTestEngine(Config{Cores: 4, IOMBps: 1e9})
	a := e.Submit(QuerySpec{CPUWork: 1, Parallelism: 1,
		Locks: []LockReq{{Key: 3, Exclusive: false}}}, 1, nil)
	b := e.Submit(QuerySpec{CPUWork: 1, Parallelism: 1,
		Locks: []LockReq{{Key: 3, Exclusive: false}}}, 1, nil)
	run(s, 0.3)
	if a.State() != StateRunning || b.State() != StateRunning {
		t.Fatalf("shared readers blocked each other: %v %v", a.State(), b.State())
	}
	if len(a.held) != 1 || len(b.held) != 1 {
		t.Fatal("shared locks not both granted")
	}
}

func TestDeadlockDetectionKillsYoungest(t *testing.T) {
	s, e := newTestEngine(Config{Cores: 4, IOMBps: 1e9})
	outcomes := map[int64]Outcome{}
	// a locks 1 then 2; b locks 2 then 1 — classic deadlock.
	a := e.Submit(QuerySpec{CPUWork: 10, Parallelism: 1, Locks: []LockReq{
		{Key: 1, Exclusive: true, AtProgress: 0},
		{Key: 2, Exclusive: true, AtProgress: 0.3},
	}}, 1, func(q *Query, oc Outcome) { outcomes[q.ID] = oc })
	b := e.Submit(QuerySpec{CPUWork: 10, Parallelism: 1, Locks: []LockReq{
		{Key: 2, Exclusive: true, AtProgress: 0},
		{Key: 1, Exclusive: true, AtProgress: 0.3},
	}}, 1, func(q *Query, oc Outcome) { outcomes[q.ID] = oc })
	run(s, 60)
	if outcomes[b.ID] != OutcomeDeadlocked {
		t.Fatalf("youngest (b) outcome = %v, want deadlocked (outcomes=%v)", outcomes[b.ID], outcomes)
	}
	if outcomes[a.ID] != OutcomeCompleted {
		t.Fatalf("a outcome = %v, want completed after victim kill", outcomes[a.ID])
	}
	if e.StatsNow().Deadlocks != 1 {
		t.Fatalf("deadlock counter = %d", e.StatsNow().Deadlocks)
	}
}

func TestRowsReturnedTracksProgress(t *testing.T) {
	s, e := newTestEngine(Config{Cores: 1, IOMBps: 1e9})
	q := e.Submit(QuerySpec{CPUWork: 10, Rows: 1000, Parallelism: 1}, 1, nil)
	run(s, 5)
	rows := q.RowsReturned()
	if rows < 400 || rows > 600 {
		t.Fatalf("rows at 50%% = %d, want ~500", rows)
	}
}

func TestStatsUtilization(t *testing.T) {
	s, e := newTestEngine(Config{Cores: 4, IOMBps: 100})
	e.Submit(QuerySpec{CPUWork: 100, IOWork: 1000, Parallelism: 4, MemMB: 100}, 1, nil)
	run(s, 1)
	st := e.StatsNow()
	if st.CPUUtilization < 0.9 {
		t.Fatalf("cpu utilization = %v, want ~1", st.CPUUtilization)
	}
	if st.IOUtilization < 0.9 {
		t.Fatalf("io utilization = %v, want ~1", st.IOUtilization)
	}
	if st.Running != 1 || st.InEngine != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if want := 100 / e.cfg.MemoryMB; st.MemPressure != want {
		t.Fatalf("mem pressure = %v, want 100 MB of %v", st.MemPressure, e.cfg.MemoryMB)
	}
}

func TestOnQuantumHook(t *testing.T) {
	s, e := newTestEngine(Config{})
	calls := 0
	e.OnQuantum = func(*Engine) { calls++ }
	e.Submit(QuerySpec{CPUWork: 0.05, Parallelism: 1}, 1, nil)
	run(s, 1)
	if calls == 0 {
		t.Fatal("OnQuantum never invoked")
	}
}

func TestEngineIdlesWhenEmpty(t *testing.T) {
	s, e := newTestEngine(Config{})
	e.Submit(QuerySpec{CPUWork: 0.01, Parallelism: 1}, 1, nil)
	run(s, 5)
	if s.Step() {
		t.Fatal("engine left an event scheduled after going idle")
	}
	// Submitting again restarts the loop.
	done := false
	e.Submit(QuerySpec{CPUWork: 0.01, Parallelism: 1}, 1, func(*Query, Outcome) { done = true })
	run(s, 5)
	if !done {
		t.Fatal("engine did not restart after idle")
	}
}

func TestWeightChangeRedistributes(t *testing.T) {
	s, e := newTestEngine(Config{Cores: 1, IOMBps: 1e9})
	a := e.Submit(QuerySpec{CPUWork: 100, Parallelism: 1}, 1, nil)
	b := e.Submit(QuerySpec{CPUWork: 100, Parallelism: 1}, 1, nil)
	run(s, 1)
	// Equal weights: ~0.5 each.
	if math.Abs(a.CPUDone()-0.5) > 0.1 {
		t.Fatalf("a progress = %v", a.CPUDone())
	}
	if err := e.SetWeight(a.ID, 9); err != nil {
		t.Fatal(err)
	}
	run(s, 1)
	// Next second: a gets 0.9, b gets 0.1.
	if math.Abs(a.CPUDone()-1.4) > 0.12 {
		t.Fatalf("a progress after reweight = %v, want ~1.4", a.CPUDone())
	}
	if math.Abs(b.CPUDone()-0.6) > 0.12 {
		t.Fatalf("b progress after reweight = %v, want ~0.6", b.CPUDone())
	}
}

func TestStateStrings(t *testing.T) {
	for st := StateRunning; st <= StateDeadlocked; st++ {
		if st.String() == "" {
			t.Fatalf("empty state name %d", int(st))
		}
	}
	if !StateDone.Terminal() || StateRunning.Terminal() {
		t.Fatal("Terminal misclassified")
	}
	for _, oc := range []Outcome{OutcomeCompleted, OutcomeKilled, OutcomeDeadlocked} {
		if oc.String() == "" {
			t.Fatal("empty outcome name")
		}
	}
	if SuspendDumpState.String() != "DumpState" || SuspendGoBack.String() != "GoBack" {
		t.Fatal("suspend strategy names wrong")
	}
}

func TestMPLKneeShape(t *testing.T) {
	// The headline phenomenon of Section 3.2: throughput rises with MPL,
	// peaks, then collapses when memory is overcommitted and lock conflicts
	// grow. We run a fixed batch at several MPLs (closed loop) and check
	// rise-then-fall shape.
	throughputAt := func(mpl int) float64 {
		s := sim.New(42)
		e := New(s, Config{Cores: 8, MemoryMB: 2000, IOMBps: 800})
		rng := s.RNG().Fork(uint64(mpl))
		const horizon = 120.0
		completed := 0
		makeSpec := func() QuerySpec {
			return QuerySpec{
				CPUWork:     0.4 + rng.Float64()*0.4,
				IOWork:      20 + rng.Float64()*20,
				MemMB:       180,
				Parallelism: 1,
				Locks: []LockReq{
					{Key: rng.Intn(40), Exclusive: true, AtProgress: 0.1},
					{Key: rng.Intn(40), Exclusive: true, AtProgress: 0.5},
				},
			}
		}
		var launch func()
		launch = func() {
			if s.Now().Seconds() >= horizon {
				return
			}
			e.Submit(makeSpec(), 1, func(_ *Query, oc Outcome) {
				completed++
				launch() // closed loop: replace the finished job
			})
		}
		for i := 0; i < mpl; i++ {
			launch()
		}
		s.Run(sim.Time(sim.DurationFromSeconds(horizon)))
		return float64(completed) / horizon
	}
	low := throughputAt(2)
	mid := throughputAt(8)
	high := throughputAt(60)
	t.Logf("throughput: mpl=2 %.2f/s, mpl=8 %.2f/s, mpl=60 %.2f/s", low, mid, high)
	if mid <= low {
		t.Fatalf("throughput should rise from MPL 2 (%v) to 8 (%v)", low, mid)
	}
	if high >= mid*0.8 {
		t.Fatalf("throughput should collapse at MPL 60: mid=%v high=%v", mid, high)
	}
}
