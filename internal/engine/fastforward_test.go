package engine

import (
	"testing"

	"dbwlm/internal/sim"
)

// ffWorkload drives a mixed closed-loop workload — locks, weights, throttles,
// memory pressure, blocked queries, deadlock sweeps — and records every
// observable output: per-query finish times, outcomes, and final stats.
type ffTrace struct {
	finishOrder []int64
	finishAt    []sim.Time
	outcomes    []Outcome
	cpuDone     []float64
	ioDone      []float64
	stats       Stats
	now         sim.Time
}

func runFFWorkload(t *testing.T, disableFF bool, seed uint64) ffTrace {
	t.Helper()
	s := sim.New(seed)
	e := New(s, Config{
		Cores: 4, MemoryMB: 2048, IOMBps: 400,
		disableFastForward: disableFF,
	})
	rng := s.RNG().Fork(17)
	var tr ffTrace
	launched := 0
	var launch func()
	launch = func() {
		if s.Now().Seconds() >= 40 || launched >= 400 {
			return
		}
		launched++
		spec := QuerySpec{
			CPUWork:     0.2 + rng.Float64()*2,
			IOWork:      5 + rng.Float64()*40,
			MemMB:       32 + rng.Float64()*128,
			Parallelism: 1 + rng.Float64()*2,
		}
		if rng.Bool(0.6) {
			spec.Locks = []LockReq{
				{Key: rng.Intn(12), Exclusive: rng.Bool(0.7), AtProgress: rng.Float64() * 0.4},
				{Key: rng.Intn(12), Exclusive: rng.Bool(0.7), AtProgress: 0.5 + rng.Float64()*0.4},
			}
		}
		weight := 1 + rng.Float64()*3
		q := e.Submit(spec, weight, func(q *Query, oc Outcome) {
			tr.finishOrder = append(tr.finishOrder, q.ID)
			tr.finishAt = append(tr.finishAt, s.Now())
			tr.outcomes = append(tr.outcomes, oc)
			tr.cpuDone = append(tr.cpuDone, q.CPUDone())
			tr.ioDone = append(tr.ioDone, q.ioDone)
			launch()
		})
		if rng.Bool(0.2) {
			_ = e.SetThrottle(q.ID, rng.Float64()*0.5)
		}
	}
	for i := 0; i < 24; i++ {
		launch()
	}
	// Mid-run external control events so fast-forward gaps end on
	// externally scheduled events too.
	s.Schedule(7*sim.Second, func() {
		for _, q := range e.Running() {
			if q.ID%5 == 0 {
				_ = e.SetWeight(q.ID, 0.5)
			}
		}
	})
	s.Schedule(13*sim.Second, func() {
		for _, q := range e.Running() {
			if q.ID%7 == 0 && q.State() == StateRunning {
				_ = e.Kill(q.ID)
			}
		}
	})
	s.Run(sim.Time(60 * sim.Second))
	tr.stats = e.StatsNow()
	tr.now = s.Now()
	return tr
}

// TestFastForwardBitIdentical asserts the tentpole contract: for the same
// seed, a run with tick elision produces bit-for-bit the same per-query
// finish times, outcomes, progress counters, and final stats as the
// quantum-by-quantum run.
func TestFastForwardBitIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1234} {
		slow := runFFWorkload(t, true, seed)
		fast := runFFWorkload(t, false, seed)
		if len(slow.finishOrder) == 0 {
			t.Fatalf("seed %d: no queries finished; workload is vacuous", seed)
		}
		if len(slow.finishOrder) != len(fast.finishOrder) {
			t.Fatalf("seed %d: finished %d queries quantum-by-quantum vs %d fast-forwarded",
				seed, len(slow.finishOrder), len(fast.finishOrder))
		}
		for i := range slow.finishOrder {
			if slow.finishOrder[i] != fast.finishOrder[i] {
				t.Fatalf("seed %d: finish order diverges at %d: %d vs %d",
					seed, i, slow.finishOrder[i], fast.finishOrder[i])
			}
			if slow.finishAt[i] != fast.finishAt[i] {
				t.Fatalf("seed %d: query %d finish time %v vs %v",
					seed, slow.finishOrder[i], slow.finishAt[i], fast.finishAt[i])
			}
			if slow.outcomes[i] != fast.outcomes[i] {
				t.Fatalf("seed %d: query %d outcome %v vs %v",
					seed, slow.finishOrder[i], slow.outcomes[i], fast.outcomes[i])
			}
			// Bit-for-bit: float equality without tolerance is intentional.
			if slow.cpuDone[i] != fast.cpuDone[i] || slow.ioDone[i] != fast.ioDone[i] {
				t.Fatalf("seed %d: query %d progress counters diverge: cpu %v vs %v, io %v vs %v",
					seed, slow.finishOrder[i], slow.cpuDone[i], fast.cpuDone[i],
					slow.ioDone[i], fast.ioDone[i])
			}
		}
		if slow.stats != fast.stats {
			t.Fatalf("seed %d: final stats diverge:\n slow: %+v\n fast: %+v", seed, slow.stats, fast.stats)
		}
		if slow.now != fast.now {
			t.Fatalf("seed %d: final clock %v vs %v", seed, slow.now, fast.now)
		}
	}
}

// TestFastForwardElides sanity-checks that elision actually happens (the
// equivalence test alone would pass trivially if fastForward never fired):
// an uncontended long query must take far fewer ticks than quanta.
func TestFastForwardElides(t *testing.T) {
	s := sim.New(3)
	e := New(s, Config{Cores: 4, MemoryMB: 2048, IOMBps: 400})
	done := false
	e.Submit(QuerySpec{CPUWork: 20, IOWork: 100, MemMB: 64, Parallelism: 2}, 1,
		func(*Query, Outcome) { done = true })
	fired := s.RunAll(1 << 20)
	if !done {
		t.Fatal("query never finished")
	}
	// Solo runtime is 10s of virtual time = 1000 quanta; with elision the
	// whole run should need only a handful of events.
	if fired > 100 {
		t.Fatalf("fast-forward ineffective: %d events fired for a 1000-quantum run", fired)
	}
}

// TestOnQuantumPinsQuanta verifies that an OnQuantum hook disables
// elision: the hook sees every quantum of the run.
func TestOnQuantumPinsQuanta(t *testing.T) {
	s := sim.New(3)
	e := New(s, Config{Cores: 4, MemoryMB: 2048, IOMBps: 400})
	calls := 0
	e.OnQuantum = func(*Engine) { calls++ }
	e.Submit(QuerySpec{CPUWork: 20, IOWork: 100, MemMB: 64, Parallelism: 2}, 1, nil)
	fired := s.RunAll(1 << 20)
	if calls < 1000 || fired < calls {
		t.Fatalf("per-quantum hook should pin ~1000 ticks: %d calls, %d events", calls, fired)
	}
}
