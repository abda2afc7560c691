package engine

import (
	"fmt"
	"testing"

	"dbwlm/internal/sim"
)

// resetScenario drives a contended mix — lock conflicts, kills, a suspend, a
// memory-overcommitted stretch — through e and returns a deterministic
// transcript of everything observable: per-query outcomes with finish times,
// engine counters, and final stats.
func resetScenario(s *sim.Simulator, e *Engine, seed uint64) []string {
	var log []string
	rng := sim.NewRNG(seed)
	submit := func(tag int, spec QuerySpec) *Query {
		return e.Submit(spec, 1, func(q *Query, oc Outcome) {
			log = append(log, fmt.Sprintf("q%d %v at %d held=%d", tag, oc, int64(q.finishAt), len(q.held)))
		})
	}
	var ids []int64
	for i := 0; i < 24; i++ {
		spec := QuerySpec{
			CPUWork:     0.5 + rng.Float64()*4,
			IOWork:      rng.Float64() * 200,
			MemMB:       200 + rng.Float64()*600,
			Parallelism: float64(1 + rng.Intn(4)),
			StateMB:     50,
		}
		if i%3 == 0 {
			spec.Locks = []LockReq{
				{Key: i % 5, Exclusive: true, AtProgress: 0.1},
				{Key: (i + 2) % 5, Exclusive: true, AtProgress: 0.5},
			}
		}
		ids = append(ids, submit(i, spec).ID)
		s.Run(s.Now().Add(sim.Duration(rng.Intn(300)) * sim.Millisecond))
	}
	s.Run(s.Now().Add(2 * sim.Second))
	if q := e.Get(ids[1]); q != nil {
		e.Kill(q.ID)
	}
	if q := e.Get(ids[4]); q != nil && q.State() == StateRunning {
		e.Suspend(q.ID, SuspendDumpState)
	}
	s.Run(s.Now().Add(60 * sim.Second))
	st := e.StatsNow()
	log = append(log, fmt.Sprintf("stats %d %d %d %d %.9f %.9f",
		st.Completed, st.Killed, st.Deadlocks, st.InEngine, st.CPUUtilization, st.MemPressure))
	return log
}

// TestResetMatchesFresh pins the pooled-reuse contract: a Reset sim/engine
// pair must replay a scenario bit-for-bit identically to a freshly
// constructed pair, including after a run that was abandoned mid-flight.
func TestResetMatchesFresh(t *testing.T) {
	cfgA := Config{Cores: 4, MemoryMB: 2048, IOMBps: 200}
	cfgB := Config{Cores: 2, MemoryMB: 1024, IOMBps: 400, Quantum: 5 * sim.Millisecond}

	fresh := func(cfg Config, seed uint64) []string {
		s := sim.New(seed)
		return resetScenario(s, New(s, cfg), seed)
	}

	ps := sim.New(123)
	pe := New(ps, cfgA)
	// Dirty the pair: run half a scenario, then abandon it mid-flight.
	resetScenario(ps, pe, 55)
	ps.Run(ps.Now().Add(sim.Second))

	for trial, tc := range []struct {
		cfg  Config
		seed uint64
	}{{cfgA, 1}, {cfgB, 2}, {cfgA, 1}} {
		ps.Reset(tc.seed)
		pe.Reset(tc.cfg)
		got := resetScenario(ps, pe, tc.seed)
		want := fresh(tc.cfg, tc.seed)
		if len(got) != len(want) {
			t.Fatalf("trial %d: transcript lengths differ: %d vs %d\n got: %v\nwant: %v",
				trial, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: transcripts diverge at %d:\n got: %s\nwant: %s", trial, i, got[i], want[i])
			}
		}
	}
}

// TestResetRecyclesQueries pins the allocation story: the second run on a
// reset engine draws its Query objects from the free list.
func TestResetRecyclesQueries(t *testing.T) {
	s := sim.New(1)
	e := New(s, Config{Cores: 4})
	for i := 0; i < 8; i++ {
		e.Submit(QuerySpec{CPUWork: 0.1}, 1, nil)
	}
	s.Run(s.Now().Add(10 * sim.Second))
	s.Reset(1)
	e.Reset(Config{Cores: 4})
	if len(e.freeQ) != 8 {
		t.Fatalf("free list holds %d queries after Reset, want 8", len(e.freeQ))
	}
	q := e.Submit(QuerySpec{CPUWork: 0.1}, 1, nil)
	if len(e.freeQ) != 7 {
		t.Fatalf("Submit did not pop the free list: %d left", len(e.freeQ))
	}
	if q.ID != 1 || q.State() != StateRunning {
		t.Fatalf("recycled query not reinitialized: ID=%d state=%v", q.ID, q.State())
	}
}
