package engine

import (
	"testing"

	"dbwlm/internal/sim"
)

// TestFinishedQueryRecycledAfterCompaction pins the handle contract: once a
// finished query's onFinish has returned and compaction drops it from the
// live slice, the next Submit hands the same object out under a new ID, and
// the old ID no longer resolves.
func TestFinishedQueryRecycledAfterCompaction(t *testing.T) {
	s, e := newTestEngine(Config{Cores: 4, IOMBps: 400})
	// The keeper keeps the quantum loop running after the short queries
	// finish, so a tick compacts them away.
	e.Submit(QuerySpec{CPUWork: 1e9}, 1, nil)
	oldID := map[*Query]int64{}
	for i := 0; i < 24; i++ {
		e.Submit(QuerySpec{CPUWork: 0.01}, 1, func(q *Query, _ Outcome) { oldID[q] = q.ID })
	}
	run(s, 1)
	if len(oldID) != 24 {
		t.Fatalf("%d of 24 short queries finished", len(oldID))
	}
	if len(e.freeQ) == 0 {
		t.Fatal("compaction recycled no finished query")
	}
	q := e.Submit(QuerySpec{CPUWork: 1}, 1, nil)
	old, ok := oldID[q]
	if !ok {
		t.Fatal("Submit after compaction allocated instead of reusing a finished query")
	}
	if q.ID <= old || q.ID != 26 {
		t.Fatalf("recycled query has ID %d (was %d), want the next ID 26", q.ID, old)
	}
	if got := e.Get(old); got != nil {
		t.Fatalf("Get(%d) after recycling = query %d, want nil", old, got.ID)
	}
	if e.Get(q.ID) != q || q.State() != StateRunning || q.Progress() != 0 {
		t.Fatalf("recycled query not reinitialized: state %v progress %v", q.State(), q.Progress())
	}
}

// TestPendingFinishNotRecycled covers a query finished by an event at the
// instant a quantum compacts the live slice: its onFinish fires after that
// quantum, so the quantum must neither recycle it nor hand it to a query
// submitted meanwhile — the callback must still see the query it was
// registered for.
func TestPendingFinishNotRecycled(t *testing.T) {
	s, e := newTestEngine(Config{Cores: 4, IOMBps: 400})
	const killAt = sim.Time(sim.Second)
	// Scheduled before any quantum, so at killAt it fires before the tick.
	var victims []int64
	s.At(killAt, func() {
		for _, id := range victims {
			if err := e.Kill(id); err != nil {
				t.Fatal(err)
			}
		}
	})
	e.Submit(QuerySpec{CPUWork: 1e9}, 1, nil)
	seen := map[int64]int64{} // submitted ID -> ID onFinish saw
	for i := 0; i < 24; i++ {
		q := e.Submit(QuerySpec{CPUWork: 1e9}, 1, nil)
		id := q.ID
		q.onFinish = func(q *Query, _ Outcome) { seen[id] = q.ID }
		victims = append(victims, id)
	}
	var late *Query
	e.OnQuantum = func(e *Engine) {
		if late == nil && e.Now() == killAt {
			late = e.Submit(QuerySpec{CPUWork: 1}, 1, nil)
		}
	}
	run(s, 2)
	if late == nil {
		t.Fatal("no quantum ran at the kill instant")
	}
	if len(seen) != len(victims) {
		t.Fatalf("%d of %d onFinish callbacks fired", len(seen), len(victims))
	}
	for id, got := range seen {
		if got != id {
			t.Fatalf("onFinish for query %d saw query %d: the object was recycled before its callback", id, got)
		}
	}
}
