package sim

import "testing"

// TestStepZeroAlloc asserts that firing pooled (detached) events through
// Step allocates nothing in steady state: the Event object cycles through
// the simulator's free list.
func TestStepZeroAlloc(t *testing.T) {
	s := New(1)
	var fn func()
	fn = func() { s.ScheduleDetached(Millisecond, fn) }
	s.ScheduleDetached(Millisecond, fn)
	// Warm the pool.
	for i := 0; i < 10; i++ {
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if !s.Step() {
			t.Fatal("event chain broke")
		}
	})
	if allocs != 0 {
		t.Fatalf("Step allocates: %.2f allocs per event", allocs)
	}
}

// TestDetachedEventRecycled verifies pool behavior directly: after a
// detached event fires, the next detached schedule reuses its Event object.
func TestDetachedEventRecycled(t *testing.T) {
	s := New(1)
	fired := 0
	s.ScheduleDetached(Millisecond, func() { fired++ })
	s.Step()
	if len(s.free) != 1 {
		t.Fatalf("fired detached event not recycled: free list has %d entries", len(s.free))
	}
	s.ScheduleDetached(Millisecond, func() { fired++ })
	if len(s.free) != 0 {
		t.Fatalf("detached schedule did not reuse the pooled event")
	}
	s.Step()
	if fired != 2 {
		t.Fatalf("fired %d events, want 2", fired)
	}
}

// TestCanceledCompaction verifies lazy compaction: when canceled events
// outnumber live ones the heap shrinks in one pass instead of draining
// canceled entries pop by pop.
func TestCanceledCompaction(t *testing.T) {
	s := New(1)
	events := make([]*Event, 0, 200)
	for i := 0; i < 200; i++ {
		events = append(events, s.Schedule(Duration(i+1)*Millisecond, func() {}))
	}
	for _, e := range events[:150] {
		e.Cancel()
	}
	if got := len(s.events); got >= 150 {
		t.Fatalf("canceled events not compacted: %d still pending", got)
	}
	// The 50 live events must still fire, in order.
	fired := s.RunAll(1000)
	if fired != 50 {
		t.Fatalf("fired %d events after compaction, want 50", fired)
	}
}
