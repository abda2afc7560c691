package sim

import "testing"

// runScenario drives a deterministic event mix on s and returns the firing
// trace: (time, tag) pairs plus the RNG draws consumed along the way.
func runScenario(s *Simulator, seed int) []int64 {
	var got []int64
	note := func(tag int64) {
		got = append(got, int64(s.Now()), tag)
	}
	for i := 0; i < 20; i++ {
		tag := int64(seed*100 + i)
		delay := Duration(s.RNG().Intn(5000)) * Millisecond
		if i%3 == 0 {
			s.ScheduleDetached(delay, func() { note(tag) })
		} else {
			e := s.Schedule(delay, func() { note(tag) })
			if i%5 == 0 {
				e.Cancel()
			}
		}
	}
	s.Run(Time(10 * Second))
	got = append(got, int64(s.RNG().Uint64()))
	return got
}

func TestResetMatchesFresh(t *testing.T) {
	// A reset simulator must behave bit-for-bit like a fresh one, even when
	// the reset interrupts a run with events still pending.
	pooled := New(999)
	pooled.Schedule(Minute, func() { t.Fatal("stale event fired after Reset") })
	pooled.ScheduleDetached(Minute, func() { t.Fatal("stale detached event fired after Reset") })
	pooled.Run(Time(Second)) // advance the clock, leave events pending

	for trial, seed := range []uint64{7, 7, 42} {
		pooled.Reset(seed)
		if pooled.Now() != 0 || len(pooled.events) != 0 {
			t.Fatalf("trial %d: Reset left now=%v pending=%d", trial, pooled.Now(), len(pooled.events))
		}
		fresh := New(seed)
		a := runScenario(pooled, trial)
		b := runScenario(fresh, trial)
		if len(a) != len(b) {
			t.Fatalf("trial %d: trace lengths differ: %d vs %d", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: traces diverge at %d: %d vs %d", trial, i, a[i], b[i])
			}
		}
	}
}

func TestResetRecyclesDetachedEvents(t *testing.T) {
	s := New(1)
	for i := 0; i < 32; i++ {
		s.ScheduleDetached(Second, func() {})
	}
	s.Reset(1)
	if got := len(s.free); got != 32 {
		t.Fatalf("Reset recycled %d detached events, want 32", got)
	}
}
