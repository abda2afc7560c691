package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(30*Millisecond, func() { got = append(got, 3) })
	s.Schedule(10*Millisecond, func() { got = append(got, 1) })
	s.Schedule(20*Millisecond, func() { got = append(got, 2) })
	s.RunAll(100)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if s.Now() != Time(30*Millisecond) {
		t.Fatalf("clock = %v, want 30ms", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Time(Second), func() { got = append(got, i) })
	}
	s.RunAll(100)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.Schedule(Millisecond, func() { fired = true })
	e.Cancel()
	s.RunAll(10)
	if fired {
		t.Fatal("canceled event fired")
	}
	if !e.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := New(1)
	count := 0
	s.Schedule(10*Millisecond, func() { count++ })
	s.Schedule(50*Millisecond, func() { count++ })
	fired := s.Run(Time(20 * Millisecond))
	if fired != 1 || count != 1 {
		t.Fatalf("fired %d events, want 1", fired)
	}
	if s.Now() != Time(20*Millisecond) {
		t.Fatalf("clock after Run = %v, want horizon 20ms", s.Now())
	}
	s.Run(Time(100 * Millisecond))
	if count != 2 {
		t.Fatalf("second event did not fire")
	}
}

func TestEvery(t *testing.T) {
	s := New(1)
	count := 0
	stop := s.Every(10*Millisecond, func() bool {
		count++
		return count < 5
	})
	s.RunAll(100)
	if count != 5 {
		t.Fatalf("Every fired %d times, want 5", count)
	}
	_ = stop

	// Every with explicit stop.
	count = 0
	stop = s.Every(10*Millisecond, func() bool { count++; return true })
	s.Run(s.Now().Add(35 * Millisecond))
	stop()
	s.RunAll(100)
	if count != 3 {
		t.Fatalf("Every fired %d times before stop, want 3", count)
	}
}

func TestScheduleInsideEvent(t *testing.T) {
	s := New(1)
	var got []Time
	s.Schedule(Millisecond, func() {
		got = append(got, s.Now())
		s.Schedule(Millisecond, func() { got = append(got, s.Now()) })
	})
	s.RunAll(10)
	if len(got) != 2 || got[1] != Time(2*Millisecond) {
		t.Fatalf("nested schedule produced %v", got)
	}
}

func TestPastEventClamped(t *testing.T) {
	s := New(1)
	s.Run(Time(Second))
	fired := Time(-1)
	s.At(0, func() { fired = s.Now() })
	s.RunAll(10)
	if fired != Time(Second) {
		t.Fatalf("past event fired at %v, want clamped to now", fired)
	}
}

func TestHeapPropertyRandom(t *testing.T) {
	// Property: events always fire in nondecreasing time order, regardless
	// of insertion order.
	f := func(delays []uint16) bool {
		s := New(7)
		var fireTimes []Time
		for _, d := range delays {
			s.Schedule(Duration(d)*Microsecond, func() {
				fireTimes = append(fireTimes, s.Now())
			})
		}
		s.RunAll(len(delays) + 1)
		return sort.SliceIsSorted(fireTimes, func(i, j int) bool { return fireTimes[i] < fireTimes[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Microsecond, "500µs"},
		{1500 * Microsecond, "1.500ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a2 := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestForkIndependence(t *testing.T) {
	r := NewRNG(1)
	f1 := r.Fork(1)
	f2 := r.Fork(2)
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forks with different labels produced the same first draw")
	}
	// Forking must not perturb the parent stream.
	r2 := NewRNG(1)
	r2.Fork(99)
	a, b := NewRNG(1), r2
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Fork perturbed parent stream")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(11)
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64(2.0)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("exp(rate=2) mean = %v, want ~0.5", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(13)
	const n = 50000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestUnbiasedLogNormalMean(t *testing.T) {
	r := NewRNG(17)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.UnbiasedLogNormal(0.5)
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("unbiased lognormal mean = %v, want ~1", mean)
	}
	if r.UnbiasedLogNormal(0) != 1 {
		t.Fatal("sigma=0 should return exactly 1")
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(19)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(23)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation")
		}
		seen[v] = true
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(29)
	z := NewZipfGen(r, 100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	// Rank 0 should be drawn much more often than rank 50.
	if counts[0] < 5*counts[50] {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	// All values must be in range (implicitly checked by indexing) and the
	// head should dominate.
	if counts[0] < counts[1] {
		t.Fatalf("Zipf head not dominant: %d < %d", counts[0], counts[1])
	}
}

func TestZipfOneOff(t *testing.T) {
	r := NewRNG(31)
	for i := 0; i < 1000; i++ {
		v := r.Zipf(10, 1.2)
		if v < 1 || v > 10 {
			t.Fatalf("Zipf(10) = %d out of range", v)
		}
	}
}

func TestRunAllGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunAll did not panic on runaway loop")
		}
	}()
	s := New(1)
	var loop func()
	loop = func() { s.Schedule(Millisecond, loop) }
	s.Schedule(Millisecond, loop)
	s.RunAll(50)
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(37)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate = %v", frac)
	}
}

func TestAtDetached(t *testing.T) {
	s := New(1)
	var got []int
	// Absolute-time detached scheduling interleaves correctly with relative
	// scheduling and fires in (time, seq) order.
	s.AtDetached(Time(30*Millisecond), func() { got = append(got, 3) })
	s.Schedule(10*Millisecond, func() { got = append(got, 1) })
	s.AtDetached(Time(20*Millisecond), func() { got = append(got, 2) })
	s.RunAll(100)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("detached events fired out of order: %v", got)
	}
	if s.Now() != Time(30*Millisecond) {
		t.Fatalf("clock = %v, want 30ms", s.Now())
	}
	// Detached events recycle through the free list, so a chain of them must
	// not grow the heap: schedule-fire-schedule many times, then check that
	// steady-state allocation is zero.
	n := 0
	var chain func()
	chain = func() {
		if n++; n < 1000 {
			s.AtDetached(s.Now().Add(Millisecond), chain)
		}
	}
	s.AtDetached(s.Now().Add(Millisecond), chain)
	s.RunAll(2000)
	if n != 1000 {
		t.Fatalf("chain fired %d times, want 1000", n)
	}
}

// TestFiringOrderIsTimeThenSchedulingOrder pins the event heap to its
// contract under heavy ties, cancellations (enough to trigger the one-pass
// compaction and its re-heapify) and events scheduled from inside events:
// what fires is exactly the surviving events, stably sorted by time.
func TestFiringOrderIsTimeThenSchedulingOrder(t *testing.T) {
	type planned struct {
		at       Time
		id       int // scheduling order
		handle   *Event
		canceled bool
	}
	for seed := uint64(1); seed <= 20; seed++ {
		s := New(seed)
		rng := NewRNG(seed)
		var plan []*planned
		var fired []int
		var schedule func(depth int)
		schedule = func(depth int) {
			p := &planned{at: s.Now().Add(Duration(rng.Intn(40))), id: len(plan)}
			plan = append(plan, p)
			fn := func() {
				fired = append(fired, p.id)
				if depth < 2 && rng.Bool(0.3) {
					schedule(depth + 1)
				}
			}
			if rng.Bool(0.3) {
				s.AtDetached(p.at, fn)
			} else {
				p.handle = s.At(p.at, fn)
			}
		}
		for i := 0; i < 1500; i++ {
			schedule(0)
		}
		for _, p := range plan {
			if p.handle != nil && rng.Bool(0.9) {
				p.handle.Cancel()
				p.canceled = true
			}
		}
		if s.Pending() >= 1500 {
			t.Fatalf("seed %d: %d events pending after canceling most of 1500; compaction did not run", seed, s.Pending())
		}
		s.RunAll(1 << 20)
		var want []*planned
		for _, p := range plan {
			if !p.canceled {
				want = append(want, p)
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(fired) != len(want) {
			t.Fatalf("seed %d: %d events fired, want %d", seed, len(fired), len(want))
		}
		for i, p := range want {
			if fired[i] != p.id {
				t.Fatalf("seed %d: event %d fired %d-th, want event %d (at %d)", seed, fired[i], i, p.id, p.at)
			}
		}
	}
}
