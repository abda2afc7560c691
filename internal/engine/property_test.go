package engine

import (
	"math"
	"testing"
	"testing/quick"

	"dbwlm/internal/sim"
)

// TestWaterfillInvariants: allocations never exceed capacity, never exceed
// per-slot caps, are nonnegative, and exhaust capacity when demand allows.
func TestWaterfillInvariants(t *testing.T) {
	f := func(weightsRaw [6]uint8, capsRaw [6]uint8, capRaw uint8) bool {
		var slots []allocSlot
		shares := make([]float64, 6)
		caps := make([]float64, 6)
		var totalCap float64
		for i := 0; i < 6; i++ {
			w := float64(weightsRaw[i]%50) + 0.5
			c := float64(capsRaw[i]%40)/10 + 0.1
			slots = append(slots, allocSlot{i: i, w: w, cap: c})
			caps[i] = c
			totalCap += c
		}
		capacity := float64(capRaw%160) / 10
		// waterfill consumes slots (in-place partition), so judge shares
		// against caps captured before the call.
		waterfill(slots, capacity, shares)
		var sum float64
		for i, s := range shares {
			if s < -1e-12 {
				return false
			}
			if s > caps[i]+1e-9 {
				return false
			}
			sum += s
		}
		if sum > capacity+1e-9 {
			return false
		}
		// Work conservation: capacity is exhausted unless every slot is at
		// its cap.
		if sum < math.Min(capacity, totalCap)-1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineDeterminism: identical seeds and workloads produce bit-identical
// completion sequences.
func TestEngineDeterminism(t *testing.T) {
	runOnce := func() []int64 {
		s := sim.New(99)
		e := New(s, Config{Cores: 4, MemoryMB: 1024, IOMBps: 200})
		rng := s.RNG().Fork(5)
		var order []int64
		var times []sim.Time
		for i := 0; i < 30; i++ {
			delay := sim.DurationFromSeconds(rng.Float64() * 5)
			s.Schedule(delay, func() {
				e.Submit(QuerySpec{
					CPUWork:     rng.Float64() * 2,
					IOWork:      rng.Float64() * 50,
					MemMB:       rng.Float64() * 200,
					Parallelism: 1 + rng.Float64()*3,
					Locks:       []LockReq{{Key: rng.Intn(10), Exclusive: rng.Bool(0.5)}},
				}, 1+rng.Float64()*3, func(q *Query, _ Outcome) {
					order = append(order, q.ID)
					times = append(times, s.Now())
				})
			})
		}
		s.Run(sim.Time(5 * sim.Minute))
		out := append([]int64{}, order...)
		for _, tt := range times {
			out = append(out, int64(tt))
		}
		return out
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("runs diverged in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestWorkConservation: total CPU work completed equals the sum of the
// specs' demands once everything finishes, regardless of weights, throttles,
// or contention.
func TestWorkConservation(t *testing.T) {
	f := func(specsRaw [5]uint16, weightsRaw [5]uint8) bool {
		s := sim.New(7)
		e := New(s, Config{Cores: 2, MemoryMB: 2048, IOMBps: 400})
		var wantCPU float64
		done := 0
		for i := 0; i < 5; i++ {
			cpu := float64(specsRaw[i]%300)/100 + 0.01
			wantCPU += cpu
			w := float64(weightsRaw[i]%16) + 0.5
			e.Submit(QuerySpec{CPUWork: cpu, Parallelism: 1}, w, func(*Query, Outcome) { done++ })
		}
		s.Run(sim.Time(10 * sim.Minute))
		return done == 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestSuspendResumeWorkConservation: a DumpState suspend/resume cycle never
// loses CPU progress; a GoBack cycle loses at most one checkpoint interval.
func TestSuspendResumeWorkConservation(t *testing.T) {
	f := func(whenRaw uint8, goBack bool) bool {
		s := sim.New(11)
		e := New(s, Config{Cores: 1, IOMBps: 1e9})
		q := e.Submit(QuerySpec{CPUWork: 10, CheckpointEvery: 0.2, StateMB: 0, Parallelism: 1}, 1, nil)
		when := sim.DurationFromSeconds(float64(whenRaw%80)/10 + 0.5)
		strategy := SuspendDumpState
		if goBack {
			strategy = SuspendGoBack
		}
		var preProgress float64
		okSoFar := true
		s.Schedule(when, func() {
			if q.State() != StateRunning {
				return
			}
			preProgress = q.Progress()
			if err := e.Suspend(q.ID, strategy); err != nil {
				okSoFar = false
				return
			}
			s.Schedule(sim.Second, func() {
				if q.State() != StateSuspended {
					return
				}
				if err := e.Resume(q.ID); err != nil {
					okSoFar = false
					return
				}
				p := q.Progress()
				if goBack {
					// May lose up to one checkpoint interval.
					if p < preProgress-0.2-1e-9 {
						okSoFar = false
					}
				} else if p < preProgress-1e-9 {
					okSoFar = false
				}
			})
		})
		s.Run(sim.Time(5 * sim.Minute))
		return okSoFar && q.State() == StateDone
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestNoLostLocksAfterChaos: random kills and suspends never leave the lock
// table holding locks for departed queries.
func TestNoLostLocksAfterChaos(t *testing.T) {
	s := sim.New(13)
	e := New(s, Config{Cores: 4, IOMBps: 1e9})
	rng := s.RNG().Fork(3)
	var ids []int64
	for i := 0; i < 40; i++ {
		q := e.Submit(QuerySpec{
			CPUWork:     0.5 + rng.Float64()*2,
			Parallelism: 1,
			Locks: []LockReq{
				{Key: rng.Intn(8), Exclusive: true, AtProgress: 0},
				{Key: rng.Intn(8), Exclusive: true, AtProgress: 0.5},
			},
		}, 1, nil)
		ids = append(ids, q.ID)
	}
	// Chaos: kill a random third mid-flight.
	s.Schedule(500*sim.Millisecond, func() {
		for _, id := range ids {
			if rng.Bool(0.3) {
				_ = e.Kill(id)
			}
		}
	})
	s.Run(sim.Time(10 * sim.Minute))
	if e.InEngine() != 0 {
		t.Fatalf("%d queries stuck in engine", e.InEngine())
	}
	// All locks must be released.
	for key, le := range e.locks.keys {
		t.Fatalf("key %d still held by %v, awaited by %d, after all queries left", key, le.holders, len(le.waiters))
	}
}
