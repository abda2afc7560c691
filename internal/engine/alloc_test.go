package engine

import (
	"testing"

	"dbwlm/internal/sim"
)

// TestTickZeroAlloc asserts the steady-state scheduling quantum performs no
// heap allocation: scratch buffers absorb the allocation loops, the tick
// closure is cached, and the tick event itself is pooled by the simulator.
func TestTickZeroAlloc(t *testing.T) {
	s := sim.New(1)
	e := New(s, Config{Cores: 4, MemoryMB: 4096, IOMBps: 400, disableFastForward: true})
	for i := 0; i < 6; i++ {
		e.Submit(QuerySpec{CPUWork: 1e9, IOWork: 1e9, MemMB: 64, Parallelism: 2}, 1+float64(i), nil)
	}
	// Warm up scratch buffers and the event pool.
	until := s.Now().Add(50 * sim.Millisecond)
	s.Run(until)
	allocs := testing.AllocsPerRun(100, func() {
		until = until.Add(10 * sim.Millisecond)
		s.Run(until)
	})
	if allocs != 0 {
		t.Fatalf("steady-state tick allocates: %.1f allocs per quantum", allocs)
	}
}

// TestTickZeroAllocWithBlockedAndSweeps covers the contended steady state:
// blocked queries and periodic deadlock sweeps must also run allocation-free
// once the lock table's scratch buffers are warm.
func TestTickZeroAllocWithBlockedAndSweeps(t *testing.T) {
	s := sim.New(1)
	e := New(s, Config{Cores: 4, MemoryMB: 4096, IOMBps: 400, disableFastForward: true})
	// Holder grinds forever holding key 1; waiters block on it, so every
	// deadlockCheckEvery-th quantum runs a (cycle-free) deadlock sweep.
	e.Submit(QuerySpec{CPUWork: 1e9, MemMB: 64, Locks: []LockReq{{Key: 1, Exclusive: true}}}, 1, nil)
	for i := 0; i < 4; i++ {
		e.Submit(QuerySpec{CPUWork: 1e9, MemMB: 64, Locks: []LockReq{{Key: 1, Exclusive: true}}}, 1, nil)
	}
	until := s.Now().Add(200 * sim.Millisecond)
	s.Run(until)
	allocs := testing.AllocsPerRun(100, func() {
		until = until.Add(50 * sim.Millisecond) // 5 quanta = ≥1 sweep
		s.Run(until)
	})
	if allocs != 0 {
		t.Fatalf("contended steady-state tick allocates: %.1f allocs per 5 quanta", allocs)
	}
}

// TestFastForwardZeroAlloc asserts the elided path itself (gap computation
// plus batched catch-up) stays allocation-free in steady state.
func TestFastForwardZeroAlloc(t *testing.T) {
	s := sim.New(1)
	e := New(s, Config{Cores: 4, MemoryMB: 4096, IOMBps: 400})
	for i := 0; i < 6; i++ {
		e.Submit(QuerySpec{CPUWork: 1e9, IOWork: 1e9, MemMB: 64, Parallelism: 2}, 1+float64(i), nil)
	}
	until := s.Now().Add(1 * sim.Second)
	s.Run(until)
	allocs := testing.AllocsPerRun(100, func() {
		until = until.Add(1 * sim.Second)
		s.Run(until)
	})
	if allocs != 0 {
		t.Fatalf("fast-forward path allocates: %.1f allocs per simulated second", allocs)
	}
}
