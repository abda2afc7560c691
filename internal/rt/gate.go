// Package rt is the real-time workload-management runtime: it runs the
// taxonomy's admission controls (Sections 3.2/3.4, Table 2) against real
// concurrent goroutine traffic instead of simulated time. The admit/release
// hot path is lock-free — per-class MPL and cost limits live in atomically
// swapped limit blocks, and each gate's occupancy is one cache-line-padded
// counter taken with CAS — and each statistic is one atomic counter or one
// owned histogram record (internal/metrics), so no mutex is ever touched
// while the gate is open.
// Queued work waits in per-class FIFO queues with the queue-timeout and
// retry-batch semantics of the simulated Manager, and the stats snapshot
// satisfies admission.View, so the threshold and indicator
// controllers from internal/admission consume the live runtime unchanged.
package rt

import "sync/atomic"

// gateLimits is one immutable limit block; policy reloads swap the pointer.
type gateLimits struct {
	maxMPL        int64   // concurrent admissions (0 = unlimited)
	maxCost       float64 // timerons (0 = unlimited)
	maxQueueDelay int64   // nanoseconds queued before timeout (0 = forever)
	retryBatch    int32   // waiters re-evaluated per retry cycle (0 = all)
}

// gate is a lock-free admission gate: one padded occupancy counter. An admit
// refuses only when the occupancy it reads is at or above the MPL limit, so
// with fewer holders than the limit it always takes a slot, and the counter
// never exceeds the limit in force when each holder entered.
//
// The allocator places a gate at any 16-byte offset within a cache line, so
// n is padded on both sides: at least a full line of the gate's own bytes
// lies before and after it, and no neighbouring object (another gate's
// limits and waiters, which every admit reads) shares its line.
type gate struct {
	_       [64]byte
	n       atomic.Int64
	_       [64]byte
	limits  atomic.Pointer[gateLimits]
	waiters atomic.Int64 // queued requests; fast paths branch on it
}

func newGate(lim gateLimits) *gate {
	g := &gate{}
	g.limits.Store(&lim)
	return g
}

// tryEnter takes one admission slot, reporting false when the gate is full.
// With no MPL limit it is incremented unconditionally.
//
//dbwlm:hotpath
func (g *gate) tryEnter() bool {
	limit := g.limits.Load().maxMPL
	if limit <= 0 {
		g.n.Add(1)
		return true
	}
	for {
		cur := g.n.Load()
		if cur >= limit {
			return false
		}
		if g.n.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// leave releases a slot taken by tryEnter.
//
//dbwlm:hotpath
func (g *gate) leave() { g.n.Add(-1) }

// occupancy is the number of current slot holders.
//
//dbwlm:hotpath
func (g *gate) occupancy() int64 { return g.n.Load() }
