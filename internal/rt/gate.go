// Package rt is the real-time workload-management runtime: it runs the
// taxonomy's admission controls (Sections 3.2/3.4, Table 2) against real
// concurrent goroutine traffic instead of simulated time. The admit/release
// hot path is lock-free — per-class MPL and cost limits live in atomically
// swapped limit blocks, admission slots in cache-line-padded shards taken
// with CAS — and statistics collection is striped (internal/metrics), so no
// mutex is ever touched while the gate is open. Queued work waits in
// per-class FIFO queues with the queue-timeout and retry-batch semantics of
// the simulated Manager, and the merged-shard snapshot satisfies
// admission.View, so the threshold and indicator controllers from
// internal/admission consume the live runtime unchanged.
package rt

import (
	"sync/atomic"

	"dbwlm/internal/metrics"
)

// gateLimits is one immutable limit block; policy reloads swap the pointer.
type gateLimits struct {
	maxMPL        int64   // concurrent admissions (0 = unlimited)
	maxCost       float64 // timerons (0 = unlimited)
	maxQueueDelay int64   // nanoseconds queued before timeout (0 = forever)
	retryBatch    int32   // waiters re-evaluated per retry cycle (0 = all)
}

// gateShard is one padded slot counter. Admitted requests hold one unit in
// exactly one shard; the shard index travels in the Grant so release
// decrements the same cell.
type gateShard struct {
	n atomic.Int64
	_ [120]byte
}

// gate is a lock-free striped admission gate. The MPL limit is split across
// the shards (shardCap); an admit CASes its home shard and probes the others
// before declaring the gate full, so the gate admits exactly maxMPL
// concurrent holders while uncontended admits touch a single cache line.
type gate struct {
	shards  []gateShard
	mask    uint32
	limits  atomic.Pointer[gateLimits]
	waiters atomic.Int64 // queued requests; fast paths branch on it
}

func newGate(shards int, lim gateLimits) *gate {
	g := &gate{shards: make([]gateShard, shards), mask: uint32(shards - 1)}
	g.limits.Store(&lim)
	return g
}

// shardCap is shard i's slice of the MPL limit: limit/shards with the
// remainder spread over the lowest-indexed shards, so the caps sum to
// exactly the limit.
//
//dbwlm:hotpath
func shardCap(limit int64, shards, i int) int64 {
	c := limit / int64(shards)
	if int64(i) < limit%int64(shards) {
		c++
	}
	return c
}

// tryEnter takes one admission slot, returning the shard it was taken from,
// or -1 when every shard is at its cap (the gate is full). With no MPL limit
// the home shard is incremented unconditionally.
//
//dbwlm:hotpath
func (g *gate) tryEnter() int32 {
	lim := g.limits.Load()
	home := int(metrics.StripeIdx(g.mask))
	if lim.maxMPL <= 0 {
		g.shards[home].n.Add(1)
		return int32(home)
	}
	n := len(g.shards)
	for probe := 0; probe < n; probe++ {
		i := (home + probe) & int(g.mask)
		cap := shardCap(lim.maxMPL, n, i)
		for {
			cur := g.shards[i].n.Load()
			if cur >= cap {
				break
			}
			if g.shards[i].n.CompareAndSwap(cur, cur+1) {
				return int32(i)
			}
		}
	}
	return -1
}

// leave releases a slot taken by tryEnter.
//
//dbwlm:hotpath
func (g *gate) leave(shard int32) { g.shards[shard].n.Add(-1) }

// occupancy merges the shard counters: the number of current slot holders.
//
//dbwlm:hotpath
func (g *gate) occupancy() int64 {
	var sum int64
	for i := range g.shards {
		sum += g.shards[i].n.Load()
	}
	return sum
}
