package rt

import "sync/atomic"

// qidAlloc hands out flight-recorder admission IDs. It used to be a single
// shared atomic counter — one cache line written by every admit on every
// core, the first contention wall the multi-core wire benchmarks exposed
// (DESIGN.md §11): with the recorder attached, the whole lock-free striped
// gate design funneled through that one fetch-add. IDs only need to be unique
// and nonzero, not dense or globally ordered, so the allocator stripes
// instead: each padded shard owns an independent counter and the ID packs
// (counter << shardBits) | shardIndex. An allocation touches exactly one
// shard-private cache line: the decision's stripe (Runtime.admitWith), the
// same one its gates and counters take.
type qidAlloc struct {
	shards []qidShard
	mask   uint32
	bits   uint
}

// qidShard is one padded ID counter.
type qidShard struct {
	n atomic.Int64
	_ [120]byte
}

// init sizes the allocator; shards must be a power of two.
func (a *qidAlloc) init(shards int) {
	a.shards = make([]qidShard, shards)
	a.mask = uint32(shards - 1)
	a.bits = 0
	for 1<<a.bits < shards {
		a.bits++
	}
}

// next returns a unique nonzero admission ID from the shard stripe selects.
// Lock-free, allocation-free, and free of shared writes across shards.
//
//dbwlm:hotpath
func (a *qidAlloc) next(stripe uint32) int64 {
	i := stripe & a.mask
	return a.shards[i].n.Add(1)<<a.bits | int64(i)
}
