package sqlmini

import (
	"math"
	"sync"
	"sync/atomic"
	"unsafe"
)

// PlanCost is the scalar cost summary of a plan — everything the admission
// layer and the workload generators consume — so a cache hit never re-walks
// the operator tree.
type PlanCost struct {
	CPUSeconds float64 // summed over all operators
	IOMB       float64 // summed over all operators
	// MemMB is the working memory the engine charges for the query's whole
	// run. Pipelined operators hold their state at once (a deliberate
	// simplification), so it is the sum over all operators, never less than
	// the largest single one.
	MemMB   float64
	Rows    float64 // the root operator's output cardinality
	StateMB float64 // checkpointable state, summed over all operators
	Type    StatementType
}

// costWalk accumulates every PlanCost figure in one post-order walk.
type costWalk struct {
	cpu, io, mem, peak, state float64
}

func (w *costWalk) add(op *Operator) {
	for _, c := range op.Children {
		w.add(c)
	}
	w.cpu += op.EstCPU
	w.io += op.EstIO
	w.mem += op.EstMem
	if op.EstMem > w.peak {
		w.peak = op.EstMem
	}
	w.state += op.StateMB
}

// CostOf summarizes a plan into its scalar costs. One walk visits the
// operators in post-order, the order Operators lists them, and each sum adds
// its terms in that order: every figure is bit for bit what a separate pass
// per figure over Operators would compute, without building the list.
func CostOf(p *Plan) PlanCost {
	c := PlanCost{Type: p.Stmt.Type}
	if p.Root == nil {
		return c
	}
	var w costWalk
	w.add(p.Root)
	c.CPUSeconds, c.IOMB, c.StateMB = w.cpu, w.io, w.state
	c.MemMB = w.peak
	if w.mem > c.MemMB {
		c.MemMB = w.mem
	}
	c.Rows = p.Root.EstRows
	return c
}

// CachedPlan is the admission record of one query shape: its fingerprint and
// the costs of the plan built for the first statement instance seen with it.
// The plan itself is not kept: admission reads only the costs, and a few
// thousand resident operator trees would be scanned by every GC cycle for
// nothing. Entries are shared across callers and read-only to them.
type CachedPlan struct {
	FP   Fingerprint
	Cost PlanCost

	touch atomic.Int64 // shard LRU clock at last hit
}

// planWays is the least associativity of a set once a shard has more than one:
// eight slot pointers are one cache line. A key may live in either of its two
// candidate sets, so an insert chooses among at least sixteen ways.
const planWays = 8

// planShard is one stripe of the cache: a fixed array of slots, grouped into
// sets of PlanCache.ways consecutive slots. Readers scan a key's candidate
// sets with atomic loads and no lock; a writer, under mu, stores into exactly
// one slot. Nothing is ever cloned or rehashed, so a miss costs its parse+plan
// plus one pointer store whatever the shard holds.
type planShard struct {
	slots   []atomic.Pointer[CachedPlan]
	mu      sync.Mutex   // serializes inserts; readers never take it
	clock   atomic.Int64 // per-shard LRU tick (global clock would share a line)
	hits    atomic.Int64
	misses  atomic.Int64
	entries atomic.Int64 // occupied slots (an insert only ever fills or replaces)
	_       [64]byte     // pad to 128B so adjacent shards never share a cache line
}

// PlanCache interns normalized SQL: repeated query shapes skip lexing,
// parsing, and plan building entirely, returning the shape's memoized cost
// in a few fingerprint-hash plus slot-probe nanoseconds with zero allocation.
// Each shard is set-associative: a fingerprint maps to two candidate sets and
// may occupy any way of either. The read path is lock-free (atomic loads of
// the candidate slots, full 128-bit compare on each); only misses serialize,
// per shard, while storing their one slot. Eviction is approximate LRU scoped
// to the candidate ways: the oldest touch tick among them goes.
type PlanCache struct {
	model  *CostModel
	shards []planShard
	mask   uint32
	sets   uint32 // sets per shard
	ways   uint32 // slots per set
}

// NewPlanCache builds a cache over the cost model. capacity is the total
// entry budget (default 4096), shards the stripe count (rounded up to a power
// of two, default 8). The budget is split evenly across shards and each
// shard's share into sets of 8 to 15 ways, so a share of up to 15 entries is
// one fully associative set (exact LRU) and the resident count never exceeds
// capacity (a share that is no multiple of its set count rounds down).
func NewPlanCache(model *CostModel, capacity, shards int) *PlanCache {
	if capacity <= 0 {
		capacity = 4096
	}
	if shards <= 0 {
		shards = 8
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	per := max(capacity/n, 1)
	sets := max(per/planWays, 1)
	ways := per / sets
	c := &PlanCache{model: model, shards: make([]planShard, n), mask: uint32(n - 1),
		sets: uint32(sets), ways: uint32(ways)}
	for i := range c.shards {
		c.shards[i].slots = make([]atomic.Pointer[CachedPlan], sets*ways)
	}
	return c
}

// shardOf picks the home shard from the low bits of the high lane.
//
//dbwlm:hotpath
func (c *PlanCache) shardOf(fp Fingerprint) *planShard {
	return &c.shards[uint32(fp.Hi)&c.mask]
}

// setsOf returns the first slot of each of the key's two candidate sets (the
// same slot twice when the shard is a single set). The index must not come
// from the low bits of either lane: both lanes are FNV-1a over the same bytes
// with the same odd multiplier, so their low bits evolve in lock step — bit 0
// of Lo is always the complement of bit 0 of Hi, and inside a shard chosen by
// Hi's low bits a Lo-modulo index reaches only half the sets. Folding the two
// lanes across each other's halves and taking the high bits of a
// multiplicative hash uses every bit of both.
//
//dbwlm:hotpath
func (c *PlanCache) setsOf(fp Fingerprint) (a, b uint32) {
	h := (fp.Lo ^ (fp.Hi<<32 | fp.Hi>>32)) * 0x9E3779B97F4A7C15
	a = uint32((h >> 32) * uint64(c.sets) >> 32)
	b = a
	if c.sets > 1 {
		// A distinct second set: step 1..sets-1 from the first.
		b += 1 + uint32(uint64(uint32(h))*uint64(c.sets-1)>>32)
		if b >= c.sets {
			b -= c.sets
		}
	}
	return a * c.ways, b * c.ways
}

// find scans one set for the fingerprint.
//
//dbwlm:hotpath
func (sh *planShard) find(base, ways uint32, fp Fingerprint) *CachedPlan {
	set := sh.slots[base : base+ways]
	for i := range set {
		if e := set[i].Load(); e != nil && e.FP == fp {
			return e
		}
	}
	return nil
}

// Lookup returns the cached plan for a fingerprint, or nil. Allocation-free.
//
//dbwlm:hotpath
func (c *PlanCache) Lookup(fp Fingerprint) *CachedPlan {
	sh := c.shardOf(fp)
	a, b := c.setsOf(fp)
	e := sh.find(a, c.ways, fp)
	if e == nil && b != a {
		e = sh.find(b, c.ways, fp)
	}
	if e == nil {
		sh.misses.Add(1)
		return nil
	}
	e.touch.Store(sh.clock.Add(1))
	sh.hits.Add(1)
	return e
}

// PlanInfoBytes resolves one SQL statement through the cache — fingerprint,
// lock-free lookup, and on a miss parse+plan+insert — and reports whether it
// hit. The returned CachedPlan is shared: read-only to callers. The text
// typically sits in a transient byte buffer (a transport's decode scratch,
// overwritten by the next frame): the bytes are read only during
// fingerprinting (via an unsafe no-copy string view that is never retained);
// a cache miss copies them into a stable string before parsing, so no cached
// structure ever aliases the caller's buffer. The hit path — the steady
// state — is allocation-free.
//
//dbwlm:hotpath
func (c *PlanCache) PlanInfoBytes(sql []byte) (entry *CachedPlan, hit bool, err error) {
	fp := FingerprintSQL(unsafe.String(unsafe.SliceData(sql), len(sql)))
	if e := c.Lookup(fp); e != nil {
		return e, true, nil
	}
	//dbwlm:nolint hotpath -- a cache miss pays the stable-string copy plus parse+plan+insert by definition
	return c.planMiss(fp, string(sql))
}

// planMiss is the cold half of PlanInfoBytes: parse, plan, and insert, all outside
// the shard lock. Concurrent misses on the same shape may plan twice; last
// store wins and both results are identical.
func (c *PlanCache) planMiss(fp Fingerprint, sql string) (entry *CachedPlan, hit bool, err error) {
	p, err := c.model.PlanSQL(sql)
	if err != nil {
		// Errors are not cached: error shapes are rare, and a poisoned entry
		// would pin a parse error onto a fingerprint forever.
		return nil, false, err
	}
	e := &CachedPlan{FP: fp, Cost: CostOf(p)}
	c.insert(e)
	return e, false, nil
}

// insert stores e into one slot of its candidate sets: over a resident entry
// with the same fingerprint if there is one, else into an empty way of the
// emptier set (the first on a tie; balancing the two keeps a population of
// half the capacity fully resident), else over the candidate with the oldest
// touch tick.
func (c *PlanCache) insert(e *CachedPlan) {
	sh := c.shardOf(e.FP)
	a, b := c.setsOf(e.FP)
	e.touch.Store(sh.clock.Add(1))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var empty [2]*atomic.Pointer[CachedPlan] // first empty way per candidate set
	var free [2]int                          // empty ways per candidate set
	var dst *atomic.Pointer[CachedPlan]      // the slot e goes into
	oldest := int64(math.MaxInt64)
	bases := []uint32{a, b}
	if b == a {
		bases = bases[:1]
	}
	for s, base := range bases {
		for i := base; i < base+c.ways; i++ {
			way := &sh.slots[i]
			switch p := way.Load(); {
			case p == nil:
				if free[s] == 0 {
					empty[s] = way
				}
				free[s]++
			case p.FP == e.FP:
				way.Store(e)
				return
			default:
				if t := p.touch.Load(); t < oldest {
					oldest, dst = t, way
				}
			}
		}
	}
	switch {
	case free[0] > 0 && free[0] >= free[1]:
		dst = empty[0]
	case free[1] > 0:
		dst = empty[1]
	}
	if dst.Load() == nil {
		sh.entries.Add(1)
	}
	dst.Store(e)
}

// CacheStats is the merged monitoring view of the cache.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
}

// Stats merges the shards.
func (c *PlanCache) Stats() CacheStats {
	var st CacheStats
	for i := range c.shards {
		sh := &c.shards[i]
		st.Hits += sh.hits.Load()
		st.Misses += sh.misses.Load()
		st.Entries += int(sh.entries.Load())
	}
	return st
}
