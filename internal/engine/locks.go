package engine

import "slices"

// lockTable implements strict two-phase locking over an integer key space
// with shared/exclusive modes, FIFO waiter queues, and wait-for-graph
// deadlock detection. It also computes the conflict ratio of Moenkeberg &
// Weikum [56]: locks held by all transactions ÷ locks held by non-blocked
// transactions — the admission metric of Table 2's third row.
//
// A key has an entry exactly while it is held or waited for. Entries are
// recycled through a free list with their slices' capacity, so once the table
// has seen its peak number of contended keys a grant, a wait and a release
// allocate nothing.
type lockTable struct {
	keys map[int]*lockEntry
	free []*lockEntry
	// woken is the scratch releaseAll returns its result in.
	woken []*Query

	// Scratch buffers reused across detectDeadlock sweeps, so periodic
	// deadlock detection does not allocate in steady state.
	dIDs   []int64
	dArena []int64          // concatenated per-waiter holder lists
	dSpan  map[int64][2]int // waiter ID -> [start, end) into dArena
	dColor map[int64]int8
	dStack []int64
}

// lockEntry is the state of one held or awaited key.
type lockEntry struct {
	// holders are the holding query IDs, ascending (more than one only if
	// shared) — the order detectDeadlock visits them in.
	holders   []int64
	exclusive bool
	waiters   []lockWaiter // FIFO
}

// find returns the index at which id holds the key, or, when it does not,
// the index that keeps holders ascending. Holder lists are a handful of IDs
// and a new holder is nearly always the youngest, so the scan runs from the
// back.
//
//dbwlm:hotpath
func (e *lockEntry) find(id int64) (int, bool) {
	i := len(e.holders)
	for i > 0 && e.holders[i-1] >= id {
		i--
	}
	return i, i < len(e.holders) && e.holders[i] == id
}

type lockWaiter struct {
	q         *Query
	exclusive bool
}

func newLockTable() *lockTable {
	return &lockTable{keys: make(map[int]*lockEntry)}
}

// reset drops every grant and waiter, keeping the map's buckets, the entries
// (on the free list) and the deadlock-sweep scratch so a pooled engine's lock
// table is reusable without reallocation.
func (lt *lockTable) reset() {
	// Entries are interchangeable once emptied; the free list's order is
	// not observable.
	//dbwlm:sorted
	for _, e := range lt.keys {
		lt.recycle(e)
	}
	clear(lt.keys)
	clear(lt.woken)
}

// entry returns key's entry, taking one from the free list if it has none.
//
//dbwlm:hotpath
func (lt *lockTable) entry(key int) *lockEntry {
	e := lt.keys[key]
	if e == nil {
		if n := len(lt.free); n > 0 {
			e = lt.free[n-1]
			lt.free = lt.free[:n-1]
		} else {
			//dbwlm:nolint hotpath -- free-list miss: only until the table has seen its peak number of live keys
			e = &lockEntry{}
		}
		lt.keys[key] = e
	}
	return e
}

// recycle empties e onto the free list. The caller removes it from keys.
//
//dbwlm:hotpath
func (lt *lockTable) recycle(e *lockEntry) {
	clear(e.waiters) // drop the *Query references
	e.holders, e.waiters, e.exclusive = e.holders[:0], e.waiters[:0], false
	//dbwlm:nolint hotpath -- free-list append reuses pooled capacity in steady state; the list is bounded by the peak number of live keys
	lt.free = append(lt.free, e)
}

// drop recycles key's entry if it is neither held nor waited for.
//
//dbwlm:hotpath
func (lt *lockTable) drop(key int, e *lockEntry) {
	if len(e.holders) == 0 && len(e.waiters) == 0 {
		delete(lt.keys, key)
		lt.recycle(e)
	}
}

// tryAcquire attempts to grant key to q. It returns true on success; on
// failure q is appended to the key's waiter queue.
//
//dbwlm:hotpath
func (lt *lockTable) tryAcquire(q *Query, key int, exclusive bool) bool {
	e := lt.keys[key]
	if e == nil || len(e.holders) == 0 {
		lt.grant(q, key, exclusive)
		return true
	}
	if _, held := e.find(q.ID); held {
		// Re-entrant: upgrade to exclusive only when sole holder.
		if exclusive && !e.exclusive {
			if len(e.holders) == 1 {
				e.exclusive = true
				return true
			}
			lt.wait(e, q, exclusive)
			return false
		}
		return true
	}
	if !exclusive && !e.exclusive && len(e.waiters) == 0 {
		// Shared with shared, and no writer is queued (avoid writer starvation).
		lt.grant(q, key, false)
		return true
	}
	lt.wait(e, q, exclusive)
	return false
}

//dbwlm:hotpath
func (lt *lockTable) grant(q *Query, key int, exclusive bool) {
	e := lt.entry(key)
	if i, held := e.find(q.ID); !held {
		//dbwlm:nolint hotpath -- a recycled entry keeps its holders capacity; growth stops at the widest shared hold
		e.holders = append(e.holders, 0)
		copy(e.holders[i+1:], e.holders[i:])
		e.holders[i] = q.ID
	}
	if exclusive {
		e.exclusive = true
	}
	//dbwlm:nolint hotpath -- held is the query's own lock list, sized by its Spec.Locks and kept across Reset
	q.held = append(q.held, key)
}

//dbwlm:hotpath
func (lt *lockTable) wait(e *lockEntry, q *Query, exclusive bool) {
	//dbwlm:nolint hotpath -- a recycled entry keeps its waiters capacity; growth stops at the longest convoy
	e.waiters = append(e.waiters, lockWaiter{q: q, exclusive: exclusive})
}

// releaseAll drops every lock held by q and removes q from the waiter queue
// of the key it was blocked on (if any). It returns the queries that were
// granted locks as a result and can now be woken, in grant order, in scratch
// storage valid until the next call.
//
//dbwlm:hotpath
func (lt *lockTable) releaseAll(q *Query) []*Query {
	clear(lt.woken) // drop the previous call's *Query references
	lt.woken = lt.woken[:0]
	for _, key := range q.held {
		e := lt.keys[key]
		if e == nil {
			continue // listed twice (granted twice off the waiter queue) and already released
		}
		if i, held := e.find(q.ID); held {
			e.holders = e.holders[:i+copy(e.holders[i:], e.holders[i+1:])]
		}
		if len(e.holders) == 0 {
			e.exclusive = false
			lt.promoteWaiters(key, e)
			lt.drop(key, e)
		}
	}
	q.held = q.held[:0]
	// Remove q from the one waiter queue it can be in (it may have been
	// blocked when killed). A query waits on at most one key at a time.
	if key := q.waitingKey; key >= 0 {
		if e := lt.keys[key]; e != nil {
			kept := 0
			for _, w := range e.waiters {
				if w.q.ID != q.ID {
					e.waiters[kept] = w
					kept++
				}
			}
			clear(e.waiters[kept:]) // drop the *Query references
			e.waiters = e.waiters[:kept]
			lt.drop(key, e)
		}
	}
	return lt.woken
}

// promoteWaiters grants the free key to the next compatible batch of waiters
// — the first waiter if it is exclusive, else the leading run of shared
// waiters — and appends them to lt.woken.
//
//dbwlm:hotpath
func (lt *lockTable) promoteWaiters(key int, e *lockEntry) {
	ws := e.waiters
	n := 0
	if len(ws) > 0 && ws[0].exclusive {
		n = 1
	} else {
		for n < len(ws) && !ws[n].exclusive {
			n++
		}
	}
	for _, w := range ws[:n] {
		lt.grant(w.q, key, w.exclusive)
		//dbwlm:nolint hotpath -- table-owned scratch; growth stops at the largest batch one release wakes
		lt.woken = append(lt.woken, w.q)
	}
	rest := copy(ws, ws[n:])
	clear(ws[rest:]) // drop the *Query references
	e.waiters = ws[:rest]
}

// detectDeadlock finds one cycle in the wait-for graph and returns the IDs on
// it (empty when none). blocked maps query ID -> the key it waits for. The
// adjacency structure and DFS state live in scratch buffers on the lock
// table, so repeated sweeps are allocation-free once warm.
func (lt *lockTable) detectDeadlock(blocked map[int64]int) []int64 {
	if lt.dSpan == nil {
		lt.dSpan = make(map[int64][2]int, len(blocked))
		lt.dColor = make(map[int64]int8, len(blocked))
	}
	// Build edges: waiter -> each holder of the awaited key (ascending, for a
	// deterministic visit order), flattened into one arena.
	ids := lt.dIDs[:0]
	arena := lt.dArena[:0]
	clear(lt.dSpan)
	clear(lt.dColor)
	// Order laundered below: ids is sorted before the DFS and each id's
	// arena span is a copy of an ascending holder list.
	//dbwlm:sorted
	for id, key := range blocked {
		start := len(arena)
		if e := lt.keys[key]; e != nil {
			arena = append(arena, e.holders...)
		}
		lt.dSpan[id] = [2]int{start, len(arena)}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	lt.dIDs = ids
	lt.dArena = arena

	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := lt.dColor
	stack := lt.dStack[:0]
	defer func() { lt.dStack = stack[:0] }()
	var cycle []int64
	var dfs func(id int64) bool
	dfs = func(id int64) bool {
		color[id] = gray
		stack = append(stack, id)
		span := lt.dSpan[id]
		for _, next := range arena[span[0]:span[1]] {
			switch color[next] {
			case gray:
				// Found a cycle: emit the stack suffix from next.
				for i := len(stack) - 1; i >= 0; i-- {
					cycle = append(cycle, stack[i])
					if stack[i] == next {
						break
					}
				}
				return true
			case white:
				if _, isBlocked := blocked[next]; isBlocked {
					if dfs(next) {
						return true
					}
				}
			}
		}
		color[id] = black
		stack = stack[:len(stack)-1]
		return false
	}
	for _, id := range ids {
		if color[id] == white {
			if dfs(id) {
				return cycle
			}
		}
	}
	return nil
}

// conflictRatio computes total locks held by all queries ÷ locks held by
// active (non-blocked) queries. A ratio near 1 means little contention; the
// Moenkeberg & Weikum admission controller suspends new transactions when it
// exceeds a critical threshold (~1.3).
func conflictRatio(queries map[int64]*Query) float64 {
	var total, active int
	// Commutative sums over all queries.
	//dbwlm:sorted
	for _, q := range queries {
		n := len(q.held)
		total += n
		if q.state != StateBlocked {
			active += n
		}
	}
	if active == 0 {
		if total == 0 {
			return 1
		}
		// All lock holders blocked: maximal contention.
		return float64(total) + 1
	}
	return float64(total) / float64(active)
}
