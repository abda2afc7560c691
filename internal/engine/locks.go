package engine

// lockTable implements strict two-phase locking over an integer key space
// with shared/exclusive modes, FIFO waiter queues, and wait-for-graph
// deadlock detection. The conflict ratio of Moenkeberg & Weikum [56] — the
// admission metric of Table 2's third row — is lockRatio over the lock counts
// Engine.StatsNow sums from the queries' held lists.
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

	// Scratch reused across detectDeadlock sweeps, kept by position in the
	// sweep's blocked slice: a warm sweep allocates nothing.
	dArena []int      // each waiter's key holders as positions (-1: not blocked)
	dStart []int      // waiter i's edges are dArena[dStart[i]:dStart[i+1]]
	dColor []int8     // white, gray (on dStack) or black
	dStack []dfsFrame // the DFS path, root first
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

// dfsFrame is a waiter on detectDeadlock's DFS path and its next edge.
type dfsFrame struct{ pos, edge int }

// detectDeadlock finds one cycle in the wait-for graph and returns its
// youngest member, or nil when there is none. blocked is every blocked query
// in ascending ID order. The DFS starts from each waiter in that order and
// follows each waiter's edges to the holders of the key it awaits, in
// ascending ID order; the first edge back onto the path closes the cycle.
func (lt *lockTable) detectDeadlock(blocked []*Query) *Query {
	arena, start := lt.dArena[:0], lt.dStart[:0]
	for _, q := range blocked {
		start = append(start, len(arena))
		if e := lt.keys[q.waitingKey]; e != nil {
			for _, id := range e.holders {
				arena = append(arena, blockedPos(blocked, id))
			}
		}
	}
	start = append(start, len(arena))
	color := lt.dColor[:0]
	for range blocked {
		color = append(color, white)
	}
	stack := lt.dStack[:0]
	lt.dArena, lt.dStart, lt.dColor = arena, start, color

	for root := range blocked {
		if color[root] != white {
			continue
		}
		color[root] = gray
		stack = append(stack, dfsFrame{pos: root, edge: start[root]})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if top.edge == start[top.pos+1] {
				color[top.pos] = black
				stack = stack[:len(stack)-1]
				continue
			}
			next := arena[top.edge]
			top.edge++
			if next < 0 {
				continue // the holder runs: no edge out of it
			}
			switch color[next] {
			case gray:
				// The path from next to the top is the cycle; positions
				// ascend with IDs, so the youngest has the largest.
				victim := next
				for i := len(stack) - 1; stack[i].pos != next; i-- {
					victim = max(victim, stack[i].pos)
				}
				lt.dStack = stack[:0]
				return blocked[victim]
			case white:
				color[next] = gray
				stack = append(stack, dfsFrame{pos: next, edge: start[next]})
			}
		}
	}
	lt.dStack = stack[:0]
	return nil
}

// DFS colours of detectDeadlock.
const (
	white int8 = iota
	gray
	black
)

// blockedPos returns the position of id in blocked (ascending IDs), or -1.
func blockedPos(blocked []*Query, id int64) int {
	if i := searchID(blocked, id); i < len(blocked) && blocked[i].ID == id {
		return i
	}
	return -1
}

// searchID returns the index of the first query in qs (ascending IDs) whose
// ID is at least id.
func searchID(qs []*Query, id int64) int {
	lo, hi := 0, len(qs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if qs[mid].ID < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lockRatio is the conflict ratio of Moenkeberg & Weikum [56] from its two
// lock counts: total locks held by all queries ÷ locks held by active
// (non-blocked) queries. A ratio near 1 means little contention; the
// admission controller suspends new transactions when it exceeds a critical
// threshold (~1.3).
func lockRatio(total, active int) float64 {
	if active == 0 {
		if total == 0 {
			return 1
		}
		// All lock holders blocked: maximal contention.
		return float64(total) + 1
	}
	return float64(total) / float64(active)
}
