package engine

import "slices"

// refLockTable is the map-of-maps lock table the sorted-slice lockTable
// replaced, kept verbatim as the reference TestLockTableMatchesReference
// drives side by side with it.
//
// It implements strict two-phase locking over an integer key space
// with shared/exclusive modes, FIFO waiter queues, and wait-for-graph
// deadlock detection. It also computes the conflict ratio of Moenkeberg &
// Weikum [56]: locks held by all transactions ÷ locks held by non-blocked
// transactions — the admission metric of Table 2's third row.
type refLockTable struct {
	// holders maps key -> set of holder query IDs (multiple only if shared).
	holders map[int]map[int64]bool
	// exclusive maps key -> true if the current hold is exclusive.
	exclusive map[int]bool
	// waiters maps key -> FIFO of waiting queries.
	waiters map[int][]*refLockWaiter

	// Scratch buffers reused across detectDeadlock sweeps, so periodic
	// deadlock detection does not allocate in steady state.
	dIDs   []int64
	dArena []int64          // concatenated per-waiter holder lists
	dSpan  map[int64][2]int // waiter ID -> [start, end) into dArena
	dColor map[int64]int8
	dStack []int64
}

type refLockWaiter struct {
	q         *Query
	exclusive bool
}

func newRefLockTable() *refLockTable {
	return &refLockTable{
		holders:   make(map[int]map[int64]bool),
		exclusive: make(map[int]bool),
		waiters:   make(map[int][]*refLockWaiter),
	}
}

// reset drops every grant and waiter, keeping the maps' buckets and the
// deadlock-sweep scratch so a pooled engine's lock table is reusable without
// reallocation.
func (lt *refLockTable) reset() {
	clear(lt.holders)
	clear(lt.exclusive)
	clear(lt.waiters)
}

// tryAcquire attempts to grant key to q. It returns true on success; on
// failure q is appended to the key's waiter queue.
func (lt *refLockTable) tryAcquire(q *Query, key int, exclusive bool) bool {
	hs := lt.holders[key]
	if len(hs) == 0 {
		lt.grant(q, key, exclusive)
		return true
	}
	if hs[q.ID] {
		// Re-entrant: upgrade to exclusive only when sole holder.
		if exclusive && !lt.exclusive[key] {
			if len(hs) == 1 {
				lt.exclusive[key] = true
				return true
			}
			lt.wait(q, key, exclusive)
			return false
		}
		return true
	}
	if !exclusive && !lt.exclusive[key] && len(lt.waiters[key]) == 0 {
		// Shared with shared, and no writer is queued (avoid writer starvation).
		lt.grant(q, key, false)
		return true
	}
	lt.wait(q, key, exclusive)
	return false
}

func (lt *refLockTable) grant(q *Query, key int, exclusive bool) {
	hs := lt.holders[key]
	if hs == nil {
		hs = make(map[int64]bool)
		lt.holders[key] = hs
	}
	hs[q.ID] = true
	if exclusive {
		lt.exclusive[key] = true
	}
	q.held = append(q.held, key)
}

func (lt *refLockTable) wait(q *Query, key int, exclusive bool) {
	lt.waiters[key] = append(lt.waiters[key], &refLockWaiter{q: q, exclusive: exclusive})
}

// releaseAll drops every lock held by q and removes q from the waiter queue
// of the key it was blocked on (if any). It returns the queries that were
// granted locks as a result and can now be woken.
func (lt *refLockTable) releaseAll(q *Query) []*Query {
	var woken []*Query
	for _, key := range q.held {
		hs := lt.holders[key]
		delete(hs, q.ID)
		if len(hs) == 0 {
			delete(lt.holders, key)
			delete(lt.exclusive, key)
			woken = append(woken, lt.promoteWaiters(key)...)
		}
	}
	q.held = q.held[:0]
	// Remove q from the one waiter queue it can be in (it may have been
	// blocked when killed). A query waits on at most one key at a time.
	if key := q.waitingKey; key >= 0 {
		ws := lt.waiters[key]
		out := ws[:0]
		for _, w := range ws {
			if w.q.ID != q.ID {
				out = append(out, w)
			}
		}
		if len(out) == 0 {
			delete(lt.waiters, key)
		} else {
			lt.waiters[key] = out
		}
	}
	return woken
}

// promoteWaiters grants the key to the next compatible batch of waiters:
// either the first waiter if exclusive, or the leading run of shared waiters.
func (lt *refLockTable) promoteWaiters(key int) []*Query {
	ws := lt.waiters[key]
	if len(ws) == 0 {
		return nil
	}
	var woken []*Query
	if ws[0].exclusive {
		w := ws[0]
		lt.waiters[key] = ws[1:]
		if len(lt.waiters[key]) == 0 {
			delete(lt.waiters, key)
		}
		lt.grant(w.q, key, true)
		woken = append(woken, w.q)
		return woken
	}
	// Grant all leading shared waiters.
	i := 0
	for i < len(ws) && !ws[i].exclusive {
		lt.grant(ws[i].q, key, false)
		woken = append(woken, ws[i].q)
		i++
	}
	lt.waiters[key] = ws[i:]
	if len(lt.waiters[key]) == 0 {
		delete(lt.waiters, key)
	}
	return woken
}

// detectDeadlock finds one cycle in the wait-for graph and returns the IDs on
// it (empty when none). blocked maps query ID -> the key it waits for. The
// adjacency structure and DFS state live in scratch buffers on the lock
// table, so repeated sweeps are allocation-free once warm.
func (lt *refLockTable) detectDeadlock(blocked map[int64]int) []int64 {
	if lt.dSpan == nil {
		lt.dSpan = make(map[int64][2]int, len(blocked))
		lt.dColor = make(map[int64]int8, len(blocked))
	}
	// Build edges: waiter -> each holder of the awaited key (sorted, for a
	// deterministic visit order), flattened into one arena.
	ids := lt.dIDs[:0]
	arena := lt.dArena[:0]
	clear(lt.dSpan)
	clear(lt.dColor)
	// Order laundered below: ids is sorted before the DFS and each id's
	// arena span is sorted as it is built.
	//dbwlm:sorted
	for id, key := range blocked {
		start := len(arena)
		for holder := range lt.holders[key] {
			arena = append(arena, holder)
		}
		slices.Sort(arena[start:])
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
