package engine

import (
	"slices"
	"testing"

	"dbwlm/internal/sim"
)

// lockTwin is one query as each of the two tables sees it: the tables mutate
// Query.held, so each needs its own copy.
type lockTwin struct{ got, ref *Query }

func (tw lockTwin) block(key int) {
	for _, q := range []*Query{tw.got, tw.ref} {
		q.state, q.waitingKey = StateBlocked, key
	}
}

func (tw lockTwin) wake() {
	for _, q := range []*Query{tw.got, tw.ref} {
		q.state, q.waitingKey = StateRunning, -1
	}
}

func queryIDs(qs []*Query) []int64 {
	ids := make([]int64, len(qs))
	for i, q := range qs {
		ids[i] = q.ID
	}
	return ids
}

// TestLockTableMatchesReference drives the lock table and the map-of-maps
// table it replaced (locks_ref_test.go) through the same seeded random scripts
// — shared and exclusive acquires, re-entrant upgrades, kills of blocked
// queries, releases — the way the engine drives them (a blocked query issues
// nothing until it is woken or killed; IDs only grow), and holds every
// observable to the reference after every step: the grant or denial, the woken
// list in order, each query's held list, the conflict ratio, the deadlock
// cycle, and the per-key holders, mode and waiter order.
func TestLockTableMatchesReference(t *testing.T) {
	const (
		scripts = 250
		steps   = 400
		slots   = 10
		keys    = 5
	)
	// What the scripts reached, so a change to them cannot quietly stop
	// covering a path.
	var denials, batchWakes, upgradeWaits, cycles int
	for seed := uint64(1); seed <= scripts; seed++ {
		rng := sim.NewRNG(seed)
		got, ref := newLockTable(), newRefLockTable()
		nextID := int64(0)
		fresh := func() lockTwin {
			nextID++
			return lockTwin{got: mkQuery(nextID), ref: mkQuery(nextID)}
		}
		live := make([]lockTwin, slots)
		for i := range live {
			live[i] = fresh()
		}
		byID := func(id int64) lockTwin {
			for _, tw := range live {
				if tw.got.ID == id {
					return tw
				}
			}
			t.Fatalf("seed %d: woke query %d, which is not live", seed, id)
			return lockTwin{}
		}
		for step := 0; step < steps; step++ {
			slot := rng.Intn(slots)
			tw := live[slot]
			// A blocked query can only be killed; a running one mostly acquires.
			if tw.got.state == StateBlocked || rng.Bool(0.25) {
				if tw.got.state == StateBlocked && rng.Bool(0.6) {
					continue // leave it waiting
				}
				wokeGot := queryIDs(got.releaseAll(tw.got))
				wokeRef := queryIDs(ref.releaseAll(tw.ref))
				if !slices.Equal(wokeGot, wokeRef) {
					t.Fatalf("seed %d step %d: release of %d woke %v, reference woke %v", seed, step, tw.got.ID, wokeGot, wokeRef)
				}
				for _, id := range wokeGot {
					byID(id).wake()
				}
				if len(wokeGot) > 1 {
					batchWakes++
				}
				live[slot] = fresh()
			} else {
				key, exclusive := rng.Intn(keys), rng.Bool(0.5)
				okGot := got.tryAcquire(tw.got, key, exclusive)
				okRef := ref.tryAcquire(tw.ref, key, exclusive)
				if okGot != okRef {
					t.Fatalf("seed %d step %d: acquire(%d, key %d, excl %v) = %v, reference %v", seed, step, tw.got.ID, key, exclusive, okGot, okRef)
				}
				if !okGot {
					tw.block(key)
					denials++
					if holds(tw.got, key) {
						upgradeWaits++
					}
				}
			}
			cycles += compareLockTables(t, seed, step, got, ref, live)
		}
		// reset must leave a table that behaves like a new one.
		got.reset()
		if len(got.keys) != 0 {
			t.Fatalf("seed %d: %d keys survive reset", seed, len(got.keys))
		}
		q := mkQuery(1)
		if !got.tryAcquire(q, 0, true) || len(got.releaseAll(q)) != 0 {
			t.Fatalf("seed %d: a reset table refuses a free key or wakes a ghost", seed)
		}
	}
	if denials == 0 || batchWakes == 0 || upgradeWaits == 0 || cycles == 0 {
		t.Fatalf("scripts reached %d denials, %d multi-query wakes, %d blocked upgrades, %d deadlock cycles; want all of them",
			denials, batchWakes, upgradeWaits, cycles)
	}
}

// compareLockTables reports 1 when the step's state holds a deadlock cycle.
func compareLockTables(t *testing.T, seed uint64, step int, got *lockTable, ref *refLockTable, live []lockTwin) (cycles int) {
	t.Helper()
	gotQs, refQs := map[int64]*Query{}, map[int64]*Query{}
	blocked := map[int64]int{}
	for _, tw := range live {
		if !slices.Equal(tw.got.held, tw.ref.held) {
			t.Fatalf("seed %d step %d: query %d holds %v, reference %v", seed, step, tw.got.ID, tw.got.held, tw.ref.held)
		}
		gotQs[tw.got.ID], refQs[tw.ref.ID] = tw.got, tw.ref
		if tw.got.state == StateBlocked {
			blocked[tw.got.ID] = tw.got.waitingKey
		}
	}
	if g, r := conflictRatio(gotQs), conflictRatio(refQs); g != r {
		t.Fatalf("seed %d step %d: conflict ratio %v, reference %v", seed, step, g, r)
	}
	cycle, refCycle := got.detectDeadlock(blocked), ref.detectDeadlock(blocked)
	if !slices.Equal(cycle, refCycle) {
		t.Fatalf("seed %d step %d: deadlock cycle %v, reference %v", seed, step, cycle, refCycle)
	}
	if len(cycle) > 0 {
		cycles = 1
	}
	if len(got.keys) > len(ref.holders)+len(ref.waiters) {
		t.Fatalf("seed %d step %d: %d entries for %d held and %d awaited keys", seed, step, len(got.keys), len(ref.holders), len(ref.waiters))
	}
	for key := -1; key <= 8; key++ {
		var holders []int64
		for id := range ref.holders[key] {
			holders = append(holders, id)
		}
		slices.Sort(holders)
		var waiters []lockWaiter
		for _, w := range ref.waiters[key] {
			waiters = append(waiters, lockWaiter{q: w.q, exclusive: w.exclusive})
		}
		e := got.keys[key]
		if e == nil {
			if len(holders) != 0 || len(waiters) != 0 {
				t.Fatalf("seed %d step %d: key %d has no entry, reference holders %v and %d waiters", seed, step, key, holders, len(waiters))
			}
			continue
		}
		if !slices.Equal(e.holders, holders) || e.exclusive != ref.exclusive[key] {
			t.Fatalf("seed %d step %d: key %d held by %v (exclusive %v), reference %v (%v)", seed, step, key, e.holders, e.exclusive, holders, ref.exclusive[key])
		}
		sameWaiters := slices.EqualFunc(e.waiters, waiters, func(a, b lockWaiter) bool {
			return a.q.ID == b.q.ID && a.exclusive == b.exclusive
		})
		if !sameWaiters {
			t.Fatalf("seed %d step %d: key %d waiter queues differ", seed, step, key)
		}
	}
	return cycles
}

// TestLockCycleZeroAlloc asserts a warm table grants, queues, releases and
// promotes without allocating: entries come off the free list with their
// slices' capacity, and the woken list is table-owned scratch.
func TestLockCycleZeroAlloc(t *testing.T) {
	lt := newLockTable()
	a, b, c := mkQuery(1), mkQuery(2), mkQuery(3)
	for _, q := range []*Query{a, b, c} {
		q.held = make([]int, 0, 4)
	}
	// AllocsPerRun's own warm-up run makes the two entries, their slices and
	// the scratch.
	allocs := testing.AllocsPerRun(200, func() {
		lt.tryAcquire(a, 7, true)
		lt.tryAcquire(a, 9, false)
		lt.tryAcquire(b, 9, false) // shares 9 with a
		lt.tryAcquire(b, 7, true)  // queues behind a
		lt.tryAcquire(c, 9, true)  // queues behind the readers
		b.waitingKey, c.waitingKey = 7, 9
		if woken := lt.releaseAll(a); len(woken) != 1 || woken[0] != b {
			t.Fatalf("releasing a woke %v, want b", queryIDs(woken))
		}
		b.waitingKey = -1
		if woken := lt.releaseAll(b); len(woken) != 1 || woken[0] != c {
			t.Fatalf("releasing b woke %v, want c", queryIDs(woken))
		}
		c.waitingKey = -1
		lt.releaseAll(c)
	})
	if allocs != 0 {
		t.Fatalf("warm acquire→release cycle allocates: %.1f allocs", allocs)
	}
	if len(lt.keys) != 0 || len(lt.free) != 2 {
		t.Fatalf("after the cycle: %d live entries, %d free, want 0 and 2", len(lt.keys), len(lt.free))
	}
}
