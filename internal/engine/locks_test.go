package engine

import (
	"testing"
	"testing/quick"
)

func mkQuery(id int64) *Query {
	return &Query{ID: id, waitingKey: -1, state: StateRunning}
}

func TestLockTableExclusiveConflict(t *testing.T) {
	lt := newLockTable()
	a, b := mkQuery(1), mkQuery(2)
	if !lt.tryAcquire(a, 5, true) {
		t.Fatal("first exclusive acquire failed")
	}
	if lt.tryAcquire(b, 5, true) {
		t.Fatal("second exclusive acquire succeeded")
	}
	if lt.tryAcquire(b, 5, false) {
		t.Fatal("shared acquire on exclusive succeeded (duplicate wait entry ok)")
	}
	woken := lt.releaseAll(a)
	if len(woken) != 1 || woken[0].ID != b.ID {
		t.Fatalf("woken = %v", woken)
	}
	if len(b.held) == 0 {
		t.Fatal("waiter not granted on release")
	}
}

func TestLockTableSharedThenExclusiveQueue(t *testing.T) {
	lt := newLockTable()
	r1, r2, w := mkQuery(1), mkQuery(2), mkQuery(3)
	if !lt.tryAcquire(r1, 9, false) || !lt.tryAcquire(r2, 9, false) {
		t.Fatal("shared locks should coexist")
	}
	if lt.tryAcquire(w, 9, true) {
		t.Fatal("writer acquired shared-held lock")
	}
	// A third reader arriving after the writer must queue (no starvation).
	r3 := mkQuery(4)
	if lt.tryAcquire(r3, 9, false) {
		t.Fatal("reader jumped ahead of queued writer")
	}
	lt.releaseAll(r1)
	woken := lt.releaseAll(r2)
	if len(woken) != 1 || woken[0].ID != w.ID {
		t.Fatalf("writer not woken first: %v", woken)
	}
	woken = lt.releaseAll(w)
	if len(woken) != 1 || woken[0].ID != r3.ID {
		t.Fatalf("queued reader not woken after writer: %v", woken)
	}
}

func TestLockTableReentrant(t *testing.T) {
	lt := newLockTable()
	a := mkQuery(1)
	if !lt.tryAcquire(a, 2, false) {
		t.Fatal("acquire failed")
	}
	if !lt.tryAcquire(a, 2, false) {
		t.Fatal("re-entrant shared acquire failed")
	}
	// Sole holder may upgrade.
	if !lt.tryAcquire(a, 2, true) {
		t.Fatal("upgrade by sole holder failed")
	}
	if !lt.keys[2].exclusive {
		t.Fatal("upgrade did not set exclusive")
	}
}

func TestLockTableUpgradeBlockedWhenShared(t *testing.T) {
	lt := newLockTable()
	a, b := mkQuery(1), mkQuery(2)
	lt.tryAcquire(a, 2, false)
	lt.tryAcquire(b, 2, false)
	if lt.tryAcquire(a, 2, true) {
		t.Fatal("upgrade succeeded while another reader holds the lock")
	}
}

func TestDetectDeadlockSimpleCycle(t *testing.T) {
	lt := newLockTable()
	a, b := mkQuery(1), mkQuery(2)
	lt.tryAcquire(a, 1, true)
	lt.tryAcquire(b, 2, true)
	lt.tryAcquire(a, 2, true) // a waits for b
	lt.tryAcquire(b, 1, true) // b waits for a
	a.state, a.waitingKey = StateBlocked, 2
	b.state, b.waitingKey = StateBlocked, 1
	if victim := lt.detectDeadlock([]*Query{a, b}); victim != b {
		t.Fatalf("victim = %v, want the youngest query on the cycle", victim)
	}
}

func TestDetectNoDeadlockChain(t *testing.T) {
	lt := newLockTable()
	a, b, c := mkQuery(1), mkQuery(2), mkQuery(3)
	lt.tryAcquire(a, 1, true)
	lt.tryAcquire(b, 2, true)
	lt.tryAcquire(c, 1, true) // c waits for a
	lt.tryAcquire(c, 2, true) // (still waiting on 1; hypothetical)
	c.state, c.waitingKey = StateBlocked, 1
	if victim := lt.detectDeadlock([]*Query{c}); victim != nil {
		t.Fatalf("false deadlock: victim %d", victim.ID)
	}
	_ = b
}

func TestConflictRatioDefinition(t *testing.T) {
	// total = 3, active = 2 -> 1.5
	if got := lockRatio(3, 2); got != 1.5 {
		t.Fatalf("conflict ratio = %v, want 1.5", got)
	}
	// No locks at all -> 1.
	if got := lockRatio(0, 0); got != 1 {
		t.Fatalf("empty ratio = %v, want 1", got)
	}
	// All holders blocked -> maximal.
	if got := lockRatio(3, 0); got <= 3 {
		t.Fatalf("all-blocked ratio = %v, want > total", got)
	}
}

// Property: after any sequence of acquire/release operations, a key is never
// held exclusively by more than one query, and shared/exclusive never mix.
func TestLockTableSafetyProperty(t *testing.T) {
	type op struct {
		Query     uint8
		Key       uint8
		Exclusive bool
		Release   bool
	}
	f := func(ops []op) bool {
		lt := newLockTable()
		queries := map[int64]*Query{}
		get := func(n uint8) *Query {
			id := int64(n%8) + 1
			if q, ok := queries[id]; ok {
				return q
			}
			q := mkQuery(id)
			queries[id] = q
			return q
		}
		for _, o := range ops {
			q := get(o.Query)
			if o.Release {
				lt.releaseAll(q)
				continue
			}
			lt.tryAcquire(q, int(o.Key%4), o.Exclusive)
		}
		// Invariant check.
		for _, e := range lt.keys {
			if e.exclusive && len(e.holders) > 1 {
				return false
			}
			if len(e.holders) == 0 {
				return false // a key nobody holds must have no entry
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
