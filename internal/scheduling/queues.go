// Package scheduling implements the scheduling class of the taxonomy
// (Section 3.3): queue management — wait queues ordered by FCFS, priority,
// shortest-job-first, or the rank functions of Gupta et al. [24]; dispatchers
// that decide how many queued requests may run (static MPLs, per-class cost
// limits); the utility-function cost-limit scheduler of Niu et al. [60] with
// its analytic performance model; the feedback MPL controller in the spirit
// of Schroeder et al. [69]; and query restructuring — slicing a large plan
// into a series of smaller sub-plans (Bruno et al. [6], Meng et al. [54]).
package scheduling

import (
	"dbwlm/internal/fifo"
	"dbwlm/internal/sim"
	"dbwlm/internal/workload"
)

// Item is one queued request.
type Item struct {
	Req      *workload.Request
	Enqueued sim.Time
	// Class is the service-class name the dispatcher budgets against.
	Class string
	// Weight is the resource weight the request will run with.
	Weight float64
	// Owner is the enqueuer's record that embeds the item (the workload
	// manager's Running), so Release can get back to it without a lookup.
	// The scheduler never reads it.
	Owner any
}

// Queue orders waiting requests. Pop may consider the current time (rank
// functions age with waiting time).
type Queue interface {
	Name() string
	Push(it *Item)
	// Pop removes and returns the best item, or nil when empty.
	Pop(now sim.Time) *Item
	Len() int
}

// ---------- FCFS ----------

// FCFS releases requests in arrival order. Push inserts by enqueue time (not
// at the tail), so items the scheduler pops, skips over, and re-pushes keep
// their original position.
type FCFS struct {
	q fifo.Queue[*Item]
}

// NewFCFS returns an empty FCFS queue.
func NewFCFS() *FCFS { return &FCFS{} }

// Name implements Queue.
func (q *FCFS) Name() string { return "fcfs" }

// Push implements Queue.
func (q *FCFS) Push(it *Item) {
	// Binary insert by (Enqueued, request ID): stable FIFO even when the
	// scheduler re-pushes skipped items.
	items := q.q.Items()
	lo, hi := 0, len(items)
	for lo < hi {
		mid := (lo + hi) / 2
		m := items[mid]
		if m.Enqueued < it.Enqueued ||
			(m.Enqueued == it.Enqueued && m.Req.ID <= it.Req.ID) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	q.q.Insert(lo, it)
}

// Pop implements Queue.
func (q *FCFS) Pop(_ sim.Time) *Item {
	it := q.Peek(0)
	if it != nil {
		q.q.Drop(1)
	}
	return it
}

// Peek returns the item Pop would return without removing it.
func (q *FCFS) Peek(_ sim.Time) *Item {
	if q.q.Len() == 0 {
		return nil
	}
	return q.q.Items()[0]
}

// Len implements Queue.
func (q *FCFS) Len() int { return q.q.Len() }

// ---------- Heap-ordered queues ----------

// itemHeap is a binary min-heap of items under before. It sifts exactly as
// container/heap does — the same comparisons, so the same layout after every
// push and pop — because before need not be a total order: items that tie
// (one priority, one enqueue instant) must keep popping in the order they
// always have. It moves the sifted item once instead of swapping it down.
type itemHeap struct {
	items []*Item
	// cheapest orders by estimated cost (SJF) rather than by priority.
	cheapest bool
}

// before reports whether a pops ahead of b: the higher priority (the
// cheaper estimate, for SJF) first, then the earlier enqueue.
func (h *itemHeap) before(a, b *Item) bool {
	if h.cheapest {
		if a.Req.Est.Timerons != b.Req.Est.Timerons {
			return a.Req.Est.Timerons < b.Req.Est.Timerons
		}
	} else if a.Req.Priority != b.Req.Priority {
		return a.Req.Priority > b.Req.Priority
	}
	return a.Enqueued < b.Enqueued
}

func (h *itemHeap) push(it *Item) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(it, h.items[parent]) {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = it
}

// pop removes and returns the first item, or nil when the heap is empty.
func (h *itemHeap) pop() *Item {
	if len(h.items) == 0 {
		return nil
	}
	n := len(h.items) - 1
	top, last := h.items[0], h.items[n]
	h.items[n] = nil
	h.items = h.items[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h.before(h.items[r], h.items[child]) {
			child = r
		}
		if !h.before(h.items[child], last) {
			break
		}
		h.items[i] = h.items[child]
		i = child
	}
	h.items[i] = last
	return top
}

// Priority releases the highest business priority first, FCFS within a
// level — the classic multi-level wait queue of Section 3.3.
type Priority struct{ h itemHeap }

// NewPriority returns an empty priority queue.
func NewPriority() *Priority { return &Priority{} }

// Name implements Queue.
func (q *Priority) Name() string { return "priority" }

// Push implements Queue.
func (q *Priority) Push(it *Item) { q.h.push(it) }

// Pop implements Queue.
func (q *Priority) Pop(_ sim.Time) *Item { return q.h.pop() }

// Len implements Queue.
func (q *Priority) Len() int { return len(q.h.items) }

// SJF releases the cheapest estimated query first — minimizing mean waiting
// time for batches, at the price of starving large queries.
type SJF struct{ h itemHeap }

// NewSJF returns an empty shortest-job-first queue.
func NewSJF() *SJF { return &SJF{h: itemHeap{cheapest: true}} }

// Name implements Queue.
func (q *SJF) Name() string { return "sjf" }

// Push implements Queue.
func (q *SJF) Push(it *Item) { q.h.push(it) }

// Pop implements Queue.
func (q *SJF) Pop(_ sim.Time) *Item { return q.h.pop() }

// Len implements Queue.
func (q *SJF) Len() int { return len(q.h.items) }

// ---------- Rank function (Gupta et al.) ----------

// Rank orders the queue by a dynamic rank that balances business priority,
// estimated cost, and waiting time — the "fair, effective, efficient and
// differentiated" scheduler of Gupta et al. [24]. Rank grows with waiting
// time, so large queries cannot starve.
type Rank struct {
	items []*Item
	// AgingWeight converts seconds of waiting into rank (default 0.02/s).
	AgingWeight float64
	// CostWeight penalizes estimated cost (default 1).
	CostWeight float64
}

// NewRank returns an empty rank queue.
func NewRank() *Rank { return &Rank{AgingWeight: 0.02, CostWeight: 1} }

// Name implements Queue.
func (q *Rank) Name() string { return "rank" }

// Push implements Queue.
func (q *Rank) Push(it *Item) { q.items = append(q.items, it) }

// rank computes the dynamic score; higher is released first.
func (q *Rank) rank(it *Item, now sim.Time) float64 {
	wait := now.Sub(it.Enqueued).Seconds()
	// Priority weight divided by log-scaled cost, plus aging.
	cost := 1 + it.Req.Est.Timerons
	return it.Req.Priority.Weight()/(q.CostWeight*logish(cost)) + q.AgingWeight*wait
}

func logish(v float64) float64 {
	// ln(1+v) without importing math in the hot path twice; small helper.
	x := v
	// Use a cheap approximation guard: delegate to math.Log1p via init-free path.
	return log1p(x)
}

// Pop implements Queue (O(n) scan — queue sizes are modest).
func (q *Rank) Pop(now sim.Time) *Item {
	i := q.best(now)
	if i < 0 {
		return nil
	}
	it := q.items[i]
	q.items = append(q.items[:i], q.items[i+1:]...)
	return it
}

func (q *Rank) best(now sim.Time) int {
	if len(q.items) == 0 {
		return -1
	}
	best := 0
	bestRank := q.rank(q.items[0], now)
	for i := 1; i < len(q.items); i++ {
		if r := q.rank(q.items[i], now); r > bestRank {
			best, bestRank = i, r
		}
	}
	return best
}

// Len implements Queue.
func (q *Rank) Len() int { return len(q.items) }
