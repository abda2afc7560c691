package scheduling

import (
	"container/heap"
	"slices"
	"testing"

	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
	"dbwlm/internal/workload"
)

// pushLog is an FCFS queue that records the request ID of every Push.
type pushLog struct {
	FCFS
	pushed []int64
}

func (q *pushLog) Push(it *Item) {
	q.pushed = append(q.pushed, it.Req.ID)
	q.FCFS.Push(it)
}

// refPopDispatchable is popDispatchable as it was before it kept its skipped
// items in scheduler-owned scratch: a fresh slice and a deferred re-push.
func refPopDispatchable(s *Scheduler, now sim.Time) *Item {
	var skipped []*Item
	defer func() {
		for _, it := range skipped {
			s.queue.Push(it)
		}
	}()
	for tries := 0; tries <= s.maxSkip; tries++ {
		it := s.queue.Pop(now)
		if it == nil {
			return nil
		}
		if s.dispatcher.CanDispatch(it, now) {
			return it
		}
		skipped = append(skipped, it)
	}
	return nil
}

// TestPopDispatchableRepushOrder pins which item a pop returns and the order
// the passed-over items go back on the queue, at MaxSkip 0, 1 and 64, against
// a dispatcher that refuses one class — and holds both to the deferred-closure
// version it replaced.
func TestPopDispatchableRepushOrder(t *testing.T) {
	classes := []string{"bi", "bi", "bi", "oltp", "bi", "oltp"}
	cases := []struct {
		maxSkip  int
		want     int64   // 0: nothing dispatchable within reach
		repushed []int64 // in push order
	}{
		{0, 0, []int64{1}},
		{1, 0, []int64{1, 2}},
		{64, 4, []int64{1, 2, 3}},
	}
	for _, tc := range cases {
		build := func() (*Scheduler, *pushLog) {
			q := &pushLog{}
			s := NewScheduler(q, NewClassMPL(map[string]int{"bi": 0}))
			s.maxSkip = tc.maxSkip
			for i, class := range classes {
				q.FCFS.Push(&Item{Req: &workload.Request{ID: int64(i + 1)}, Class: class, Enqueued: sim.Time(i)})
			}
			return s, q
		}
		s, q := build()
		ref, refQ := build()
		for pop := 0; pop < 3; pop++ { // later pops run on the reused scratch
			got, want := s.popDispatchable(10), refPopDispatchable(ref, 10)
			if (got == nil) != (want == nil) || (got != nil && got.Req.ID != want.Req.ID) {
				t.Fatalf("MaxSkip %d pop %d: popped %v, reference %v", tc.maxSkip, pop, got, want)
			}
			if !slices.Equal(q.pushed, refQ.pushed) {
				t.Fatalf("MaxSkip %d pop %d: re-pushed %v, reference %v", tc.maxSkip, pop, q.pushed, refQ.pushed)
			}
			if pop == 0 {
				if (got == nil) != (tc.want == 0) || (got != nil && got.Req.ID != tc.want) {
					t.Fatalf("MaxSkip %d: popped %v, want request %d", tc.maxSkip, got, tc.want)
				}
				if !slices.Equal(q.pushed, tc.repushed) {
					t.Fatalf("MaxSkip %d: re-pushed %v, want %v", tc.maxSkip, q.pushed, tc.repushed)
				}
			}
			for _, it := range s.skipped[:cap(s.skipped)] {
				if it != nil {
					t.Fatalf("MaxSkip %d: scratch still holds request %d", tc.maxSkip, it.Req.ID)
				}
			}
		}
		if s.Waiting() != ref.Waiting() {
			t.Fatalf("MaxSkip %d: %d waiting, reference %d", tc.maxSkip, s.Waiting(), ref.Waiting())
		}
	}
}

// TestPopDispatchableZeroAlloc asserts a warm pop that skips over blocked
// items allocates nothing: no deferred closure, no fresh skipped slice.
func TestPopDispatchableZeroAlloc(t *testing.T) {
	s := NewScheduler(NewPriority(), NewClassMPL(map[string]int{"bi": 0}))
	for i := int64(1); i <= 8; i++ {
		s.queue.Push(&Item{Req: &workload.Request{ID: i, Priority: policy.PriorityHigh}, Class: "bi", Enqueued: sim.Time(i)})
	}
	s.queue.Push(&Item{Req: &workload.Request{ID: 9, Priority: policy.PriorityLow}, Class: "oltp", Enqueued: 9})
	// AllocsPerRun's own warm-up run sizes the scratch.
	allocs := testing.AllocsPerRun(200, func() {
		it := s.popDispatchable(10)
		if it == nil || it.Req.ID != 9 {
			t.Fatalf("popped %v, want request 9 from behind eight blocked items", it)
		}
		s.queue.Push(it)
	})
	if allocs != 0 {
		t.Fatalf("warm popDispatchable allocates: %.1f allocs", allocs)
	}
}

// refItemHeap drives container/heap the way Priority and SJF did before
// itemHeap: the reference for pop order among items that tie.
type refItemHeap struct {
	items  []*Item
	before func(a, b *Item) bool
}

func (h *refItemHeap) Len() int           { return len(h.items) }
func (h *refItemHeap) Less(i, j int) bool { return h.before(h.items[i], h.items[j]) }
func (h *refItemHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *refItemHeap) Push(x any)         { h.items = append(h.items, x.(*Item)) }
func (h *refItemHeap) Pop() any {
	n := len(h.items)
	it := h.items[n-1]
	h.items = h.items[:n-1]
	return it
}

// refPriorityBefore and refSJFBefore are the closures Priority and SJF
// ordered their heaps with before itemHeap compared in a method of its own.
var (
	refPriorityBefore = func(a, b *Item) bool {
		if a.Req.Priority != b.Req.Priority {
			return a.Req.Priority > b.Req.Priority // higher priority first
		}
		return a.Enqueued < b.Enqueued // FCFS within a priority
	}
	refSJFBefore = func(a, b *Item) bool {
		if a.Req.Est.Timerons != b.Req.Est.Timerons {
			return a.Req.Est.Timerons < b.Req.Est.Timerons
		}
		return a.Enqueued < b.Enqueued
	}
)

// refBefore returns the reference order of a Priority or SJF queue.
func refBefore(q Queue) func(a, b *Item) bool {
	if _, ok := q.(*SJF); ok {
		return refSJFBefore
	}
	return refPriorityBefore
}

// TestItemHeapMatchesContainerHeap holds Priority and SJF to container/heap's
// pop order under random pushes and pops of items that mostly tie: four
// priorities, four costs and eight enqueue instants over hundreds of items.
func TestItemHeapMatchesContainerHeap(t *testing.T) {
	for _, q := range []Queue{NewPriority(), NewSJF()} {
		for seed := uint64(1); seed <= 50; seed++ {
			rng := sim.NewRNG(seed)
			ref := &refItemHeap{before: refBefore(q)}
			for step, id := 0, int64(0); step < 600; step++ {
				if rng.Bool(0.55) {
					id++
					it := item(id, policy.Priority(rng.Intn(4)), float64(rng.Intn(4)), sim.Time(rng.Intn(8)))
					q.Push(it)
					heap.Push(ref, it)
					continue
				}
				var want *Item
				if ref.Len() > 0 {
					want = heap.Pop(ref).(*Item)
				}
				if got := q.Pop(0); got != want {
					t.Fatalf("%s seed %d step %d: popped %v, container/heap pops %v", q.Name(), seed, step, got, want)
				}
			}
			for q.Len() > 0 {
				if got, want := q.Pop(0), heap.Pop(ref).(*Item); got != want {
					t.Fatalf("%s seed %d drain: popped %v, container/heap pops %v", q.Name(), seed, got, want)
				}
			}
		}
	}
}

// closureItemHeap is itemHeap as it was when it called its order through a
// closure, kept verbatim as FuzzItemHeapMatchesReference's reference.
type closureItemHeap struct {
	items  []*Item
	before func(a, b *Item) bool
}

func (h *closureItemHeap) push(it *Item) {
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

func (h *closureItemHeap) pop() *Item {
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

// FuzzItemHeapMatchesReference drives Priority and SJF and the closure heap
// with the same pushes and pops. Each push draws its priority, cost and
// enqueue instant from four, four and eight values, so most items tie. After
// every operation the popped item and the whole heap array must be the
// reference's: equal layout, not just equal order.
func FuzzItemHeapMatchesReference(f *testing.F) {
	f.Add([]byte{1, 3, 5, 7, 9, 11, 0, 0, 13, 15, 0})
	f.Add([]byte{0x21, 0x21, 0x21, 0x41, 0x41, 0, 0x61, 0x01, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, kind := range []string{"priority", "sjf"} {
			var h *itemHeap
			switch kind {
			case "priority":
				h = &NewPriority().h
			default:
				h = &NewSJF().h
			}
			ref := &closureItemHeap{before: refPriorityBefore}
			if h.cheapest {
				ref.before = refSJFBefore
			}
			for i, op := range ops {
				if op&1 != 0 {
					it := item(int64(i+1), policy.Priority(op>>1&3), float64(op>>3&3), sim.Time(op>>5))
					h.push(it)
					ref.push(it)
				} else if got, want := h.pop(), ref.pop(); got != want {
					t.Fatalf("%s op %d: popped %v, reference %v", kind, i, got, want)
				}
				if !slices.Equal(h.items, ref.items) {
					t.Fatalf("%s op %d: heap layout differs from the reference", kind, i)
				}
			}
		}
	})
}
