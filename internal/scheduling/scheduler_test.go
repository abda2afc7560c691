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
	for tries := 0; tries <= s.MaxSkip; tries++ {
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
			s.MaxSkip = tc.maxSkip
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

// TestItemHeapMatchesContainerHeap holds Priority and SJF to container/heap's
// pop order under random pushes and pops of items that mostly tie: four
// priorities, four costs and eight enqueue instants over hundreds of items.
func TestItemHeapMatchesContainerHeap(t *testing.T) {
	for _, q := range []Queue{NewPriority(), NewSJF()} {
		var before func(a, b *Item) bool
		switch q := q.(type) {
		case *Priority:
			before = q.h.before
		case *SJF:
			before = q.h.before
		}
		for seed := uint64(1); seed <= 50; seed++ {
			rng := sim.NewRNG(seed)
			ref := &refItemHeap{before: before}
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
