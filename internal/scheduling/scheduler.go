package scheduling

import (
	"dbwlm/internal/sim"
)

// Scheduler pairs a wait queue with a dispatcher and a release function,
// implementing the paper's control point "prior to sending requests to the
// database execution engine" (Table 1, row 2).
type Scheduler struct {
	queue      Queue
	dispatcher Dispatcher
	// Release actually submits the request (set by the workload manager).
	Release func(it *Item)
	// maxSkip bounds how many non-dispatchable items are skipped over when
	// the dispatcher budgets per class (avoids head-of-line blocking across
	// classes); 0 means no skipping. NewScheduler sets 64.
	maxSkip int

	dispatched int64
	// skipped is popDispatchable's scratch: the items it popped, found
	// non-dispatchable and must push back.
	skipped []*Item
}

// NewScheduler builds a scheduler over the queue and dispatcher.
func NewScheduler(q Queue, d Dispatcher) *Scheduler {
	return &Scheduler{queue: q, dispatcher: d, maxSkip: 64}
}

// Dispatched reports the total number of released requests.
func (s *Scheduler) Dispatched() int64 { return s.dispatched }

// Enqueue admits an item to the wait queue and attempts dispatch.
func (s *Scheduler) Enqueue(it *Item, now sim.Time) {
	s.queue.Push(it)
	s.TryDispatch(now)
}

// TryDispatch releases as many queued items as the dispatcher allows,
// skipping over per-class-blocked items up to 64 deep.
func (s *Scheduler) TryDispatch(now sim.Time) {
	for {
		it := s.popDispatchable(now)
		if it == nil {
			return
		}
		s.dispatcher.OnDispatch(it)
		s.dispatched++
		if s.Release != nil {
			s.Release(it)
		}
	}
}

// popDispatchable pops the first item the dispatcher accepts, looking at
// most maxSkip items past the head; the items it passed over go back on the
// queue in the order they were popped. It adds no allocation of its own to
// what the queue and the dispatcher — the scheduler's policy plug-ins — cost.
//
//dbwlm:hotpath
func (s *Scheduler) popDispatchable(now sim.Time) *Item {
	var found *Item
	skipped := s.skipped[:0]
	for tries := 0; tries <= s.maxSkip; tries++ {
		//dbwlm:nolint hotpath -- plug-in boundary: a queue's pop is its own cost (a heap sift, a rank scan)
		it := s.queue.Pop(now)
		if it == nil {
			break
		}
		//dbwlm:nolint hotpath -- plug-in boundary: a dispatcher's test is its own cost (a per-class budget list grows on a class's first sight)
		if s.dispatcher.CanDispatch(it, now) {
			found = it
			break
		}
		//dbwlm:nolint hotpath -- scheduler-owned scratch; growth stops at maxSkip+1 entries
		skipped = append(skipped, it)
	}
	for i, it := range skipped {
		//dbwlm:nolint hotpath -- plug-in boundary: a queue's push is its own cost (amortized growth of its backing array)
		s.queue.Push(it)
		skipped[i] = nil
	}
	s.skipped = skipped[:0]
	return found
}

// OnFinish informs the scheduler that a released item left the engine, and
// dispatches newly admissible work.
func (s *Scheduler) OnFinish(it *Item, now sim.Time) {
	s.dispatcher.OnFinish(it)
	s.TryDispatch(now)
}

// Waiting reports the queue length.
func (s *Scheduler) Waiting() int { return s.queue.Len() }
