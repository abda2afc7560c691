// Package fifo is the slice-backed first-in-first-out queue behind the
// manager's admission queue, the FCFS wait queue and the throughput window.
// Dropping from the front vacates slots instead of reslicing past them
// (which gives capacity away until append has to re-grow the array) or
// shifting the rest down on every pop (which moves the whole queue per
// element): the live part is copied down only once the vacated prefix is half
// the slice, so an element moves at most once per halving and a queue that
// has reached its peak length stops allocating.
package fifo

import "slices"

// Queue is a FIFO of T. The zero value is an empty queue.
type Queue[T any] struct {
	items []T
	head  int // items[:head] are vacated
}

// Len reports the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Items returns the queued elements, oldest first. The slice aliases the
// queue and is valid until the next Push, Insert or Drop.
func (q *Queue[T]) Items() []T { return q.items[q.head:] }

// Push appends v at the back.
func (q *Queue[T]) Push(v T) { q.items = append(q.items, v) }

// Insert places v before Items()[i]; Insert(Len(), v) is Push.
func (q *Queue[T]) Insert(i int, v T) { q.items = slices.Insert(q.items, q.head+i, v) }

// Drop removes the n oldest elements, zeroing their slots so the backing
// array does not keep what they pointed to alive.
func (q *Queue[T]) Drop(n int) {
	clear(q.items[q.head : q.head+n])
	q.head += n
	if q.head*2 >= len(q.items) {
		live := copy(q.items, q.items[q.head:])
		clear(q.items[live:])
		q.items, q.head = q.items[:live], 0
	}
}
