package rt

import "sync"

// waiter is one parked admission request. Its channel is buffered for one
// Grant — the verdict — so the waker never blocks while holding the queue
// lock. Waiters are pooled: the waker's send is the last touch before the
// waiting goroutine receives, returns the waiter to the pool, and a later
// Admit may reuse it.
type waiter struct {
	ch         chan Grant
	enqueuedAt int64 // runtime clock nanos at enqueue
	cost       float64
	// Flight-recorder identity, carried so the dequeue event correlates
	// with the enqueue (all zero when the recorder is off).
	qid       int64
	fp        uint64
	predicted float64
}

var waiterPool = sync.Pool{New: func() any { return &waiter{ch: make(chan Grant, 1)} }}

// waitQueue is a per-class FIFO of parked requests. It is intentionally a
// plain mutex-guarded ring: the queue is touched only when the gate is
// closed (or a retry cycle runs), never on the lock-free admit/release fast
// path, so a cheap lock here buys strict FIFO-within-class ordering.
type waitQueue struct {
	mu   sync.Mutex // guards q and head
	q    []*waiter
	head int
}

// push appends a waiter. Caller holds mu.
func (w *waitQueue) push(x *waiter) { w.q = append(w.q, x) }

// peek returns the oldest waiter without removing it, or nil. Caller holds mu.
func (w *waitQueue) peek() *waiter {
	if w.head >= len(w.q) {
		return nil
	}
	return w.q[w.head]
}

// pop removes the oldest waiter, compacting the ring lazily. Caller holds mu.
func (w *waitQueue) pop() {
	w.q[w.head] = nil
	w.head++
	if w.head > 64 && w.head*2 > len(w.q) {
		n := copy(w.q, w.q[w.head:])
		for i := n; i < len(w.q); i++ {
			w.q[i] = nil
		}
		w.q = w.q[:n]
		w.head = 0
	}
}
