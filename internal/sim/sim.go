// Package sim provides a deterministic discrete-event simulator used as the
// time base for the simulated DBMS engine and for every workload-management
// experiment in this repository.
//
// All time in the simulator is virtual: a 64-bit count of microseconds since
// the start of the run. Events are ordered by (time, insertion sequence), so
// two events scheduled for the same instant fire in the order they were
// scheduled, which keeps every run bit-for-bit reproducible.
//
//dbwlm:deterministic
package sim

import "fmt"

// Time is a point in virtual time, in microseconds since the simulation epoch.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Convenient duration units.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
	Minute      Duration = 60 * Second
	Hour        Duration = 60 * Minute
)

// Seconds reports the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Millis reports the duration as a floating-point number of milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// DurationFromSeconds converts seconds to a virtual Duration.
func DurationFromSeconds(s float64) Duration { return Duration(s * float64(Second)) }

// String renders the duration in a human-friendly unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", d.Millis())
	default:
		return fmt.Sprintf("%dµs", int64(d))
	}
}

// Seconds reports the time as a floating-point number of seconds since the epoch.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Add offsets a time by a duration.
//
//dbwlm:hotpath
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub reports the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Event is a scheduled callback. It is returned by Schedule and At so the
// caller can cancel it before it fires (for example, a timeout that is no
// longer needed).
type Event struct {
	at       Time
	seq      int64
	fn       func()
	queued   bool // in the event heap
	canceled bool
	// detached events were scheduled via ScheduleDetached: no caller holds a
	// reference, so the simulator recycles them through a free list.
	detached bool
	sim      *Simulator
}

// Time reports when the event is scheduled to fire.
func (e *Event) Time() Time { return e.at }

// Cancel prevents the event from firing. Canceling an event that has already
// fired is a no-op.
func (e *Event) Cancel() {
	if e.canceled {
		return
	}
	e.canceled = true
	if e.queued && e.sim != nil {
		e.sim.noteCanceled()
	}
}

// Canceled reports whether Cancel has been called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// eventHeap is a binary min-heap on (at, seq), written out for *Event rather
// than driven through container/heap: the simulator's loop is a push and a pop
// per event, and the interface calls and per-swap bookkeeping were a tenth of
// a managed scenario. (at, seq) is a total order — seq is unique — so the pop
// order is the order any correct heap gives.
type eventHeap []*Event

//dbwlm:hotpath
func (e *Event) before(o *Event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

//dbwlm:hotpath
func (h *eventHeap) push(e *Event) {
	e.queued = true
	//dbwlm:nolint hotpath -- the heap's backing array survives Reset; growth stops at the peak number of pending events
	ev := append(*h, e)
	i := len(ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(ev[parent]) {
			break
		}
		ev[i] = ev[parent]
		i = parent
	}
	ev[i] = e
	*h = ev
}

// pop removes and returns the earliest event.
//
//dbwlm:hotpath
func (h *eventHeap) pop() *Event {
	ev := *h
	n := len(ev) - 1
	top, last := ev[0], ev[n]
	ev[n] = nil
	ev = ev[:n]
	if n > 0 {
		ev.sink(0, last)
	}
	*h = ev
	top.queued = false
	return top
}

// sink places e at index i or below, moving smaller children up: the slot at
// i is treated as empty.
//
//dbwlm:hotpath
func (h eventHeap) sink(i int, e *Event) {
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && h[r].before(h[child]) {
			child = r
		}
		if !h[child].before(e) {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = e
}

// Simulator is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; the simulated world is single-threaded by design so that
// every run is deterministic.
type Simulator struct {
	now    Time
	seq    int64
	events eventHeap
	rng    *RNG

	// free is the recycle list for detached events (the simulator's hot
	// allocation path: engine ticks and finish callbacks).
	free []*Event
	// canceledPending counts canceled events still sitting in the heap;
	// when they exceed half the heap the heap is compacted in one pass
	// rather than draining them one pop at a time.
	canceledPending int

	// horizon is the bound of the innermost active Run call (valid while
	// running > 0). Fast-forwarding consumers use it to avoid advancing
	// simulated state past the point the driver asked for.
	horizon    Time
	horizonSet bool
}

// New returns a simulator whose random source is seeded with seed.
func New(seed uint64) *Simulator {
	return &Simulator{rng: NewRNG(seed)}
}

// Reset returns the simulator to the state of a fresh New(seed) while
// retaining its internal capacity: the event-heap backing array and the
// detached-event free list survive, so a pooled simulator reused across many
// runs (trace.ReplayMany) stops allocating once warm. Pending events are
// discarded without firing — detached ones are recycled, handles returned by
// Schedule/At are orphaned and must not be used again. A reset run is
// bit-for-bit identical to a run on a freshly constructed simulator.
func (s *Simulator) Reset(seed uint64) {
	for i, e := range s.events {
		e.queued = false
		s.recycle(e)
		s.events[i] = nil
	}
	s.events = s.events[:0]
	s.now = 0
	s.seq = 0
	s.canceledPending = 0
	s.horizon, s.horizonSet = 0, false
	s.rng.Reseed(seed)
}

// Now reports the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// RNG returns the simulator's deterministic random source.
func (s *Simulator) RNG() *RNG { return s.rng }

// Pending reports the number of events waiting to fire (including canceled
// events that have not yet been discarded).
func (s *Simulator) Pending() int { return len(s.events) }

// Schedule arranges for fn to run after delay. A negative delay is treated as
// zero. The returned Event may be used to cancel the callback.
func (s *Simulator) Schedule(delay Duration, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return s.At(s.now.Add(delay), fn)
}

// At arranges for fn to run at absolute virtual time t. If t is in the past
// the event fires at the current time (but still strictly after the running
// event completes).
func (s *Simulator) At(t Time, fn func()) *Event {
	if t < s.now {
		t = s.now
	}
	e := &Event{at: t, seq: s.seq, fn: fn, sim: s}
	s.seq++
	s.events.push(e)
	return e
}

// ScheduleDetached arranges for fn to run after delay, like Schedule, but
// returns no handle: the event cannot be canceled, and the simulator recycles
// the Event object through a free list once it fires. This is the
// allocation-free path for high-frequency internal events (the engine's
// quantum tick, finish callbacks).
func (s *Simulator) ScheduleDetached(delay Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.AtDetached(s.now.Add(delay), fn)
}

// AtDetached arranges for fn to run at absolute virtual time t, like At, but
// returns no handle and recycles the Event through the free list once it
// fires. High-frequency schedulers that think in absolute times — the trace
// replayer's arrival chain runs millions of rows through here — use it so a
// long run produces no Event garbage.
func (s *Simulator) AtDetached(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		*e = Event{at: t, seq: s.seq, fn: fn, detached: true, sim: s}
	} else {
		e = &Event{at: t, seq: s.seq, fn: fn, detached: true, sim: s}
	}
	s.seq++
	s.events.push(e)
}

// recycle returns a fired (or discarded-canceled) detached event to the free
// list. Non-detached events may still be referenced by their scheduler and
// are left to the garbage collector.
//
//dbwlm:hotpath
func (s *Simulator) recycle(e *Event) {
	if !e.detached {
		return
	}
	e.fn = nil
	e.sim = nil
	//dbwlm:nolint hotpath -- free-list append reuses pooled capacity in steady state; growth is amortized across the run
	s.free = append(s.free, e)
}

// noteCanceled records a cancellation of an event still in the heap and
// lazily compacts the heap when canceled events outnumber live ones.
func (s *Simulator) noteCanceled() {
	s.canceledPending++
	if s.canceledPending > len(s.events)/2 && len(s.events) >= 64 {
		s.compact()
	}
}

// compact removes every canceled event from the heap in one pass.
func (s *Simulator) compact() {
	kept := s.events[:0]
	for _, e := range s.events {
		if e.canceled {
			e.queued = false
			s.recycle(e)
			continue
		}
		kept = append(kept, e)
	}
	for i := len(kept); i < len(s.events); i++ {
		s.events[i] = nil
	}
	s.events = kept
	s.canceledPending = 0
	for i := len(kept)/2 - 1; i >= 0; i-- {
		kept.sink(i, kept[i])
	}
}

// NextEventAt reports the time of the earliest pending (non-canceled) event.
// The second result is false when no live events are pending.
func (s *Simulator) NextEventAt() (Time, bool) {
	for len(s.events) > 0 {
		e := s.events[0]
		if !e.canceled {
			return e.at, true
		}
		s.events.pop()
		s.canceledPending--
		s.recycle(e)
	}
	return 0, false
}

// Horizon reports the bound of the innermost active Run call, when one is
// active. Consumers that batch virtual time (the engine's fast-forward path)
// use it so simulated state never advances past the driver's requested stop
// point.
func (s *Simulator) Horizon() (Time, bool) { return s.horizon, s.horizonSet }

// Every schedules fn to run every interval until fn returns false or the
// returned Event chain is canceled via the stop function.
func (s *Simulator) Every(interval Duration, fn func() bool) (stop func()) {
	stopped := false
	var tick func()
	var pending *Event
	tick = func() {
		if stopped {
			return
		}
		if !fn() {
			stopped = true
			return
		}
		pending = s.Schedule(interval, tick)
	}
	pending = s.Schedule(interval, tick)
	return func() {
		stopped = true
		if pending != nil {
			pending.Cancel()
		}
	}
}

// Step fires the next event. It reports false when no events remain.
//
//dbwlm:hotpath
func (s *Simulator) Step() bool {
	for len(s.events) > 0 {
		e := s.events.pop()
		if e.canceled {
			s.canceledPending--
			s.recycle(e)
			continue
		}
		s.now = e.at
		fn := e.fn
		s.recycle(e)
		//dbwlm:dyncall -- generic event dispatch: every scheduled callback flows here; per-request callbacks are audited on their own hot roots, control-plane callbacks fire once per virtual interval
		fn()
		return true
	}
	return false
}

// Run fires events until the event queue is empty or virtual time would pass
// until. It returns the number of events fired. Time is left at min(until,
// time of last event fired).
//
//dbwlm:hotpath
func (s *Simulator) Run(until Time) int {
	prevHorizon, prevSet := s.horizon, s.horizonSet
	s.horizon, s.horizonSet = until, true
	defer func() { s.horizon, s.horizonSet = prevHorizon, prevSet }()
	fired := 0
	for len(s.events) > 0 {
		// Peek.
		e := s.events[0]
		if e.canceled {
			s.events.pop()
			s.canceledPending--
			s.recycle(e)
			continue
		}
		if e.at > until {
			break
		}
		s.events.pop()
		s.now = e.at
		fn := e.fn
		s.recycle(e)
		//dbwlm:dyncall -- generic event dispatch: every scheduled callback flows here; per-request callbacks are audited on their own hot roots, control-plane callbacks fire once per virtual interval
		fn()
		fired++
	}
	if s.now < until {
		// Advance the clock to the requested horizon so that successive
		// Run calls observe monotonic time.
		s.now = until
	}
	return fired
}

// RunAll fires events until none remain. It panics after maxEvents events as
// a guard against runaway self-rescheduling loops.
func (s *Simulator) RunAll(maxEvents int) int {
	fired := 0
	for s.Step() {
		fired++
		if fired > maxEvents {
			panic(fmt.Sprintf("sim: RunAll exceeded %d events at t=%v", maxEvents, s.now))
		}
	}
	return fired
}
