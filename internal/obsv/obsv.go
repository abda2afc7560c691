// Package obsv is the observability substrate of the live runtime: a
// fixed-size flight recorder for per-query lifecycle events and a
// hand-rolled Prometheus text-format writer over the concurrent histograms
// of internal/metrics. It is the Monitor stage of the paper's Section 5.3
// autonomic (MAPE) workload manager made inspectable: every admission
// decision carries the reason the deciding gate fired, every MAPE iteration records
// what it observed and which action it chose, and the whole trail drains
// through GET /trace for post-mortems.
//
// The recorder is built to sit on the admission hot path:
//
//   - Disabled (nil *Recorder), every hook is a single pointer-nil branch —
//     zero allocations, zero atomics, no measurable cost.
//   - Enabled, a Record claims the one ring with a compare-and-swap, stores
//     the event into the ring's next slot with a plain copy, and releases
//     the ring with one atomic store — no allocation, no unbounded growth.
//     A writer that finds the ring held spins until it is free, and the
//     ring counts that once (RingBusy). When the ring wraps, the oldest
//     events are overwritten (and counted).
//
// The ring's busy word is its ownership: whoever swapped it from 0 to 1 owns
// the cursor, the counters and the slots until it stores 0 again. Drains and
// counters take the ring the same way, a drain for at most one pass over
// it, so a drain never sees a half-written event and concurrent record/drain
// is exact under the race detector.
package obsv

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync/atomic"
)

// Kind classifies a flight-recorder event.
type Kind uint8

// Event kinds: the query lifecycle (admit decision, queue enter, release)
// and the MAPE loop's three visible stages.
const (
	// KindAny matches every kind in a Filter.
	KindAny Kind = iota
	// KindAdmit is a resolved admission decision — admitted or rejected —
	// with the verdict and the reason the deciding gate fired.
	KindAdmit
	// KindEnqueue marks a request parking in its class wait queue.
	KindEnqueue
	// KindDone marks an admitted grant's release; Value is the service
	// seconds between grant and release.
	KindDone
	// KindMAPEMonitor is one MAPE monitor snapshot (Value = memory
	// pressure, Aux = requests in engine).
	KindMAPEMonitor
	// KindMAPESymptom is one analyzer diagnosis (Reason = symptom,
	// Value = severity).
	KindMAPESymptom
	// KindMAPEAction is one planned action the executor imposed
	// (Reason = action, Value = amount).
	KindMAPEAction

	numKinds
)

var kindNames = [numKinds]string{
	"any", "admit", "enqueue", "done",
	"mape-monitor", "mape-symptom", "mape-action",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindFromName resolves a kind name (the /trace?kind= vocabulary).
func KindFromName(name string) (Kind, bool) {
	for k := Kind(1); k < numKinds; k++ {
		if kindNames[k] == name {
			return k, true
		}
	}
	return KindAny, false
}

// Reason says which gate, threshold, symptom, or action an event is about —
// the "why" that aggregate counters cannot carry.
type Reason uint8

// Reasons. The first block qualifies admission decisions, the second MAPE
// symptoms, the third control actions.
const (
	ReasonNone Reason = iota
	// ReasonFastPath: admitted on the lock-free fast path, no queueing.
	ReasonFastPath
	// ReasonDrained: admitted from the wait queue at a retry cycle or a
	// slot release (Aux = seconds waited).
	ReasonDrained
	// ReasonCostLimit: rejected, estimated cost over the class's
	// MaxCostTimerons.
	ReasonCostLimit
	// ReasonPredictedBucket: rejected, predicted runtime bucket above the
	// prediction gate's ceiling (Aux = predicted seconds).
	ReasonPredictedBucket
	// ReasonQueueTimeout: rejected, queued longer than MaxQueueDelay
	// (Aux = seconds waited).
	ReasonQueueTimeout
	// ReasonGateFull: enqueued because the class or global MPL was
	// exhausted.
	ReasonGateFull
	// ReasonLowPriorityGate: enqueued because the congestion gate is closed
	// for this priority.
	ReasonLowPriorityGate

	// ReasonSLOViolation, ReasonOverload, ReasonUnderload mirror the
	// analyzer's SymptomKind vocabulary.
	ReasonSLOViolation
	ReasonOverload
	ReasonUnderload

	// Control-action reasons mirror the planner's ActionKind vocabulary.
	ReasonThrottle
	ReasonSuspend
	ReasonKill
	ReasonKillResubmit
	ReasonReprioritize
	ReasonResume
	ReasonNoAction

	// SLO-engine reasons (appended so existing numeric values stay stable):
	// ReasonDeadlineMiss marks a KindDone event whose service time exceeded
	// the class deadline; ReasonBurnRate and ReasonBudgetExhausted are the
	// analyzer's multi-window burn-rate symptoms (budget burning too fast /
	// error budget fully spent over the slow window).
	ReasonDeadlineMiss
	ReasonBurnRate
	ReasonBudgetExhausted

	numReasons
)

var reasonNames = [numReasons]string{
	"", "fast-path", "drained", "cost-limit", "predicted-bucket",
	"queue-timeout", "gate-full", "low-priority-gate",
	"slo-violation", "overload", "underload",
	"throttle", "suspend", "kill", "kill-resubmit", "reprioritize",
	"resume", "none",
	"deadline-miss", "burn-rate", "budget-exhausted",
}

// String names the reason ("" for ReasonNone).
func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("Reason(%d)", int(r))
}

// NoVerdict is the Event.Verdict sentinel for events that are not admission
// decisions. Admission events store the rt.Verdict numeric value, which the
// HTTP layer renders back through rt.Verdict.String.
const NoVerdict uint8 = 0xFF

// NoClass is the Event.Class sentinel for events not scoped to a service
// class.
const NoClass int32 = -1

// Event is one flight-recorder record: 56 bytes of plain data, so recording
// never allocates and both recording and draining copy it by value.
type Event struct {
	// Seq is the event's position+1 in the ring's event stream: the ring
	// assigns 1, 2, 3, … in record order.
	Seq uint64
	// At is the event time in nanoseconds on the recording component's
	// clock (the runtime's monotonic clock for lifecycle events).
	At int64
	// QID is the admission ID correlating one request's lifecycle events
	// (0 when not request-scoped).
	QID int64
	// FP is the statement fingerprint's low lane when the prediction
	// pipeline saw the request (0 otherwise).
	FP uint64
	// Kind classifies the event; Reason says why it fired.
	Kind   Kind
	Reason Reason
	// Verdict is the admission outcome for KindAdmit events (NoVerdict
	// otherwise).
	Verdict uint8
	// Class is the service-class ID, NoClass when unscoped.
	Class int32
	// Value and Aux carry the event's measured quantities; the Kind and
	// Reason comments above say what each holds.
	Value float64
	Aux   float64
}

// Recorder is the flight recorder: one ring of fixed capacity. busy is the
// ring's ownership word: a writer or reader that swaps it from 0 to 1 owns
// cursor, held and slots until it stores 0, and no one touches them
// otherwise. A nil *Recorder is valid and records nothing — the disabled
// state is the zero value of a pointer field, and every method nil-checks
// the receiver.
type Recorder struct {
	busy   atomic.Uint32
	cursor uint64 // events ever recorded
	held   uint64 // records that found the ring held
	mask   uint64 // slot-index mask
	slots  []Event
}

// NewRecorder builds a recorder retaining capacity events, rounded up to a
// power of two, minimum 64, so Cap is the same on every host. capacity <= 0
// selects the 16384-event default.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 16384
	}
	n := max(1<<bits.Len(uint(capacity-1)), 64)
	return &Recorder{slots: make([]Event, n), mask: uint64(n - 1)}
}

// Cap reports the slot capacity.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Record stores one event. Safe on a nil receiver (drops the event); never
// allocates — one compare-and-swap to claim the ring, one copy into its next
// slot, one store to release. A record that finds the ring held spins
// without parking until it is free, and counts once in RingBusy.
//
//dbwlm:hotpath
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	if !r.busy.CompareAndSwap(0, 1) {
		for r.busy.Load() != 0 || !r.busy.CompareAndSwap(0, 1) {
		}
		r.held++
	}
	r.cursor++
	e.Seq = r.cursor
	r.slots[(r.cursor-1)&r.mask] = e
	r.busy.Store(0)
}

// hold takes the ring for a reader, yielding while someone else has it.
func (r *Recorder) hold() {
	for !r.busy.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
}

// counters reads the ring's cursor and held count under one hold.
func (r *Recorder) counters() (cursor, held uint64) {
	if r == nil {
		return 0, 0
	}
	r.hold()
	cursor, held = r.cursor, r.held
	r.busy.Store(0)
	return cursor, held
}

// Recorded reports the total number of events ever recorded, including any
// since overwritten.
func (r *Recorder) Recorded() uint64 {
	cursor, _ := r.counters()
	return cursor
}

// Overwritten reports how many events the ring has discarded to stay fixed
// size.
func (r *Recorder) Overwritten() uint64 {
	cursor, _ := r.counters()
	return cursor - min(cursor, uint64(r.Cap()))
}

// RingBusy reports how many records found the ring held and had to wait —
// the recorder's contention, zero while writers never collide.
func (r *Recorder) RingBusy() uint64 {
	_, held := r.counters()
	return held
}

// Filter selects events on drain. Start from MatchAll and override fields —
// the Class and Verdict sentinels for "any" are -1, not the zero value,
// because class 0 and verdict 0 are real values. A literal zero-value
// Filter{} is normalized to MatchAll by Tail; a filter copied from MatchAll
// never is, so MatchAll with Class 0 and Verdict 0 selects exactly those.
type Filter struct {
	Kind    Kind  // KindAny matches all
	Class   int32 // NoClass/-1 matches all; set exact class ID otherwise
	Verdict int16 // -1 matches all; else the rt.Verdict numeric value
	QID     int64 // 0 matches all
	// MinAt drops events older than this timestamp (same clock as
	// Event.At); 0 matches all. The /trace?since= time-range filter.
	MinAt int64
	// fromMatchAll tells a filter copied from MatchAll from the zero value.
	fromMatchAll bool
}

// MatchAll is the drain-everything filter.
var MatchAll = Filter{Class: NoClass, Verdict: -1, fromMatchAll: true}

func (f *Filter) match(e *Event) bool {
	if f.Kind != KindAny && e.Kind != f.Kind {
		return false
	}
	if f.Class != NoClass && e.Class != f.Class {
		return false
	}
	if f.Verdict >= 0 && (e.Verdict == NoVerdict || int16(e.Verdict) != f.Verdict) {
		return false
	}
	if f.QID != 0 && e.QID != f.QID {
		return false
	}
	if f.MinAt != 0 && e.At < f.MinAt {
		return false
	}
	return true
}

// Tail drains the newest matching events, oldest first, at most n of them
// (n <= 0 keeps every retained match). Events come in record order (Seq).
// It holds the ring for at most one pass: it walks back from the newest
// event and stops at the n-th match, into a slice allocated before the hold.
func (r *Recorder) Tail(n int, f Filter) []Event {
	if r == nil {
		return nil
	}
	if f == (Filter{}) {
		f = MatchAll
	}
	if n <= 0 || n > len(r.slots) {
		n = len(r.slots)
	}
	out := make([]Event, 0, n)
	r.hold()
	oldest := r.cursor - min(r.cursor, uint64(len(r.slots)))
	for pos := r.cursor; pos > oldest && len(out) < n; pos-- {
		if e := &r.slots[(pos-1)&r.mask]; f.match(e) {
			out = append(out, *e)
		}
	}
	r.busy.Store(0)
	slices.Reverse(out)
	return out
}
