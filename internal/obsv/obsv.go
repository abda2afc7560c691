// Package obsv is the observability substrate of the live runtime: a
// fixed-size, lock-free flight recorder for per-query lifecycle events and a
// hand-rolled Prometheus text-format writer over the striped recorders of
// internal/metrics. It is the Monitor stage of the paper's Section 5.3
// autonomic (MAPE) workload manager made inspectable: every admission
// decision carries the reason the gate fired, every MAPE iteration records
// what it observed and which action it chose, and the whole trail drains
// through GET /trace and `wlmd -trace-dump` for post-mortems.
//
// The recorder is built to sit on the admission hot path:
//
//   - Disabled (nil *Recorder), every hook is a single pointer-nil branch —
//     zero allocations, zero atomics, no measurable cost.
//   - Enabled, a Record is a per-shard atomic cursor fetch-add plus a fixed
//     number of atomic word stores into a preallocated slot — no locks, no
//     allocation, no unbounded growth. When the ring wraps, the oldest
//     events are overwritten (and counted), never blocking a writer.
//
// Slots are published seqlock-style: a writer zeroes the slot's publish tag,
// stores the event words, then stores the tag last; a drain copies the words
// between two tag reads and discards the copy if the tag moved. Every slot
// field is an atomic word, so concurrent record/drain is exact under the race
// detector, not just in practice.
package obsv

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync/atomic"
)

// Kind classifies a flight-recorder event.
type Kind uint8

// Event kinds: the query lifecycle (admit decision, queue enter, release),
// the MAPE loop's three visible stages, and execution-control actions.
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
	// KindCtlAction is an execution-control effector firing (throttle,
	// kill, reprioritize, suspend) outside the MAPE loop.
	KindCtlAction

	numKinds
)

var kindNames = [numKinds]string{
	"any", "admit", "enqueue", "done",
	"mape-monitor", "mape-symptom", "mape-action", "ctl-action",
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

	// Control-action reasons mirror the planner's ActionKind vocabulary
	// plus the threshold effectors of internal/execctl.
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

// Event is one flight-recorder record: plain data sized to a cache line, so
// recording never allocates and draining copies by value.
type Event struct {
	// Seq is the shard-local publish tag (position+1 in the shard's event
	// stream); it orders events within a shard and detects torn reads.
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

// Format renders the event as one human-readable trace line. className
// resolves class IDs (nil renders the numeric ID).
func (e Event) Format(className func(int32) string) string {
	class := ""
	if e.Class != NoClass {
		if className != nil {
			class = " class=" + className(e.Class)
		} else {
			class = fmt.Sprintf(" class=%d", e.Class)
		}
	}
	verdict := ""
	if e.Verdict != NoVerdict {
		verdict = fmt.Sprintf(" verdict=%d", e.Verdict)
	}
	qid := ""
	if e.QID != 0 {
		qid = fmt.Sprintf(" qid=%d", e.QID)
	}
	fp := ""
	if e.FP != 0 {
		fp = fmt.Sprintf(" fp=%016x", e.FP)
	}
	reason := ""
	if e.Reason != ReasonNone {
		reason = " reason=" + e.Reason.String()
	}
	return fmt.Sprintf("%12.6fs %-12s%s%s%s%s%s value=%g aux=%g",
		float64(e.At)/1e9, e.Kind.String(), reason, class, verdict, qid, fp,
		e.Value, e.Aux)
}

// slot is one ring cell. Every field is an atomic word: writers publish with
// plain atomic stores, drains copy between two pub reads, and the race
// detector sees only atomic access.
type slot struct {
	pub  atomic.Uint64 // 0 while being written, else shard position+1
	at   atomic.Int64
	qid  atomic.Int64
	fp   atomic.Uint64
	meta atomic.Uint64 // kind | reason<<8 | verdict<<16 | class<<32
	val  atomic.Uint64 // Value float bits
	aux  atomic.Uint64 // Aux float bits
}

//dbwlm:hotpath
func packMeta(e *Event) uint64 {
	return uint64(e.Kind) | uint64(e.Reason)<<8 | uint64(e.Verdict)<<16 |
		uint64(uint32(e.Class))<<32
}

func unpackMeta(m uint64, e *Event) {
	e.Kind = Kind(m & 0xFF)
	e.Reason = Reason(m >> 8 & 0xFF)
	e.Verdict = uint8(m >> 16 & 0xFF)
	e.Class = int32(uint32(m >> 32))
}

// ringShard is one writer stripe: a private cursor on its own cache line and
// a fixed slot array. Writers claim positions with a fetch-add and wrap.
type ringShard struct {
	cursor atomic.Uint64
	_      [120]byte
	slots  []slot
}

// Recorder is the flight recorder: a sharded ring of fixed total capacity.
// A nil *Recorder is valid and records nothing — the disabled state is the
// zero value of a pointer field, and every method nil-checks the receiver.
type Recorder struct {
	shards []ringShard
	smask  uint32
	lmask  uint64 // per-shard slot-index mask
}

// NewRecorder builds a recorder retaining ~capacity events (rounded so each
// of the GOMAXPROCS-derived shards holds a power-of-two slot count, minimum
// 64). capacity <= 0 selects the 16384-event default.
func NewRecorder(capacity int) *Recorder {
	return NewRecorderShards(capacity, 2*runtime.GOMAXPROCS(0))
}

// NewRecorderShards builds a recorder with an explicit writer-stripe count
// (rounded up to a power of two, minimum 2). Cap() depends on the shard
// count, so tests that pin an exact capacity — golden files — construct
// through here instead of the GOMAXPROCS-derived default.
func NewRecorderShards(capacity, shards int) *Recorder {
	if capacity <= 0 {
		capacity = 16384
	}
	nsh := shards
	if nsh < 2 {
		nsh = 2
	}
	nsh = 1 << bits.Len(uint(nsh-1))
	per := capacity / nsh
	if per < 64 {
		per = 64
	}
	per = 1 << bits.Len(uint(per-1))
	r := &Recorder{shards: make([]ringShard, nsh), smask: uint32(nsh - 1),
		lmask: uint64(per - 1)}
	for i := range r.shards {
		r.shards[i].slots = make([]slot, per)
	}
	return r
}

// Cap reports the total slot capacity.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.shards) * int(r.lmask+1)
}

// Record stores one event. Safe on a nil receiver (drops the event); never
// blocks, never allocates — a cursor fetch-add and seven atomic word stores
// on a shard chosen from the per-thread fast random state.
//
//dbwlm:hotpath
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	sh := &r.shards[rand.Uint32()&r.smask]
	pos := sh.cursor.Add(1) - 1
	s := &sh.slots[pos&r.lmask]
	s.pub.Store(0)
	s.at.Store(e.At)
	s.qid.Store(e.QID)
	s.fp.Store(e.FP)
	s.meta.Store(packMeta(&e))
	s.val.Store(math.Float64bits(e.Value))
	s.aux.Store(math.Float64bits(e.Aux))
	s.pub.Store(pos + 1)
}

// Recorded reports the total number of events ever recorded, including any
// since overwritten.
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	var sum uint64
	for i := range r.shards {
		sum += r.shards[i].cursor.Load()
	}
	return sum
}

// Overwritten reports how many events the ring has discarded to stay fixed
// size.
func (r *Recorder) Overwritten() uint64 {
	if r == nil {
		return 0
	}
	var sum uint64
	size := r.lmask + 1
	for i := range r.shards {
		if c := r.shards[i].cursor.Load(); c > size {
			sum += c - size
		}
	}
	return sum
}

// Filter selects events on drain. Start from MatchAll and override fields —
// the Class and Verdict sentinels for "any" are -1, not the zero value,
// because class 0 and verdict 0 are real values. A literal zero-value
// Filter{} is normalized to MatchAll by Tail.
type Filter struct {
	Kind    Kind  // KindAny matches all
	Class   int32 // NoClass/-1 matches all; set exact class ID otherwise
	Verdict int16 // -1 matches all; else the rt.Verdict numeric value
	QID     int64 // 0 matches all
	// MinAt drops events older than this timestamp (same clock as
	// Event.At); 0 matches all. The /trace?since= time-range filter.
	MinAt int64
}

// MatchAll is the drain-everything filter.
var MatchAll = Filter{Class: NoClass, Verdict: -1}

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
// (n <= 0 keeps every retained match). Draining is wait-free with respect to
// writers: a slot whose publish tag moves mid-copy is skipped, so a drain
// under full write load returns a consistent — if slightly stale — view.
func (r *Recorder) Tail(n int, f Filter) []Event {
	if r == nil {
		return nil
	}
	if f.Class == 0 && f.Verdict == 0 && f.Kind == KindAny && f.QID == 0 && f.MinAt == 0 {
		// A literal zero-value Filter means "everything"; normalize the
		// class/verdict sentinels so class 0 / verdict 0 are not singled out.
		f = MatchAll
	}
	var out []Event
	var e Event
	for i := range r.shards {
		sh := &r.shards[i]
		limit := sh.cursor.Load()
		if limit > r.lmask+1 {
			limit = r.lmask + 1
		}
		for j := uint64(0); j < limit; j++ {
			s := &sh.slots[j]
			p1 := s.pub.Load()
			if p1 == 0 {
				continue
			}
			e.At = s.at.Load()
			e.QID = s.qid.Load()
			e.FP = s.fp.Load()
			unpackMeta(s.meta.Load(), &e)
			e.Value = math.Float64frombits(s.val.Load())
			e.Aux = math.Float64frombits(s.aux.Load())
			if s.pub.Load() != p1 {
				continue // overwritten mid-copy
			}
			e.Seq = p1
			if f.match(&e) {
				out = append(out, e)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].At != out[b].At {
			return out[a].At < out[b].At
		}
		return out[a].Seq < out[b].Seq
	})
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}
