// Package engine implements the simulated DBMS execution engine that every
// workload-management technique in this repository controls. It models the
// phenomena the paper's techniques exist to manage: CPU/memory/IO contention,
// a thrashing knee past the optimal multiprogramming level (Section 3.2,
// refs [7][16][27]), lock conflicts and the conflict-ratio metric (Moenkeberg
// & Weikum), priority-weighted resource shares, throttling, kill, and
// suspend-and-resume with checkpoint strategies (Chandramouli et al.).
//
// The engine runs on a deterministic discrete-event simulator: execution
// advances in fixed quanta of virtual time, and within each quantum CPU and
// IO bandwidth are divided among runnable queries in proportion to their
// priority weights.
//
//dbwlm:deterministic
package engine

import (
	"fmt"

	"dbwlm/internal/sim"
)

// State is a query's lifecycle state inside the engine.
type State int

// Query states. Queueing happens outside the engine (in the workload
// manager); the engine only knows about work that was dispatched to it.
const (
	StateRunning    State = iota
	StateBlocked          // waiting for a lock
	StateSuspending       // writing suspend state to disk
	StateSuspended
	StateDone
	StateKilled
	StateDeadlocked
)

// String names the state.
func (s State) String() string {
	names := []string{"running", "blocked", "suspending", "suspended", "done", "killed", "deadlocked"}
	if int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateKilled || s == StateDeadlocked
}

// Outcome reports how a query left the engine.
type Outcome int

// Outcomes.
const (
	OutcomeCompleted Outcome = iota
	OutcomeKilled
	OutcomeDeadlocked
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeCompleted:
		return "completed"
	case OutcomeKilled:
		return "killed"
	case OutcomeDeadlocked:
		return "deadlocked"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// LockReq is one lock a transactional request acquires during its run.
// AtProgress in [0, 1) states at which fraction of the request's work the
// lock is needed; locks are acquired in slice order and all held until the
// request leaves the engine (strict two-phase locking).
type LockReq struct {
	Key        int
	Exclusive  bool
	AtProgress float64
}

// QuerySpec is the engine-facing description of a request: the true work it
// must perform. The workload layer pairs it with (possibly wrong) optimizer
// estimates.
type QuerySpec struct {
	// CPUWork is the total CPU demand in core-seconds.
	CPUWork float64
	// IOWork is the total IO demand in megabytes.
	IOWork float64
	// MemMB is the working memory held for the duration of the run.
	MemMB float64
	// Parallelism is the maximum number of cores the query can use at once
	// (intra-query parallelism). Zero means 1.
	Parallelism float64
	// Rows is the number of rows the query will return.
	Rows int64
	// Locks are acquired during the run (transactions only).
	Locks []LockReq
	// StateMB is the size of checkpointable operator state; it sets the
	// DumpState suspend/resume IO cost.
	StateMB float64
	// CheckpointEvery is the progress-fraction interval between
	// asynchronous checkpoints (default 0.1 when zero). GoBack suspension
	// reverts to the latest checkpoint.
	CheckpointEvery float64
}

func (s QuerySpec) parallelism() float64 {
	if s.Parallelism <= 0 {
		return 1
	}
	return s.Parallelism
}

func (s QuerySpec) checkpointEvery() float64 {
	if s.CheckpointEvery <= 0 {
		return 0.1
	}
	return s.CheckpointEvery
}

// Query is the engine-side runtime state of one request.
type Query struct {
	ID   int64
	Spec QuerySpec
	// Weight is the priority weight used for proportional resource shares.
	Weight float64
	// Throttle is the self-imposed sleep fraction in [0, 1): the fraction
	// of each quantum the query spends sleeping (Parekh/Powley throttling).
	Throttle float64

	state State

	cpuDone float64
	ioDone  float64

	submitAt   sim.Time
	finishAt   sim.Time
	blockedFor sim.Duration // cumulative time spent lock-blocked
	suspended  sim.Duration // cumulative time spent suspended

	lastCheckpoint float64 // progress fraction of latest async checkpoint
	suspends       int

	nextLock   int   // index of the next LockReq to acquire
	held       []int // keys currently held
	waitingKey int   // key waited on when blocked (-1 otherwise)
	// heldBuf is held's first backing array: a transaction's one or two lock
	// keys fit, so holding them allocates nothing beyond the Query itself.
	heldBuf [2]int

	onFinish func(*Query, Outcome)
	// pendingResume is non-nil while a suspension dump is in flight.
	resumeProgressCPU float64
	resumeProgressIO  float64
	goBack            bool
}

// State reports the query's current lifecycle state.
func (q *Query) State() State { return q.state }

// Progress reports the fraction of total work completed, in [0, 1]. It is
// the minimum of CPU and IO completion fractions (a query must finish both).
func (q *Query) Progress() float64 {
	pc, pi := 1.0, 1.0
	if q.Spec.CPUWork > 0 {
		pc = q.cpuDone / q.Spec.CPUWork
	}
	if q.Spec.IOWork > 0 {
		pi = q.ioDone / q.Spec.IOWork
	}
	p := pc
	if pi < p {
		p = pi
	}
	if p > 1 {
		p = 1
	}
	return p
}

// RowsReturned reports rows produced so far (proportional to progress).
func (q *Query) RowsReturned() int64 {
	return int64(float64(q.Spec.Rows) * q.Progress())
}

// CPUDone reports completed CPU work, for progress estimators.
func (q *Query) CPUDone() float64 { return q.cpuDone }

// SubmittedAt reports when the query entered the engine.
func (q *Query) SubmittedAt() sim.Time { return q.submitAt }

// Suspends reports how many times the query has been suspended.
func (q *Query) Suspends() int { return q.suspends }
