package metrics

import (
	"fmt"

	"dbwlm/internal/sim"
)

// EventKind distinguishes the monitor event streams the paper's commercial
// systems expose: activity events (per-query lifecycle), threshold-violation
// events (DB2 threshold monitor, SQL Server "CPU Threshold Exceeded"), and
// statistics events (aggregated interval snapshots).
type EventKind int

// Event kinds.
const (
	EventActivity EventKind = iota
	EventThresholdViolation
	EventStatistics
	EventControlAction
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventActivity:
		return "activity"
	case EventThresholdViolation:
		return "threshold-violation"
	case EventStatistics:
		return "statistics"
	case EventControlAction:
		return "control-action"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one monitor record.
type Event struct {
	Kind     EventKind
	At       sim.Time
	Query    int64  // query ID, 0 if not query-scoped
	Workload string // workload name, "" if not workload-scoped
	// What identifies the threshold or action (for example "ElapsedTime",
	// "kill", "throttle").
	What string
	// Detail is a human-readable elaboration.
	Detail string
	// Value carries the measured quantity that triggered the event, if any.
	Value float64
}

// Recorder collects monitor events with a bounded buffer; when the cap is
// reached the oldest events are discarded. It mirrors the event monitors of
// DB2 WLM and the extended events of SQL Server Resource Governor.
type Recorder struct {
	cap     int
	events  []Event
	dropped int64
	byKind  map[EventKind]int64
}

// NewRecorder returns a recorder that retains at most cap events.
func NewRecorder(cap int) *Recorder {
	if cap <= 0 {
		cap = 4096
	}
	return &Recorder{cap: cap, byKind: make(map[EventKind]int64)}
}

// Record appends an event.
func (r *Recorder) Record(e Event) {
	r.byKind[e.Kind]++
	if len(r.events) >= r.cap {
		copy(r.events, r.events[1:])
		r.events = r.events[:len(r.events)-1]
		r.dropped++
	}
	r.events = append(r.events, e)
}
