package policy

import "fmt"

// ThresholdKind enumerates the execution thresholds of DB2 WLM (Section
// 4.1.1.B): elapsed time, estimated cost, rows returned, and concurrency,
// plus the CPU-time threshold SQL Server and Teradata monitor.
type ThresholdKind int

// Threshold kinds.
const (
	ThresholdElapsedTime ThresholdKind = iota
	ThresholdEstimatedCost
	ThresholdRowsReturned
	ThresholdConcurrency
	ThresholdCPUTime
)

// String names the threshold kind.
func (k ThresholdKind) String() string {
	names := []string{"ElapsedTime", "EstimatedCost", "RowsReturned", "Concurrency", "CPUTime"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("ThresholdKind(%d)", int(k))
}

// ThresholdAction is what happens when a threshold is violated (DB2's
// "collect data / stop execution / continue / queue" plus the priority-aging
// demotion the paper describes).
type ThresholdAction int

// Threshold actions.
const (
	// ActionCollect records the violation and continues.
	ActionCollect ThresholdAction = iota
	// ActionStop kills the offending request.
	ActionStop
	// ActionContinue explicitly continues (monitor-only).
	ActionContinue
	// ActionQueue re-queues the request (admission-time thresholds).
	ActionQueue
	// ActionDemote moves the request to a lower service level (priority aging).
	ActionDemote
	// ActionThrottle slows the offending request down.
	ActionThrottle
	// ActionSuspend takes the request off the server for later resumption.
	ActionSuspend
)

// String names the action.
func (a ThresholdAction) String() string {
	names := []string{"collect", "stop", "continue", "queue", "demote", "throttle", "suspend"}
	if int(a) < len(names) {
		return names[a]
	}
	return fmt.Sprintf("ThresholdAction(%d)", int(a))
}

// Threshold is one guard with its violation action.
type Threshold struct {
	Kind   ThresholdKind
	Limit  float64 // seconds, timerons, rows, or a count, by kind
	Action ThresholdAction
}

// String renders the threshold.
func (t Threshold) String() string {
	return fmt.Sprintf("%v > %g -> %v", t.Kind, t.Limit, t.Action)
}
