package scheduling

import (
	"dbwlm/internal/engine"
	"dbwlm/internal/sim"
)

// Dispatcher decides whether the next queued item may be released to the
// engine — the load-control half of queue management (Section 3.3).
type Dispatcher interface {
	Name() string
	// CanDispatch reports whether it may be released now.
	CanDispatch(it *Item, now sim.Time) bool
	// OnDispatch records the release.
	OnDispatch(it *Item)
	// OnFinish records that a previously dispatched item left the engine.
	OnFinish(it *Item)
}

// Unlimited releases everything immediately (no scheduling).
type Unlimited struct{}

// Name implements Dispatcher.
func (Unlimited) Name() string { return "unlimited" }

// CanDispatch implements Dispatcher.
func (Unlimited) CanDispatch(*Item, sim.Time) bool { return true }

// OnDispatch implements Dispatcher.
func (Unlimited) OnDispatch(*Item) {}

// OnFinish implements Dispatcher.
func (Unlimited) OnFinish(*Item) {}

// MPL releases up to Max concurrent requests system-wide — the static
// threshold scheduling the commercial systems implement.
type MPL struct {
	Max     int
	running int
}

// Name implements Dispatcher.
func (d *MPL) Name() string { return "mpl" }

// CanDispatch implements Dispatcher.
func (d *MPL) CanDispatch(_ *Item, _ sim.Time) bool { return d.running < d.Max }

// OnDispatch implements Dispatcher.
func (d *MPL) OnDispatch(*Item) { d.running++ }

// OnFinish implements Dispatcher.
func (d *MPL) OnFinish(*Item) { d.running-- }

// ClassMPL enforces a per-class concurrency limit (Teradata workload
// throttles; DB2 concurrent-activity thresholds). Classes missing from
// Limits are unlimited.
type ClassMPL struct {
	Limits  map[string]int
	running map[string]int
}

// NewClassMPL returns a per-class MPL dispatcher.
func NewClassMPL(limits map[string]int) *ClassMPL {
	return &ClassMPL{Limits: limits, running: make(map[string]int)}
}

// Name implements Dispatcher.
func (d *ClassMPL) Name() string { return "class-mpl" }

// CanDispatch implements Dispatcher.
func (d *ClassMPL) CanDispatch(it *Item, _ sim.Time) bool {
	limit, ok := d.Limits[it.Class]
	if !ok {
		return true
	}
	return d.running[it.Class] < limit
}

// OnDispatch implements Dispatcher.
func (d *ClassMPL) OnDispatch(it *Item) { d.running[it.Class]++ }

// OnFinish implements Dispatcher.
func (d *ClassMPL) OnFinish(it *Item) { d.running[it.Class]-- }

// CostLimit releases requests while the total estimated cost (timerons) of
// running requests in the item's class stays under the class's cost limit —
// the release rule of Niu et al.'s query scheduler [60]: "the total costs of
// executing requests should not exceed the system's acceptable cost limits".
type CostLimit struct {
	// Limits maps class -> max total running timerons. Classes missing are
	// unlimited.
	Limits map[string]float64
	used   map[string]float64
}

// NewCostLimit returns a cost-limit dispatcher.
func NewCostLimit(limits map[string]float64) *CostLimit {
	return &CostLimit{Limits: limits, used: make(map[string]float64)}
}

// Name implements Dispatcher.
func (d *CostLimit) Name() string { return "cost-limit" }

// CanDispatch implements Dispatcher: a class with at least one free slot of
// cost may always run one request (so a single over-limit query is not
// starved forever).
func (d *CostLimit) CanDispatch(it *Item, _ sim.Time) bool {
	limit, ok := d.Limits[it.Class]
	if !ok {
		return true
	}
	used := d.used[it.Class]
	if used == 0 {
		return true // never starve an empty class
	}
	return used+it.Req.Est.Timerons <= limit
}

// OnDispatch implements Dispatcher.
func (d *CostLimit) OnDispatch(it *Item) { d.used[it.Class] += it.Req.Est.Timerons }

// OnFinish implements Dispatcher.
func (d *CostLimit) OnFinish(it *Item) {
	d.used[it.Class] -= it.Req.Est.Timerons
	if d.used[it.Class] < 1e-9 {
		d.used[it.Class] = 0
	}
}

// SetLimit updates a class's cost limit (the planner's effector).
func (d *CostLimit) SetLimit(class string, limit float64) { d.Limits[class] = limit }

// FeedbackMPL adapts a global MPL to hold mean response time near a target
// while keeping the engine utilized — external scheduling in the spirit of
// Schroeder et al. [69]: the lowest MPL that does not hurt throughput.
type FeedbackMPL struct {
	Engine *engine.Engine
	// TargetRT is the response-time goal in seconds.
	TargetRT float64
	// Interval is the adjustment period (default 2s).
	Interval sim.Duration
	// Min/Max bound the MPL (defaults 1 / 128).
	Min, Max int

	mpl     int
	running int
	respSum float64
	respN   int
	started bool
}

// Start begins the adjustment loop.
func (d *FeedbackMPL) Start() {
	if d.started {
		return
	}
	d.started = true
	if d.Interval <= 0 {
		d.Interval = 2 * sim.Second
	}
	if d.Min <= 0 {
		d.Min = 1
	}
	if d.Max <= 0 {
		d.Max = 128
	}
	if d.mpl == 0 {
		d.mpl = 8
	}
	d.Engine.Sim().Every(d.Interval, func() bool {
		d.adjust()
		return true
	})
}

func (d *FeedbackMPL) adjust() {
	if d.respN == 0 {
		return
	}
	meanRT := d.respSum / float64(d.respN)
	d.respSum, d.respN = 0, 0
	util := d.Engine.StatsNow().CPUUtilization
	switch {
	case meanRT > d.TargetRT:
		// Too slow: shed concurrency (multiplicative decrease).
		d.mpl = int(float64(d.mpl) * 0.75)
	case util > 0.9:
		// Meeting the target at high utilization: hold steady.
	default:
		// Headroom: admit more (additive increase).
		d.mpl += 2
	}
	if d.mpl < d.Min {
		d.mpl = d.Min
	}
	if d.mpl > d.Max {
		d.mpl = d.Max
	}
}

// ObserveResponse feeds a completed request's response time.
//
//dbwlm:nolint deadcode -- registry row "feedback MPL control" runs only under tests; the ROADMAP item "One feedback-MPL controller, on both clocks, with a model-based first guess" wires it in
func (d *FeedbackMPL) ObserveResponse(seconds float64) {
	d.respSum += seconds
	d.respN++
}

// MPL reports the current level.
func (d *FeedbackMPL) MPL() int {
	if d.mpl == 0 {
		return 8
	}
	return d.mpl
}

// Name implements Dispatcher.
func (d *FeedbackMPL) Name() string { return "feedback-mpl" }

// CanDispatch implements Dispatcher.
func (d *FeedbackMPL) CanDispatch(_ *Item, _ sim.Time) bool {
	if !d.started {
		d.Start()
	}
	return d.running < d.MPL()
}

// OnDispatch implements Dispatcher.
func (d *FeedbackMPL) OnDispatch(*Item) { d.running++ }

// OnFinish implements Dispatcher.
func (d *FeedbackMPL) OnFinish(*Item) { d.running-- }
