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

// classBudget is one class's limit and running total.
type classBudget struct {
	name        string
	limit, used float64
	limited     bool
}

// classBudgets keeps per-class budgets, in no particular order, found by
// comparing names in a scan: a run names a handful of classes, so the scan
// beats hashing a name on every decision. A class gets a slot, unlimited,
// when it is first named.
type classBudgets []classBudget

func (b *classBudgets) get(class string) *classBudget {
	for i := range *b {
		if (*b)[i].name == class {
			return &(*b)[i]
		}
	}
	*b = append(*b, classBudget{name: class})
	return &(*b)[len(*b)-1]
}

func (b *classBudgets) setLimit(class string, limit float64) {
	c := b.get(class)
	c.limit, c.limited = limit, true
}

// ClassMPL enforces a per-class concurrency limit (Teradata workload
// throttles; DB2 concurrent-activity thresholds). Classes missing from the
// limits are unlimited.
type ClassMPL struct{ classes classBudgets }

// NewClassMPL returns a per-class MPL dispatcher.
func NewClassMPL(limits map[string]int) *ClassMPL {
	d := &ClassMPL{}
	for class, limit := range limits {
		d.classes.setLimit(class, float64(limit))
	}
	return d
}

// Name implements Dispatcher.
func (d *ClassMPL) Name() string { return "class-mpl" }

// CanDispatch implements Dispatcher.
func (d *ClassMPL) CanDispatch(it *Item, _ sim.Time) bool {
	c := d.classes.get(it.Class)
	return !c.limited || c.used < c.limit
}

// OnDispatch implements Dispatcher.
func (d *ClassMPL) OnDispatch(it *Item) { d.classes.get(it.Class).used++ }

// OnFinish implements Dispatcher.
func (d *ClassMPL) OnFinish(it *Item) { d.classes.get(it.Class).used-- }

// CostLimit releases requests while the total estimated cost (timerons) of
// running requests in the item's class stays under the class's cost limit —
// the release rule of Niu et al.'s query scheduler [60]: "the total costs of
// executing requests should not exceed the system's acceptable cost limits".
// Classes missing from the limits (max total running timerons) are
// unlimited.
type CostLimit struct{ classes classBudgets }

// NewCostLimit returns a cost-limit dispatcher.
func NewCostLimit(limits map[string]float64) *CostLimit {
	d := &CostLimit{}
	for class, limit := range limits {
		d.classes.setLimit(class, limit)
	}
	return d
}

// Name implements Dispatcher.
func (d *CostLimit) Name() string { return "cost-limit" }

// CanDispatch implements Dispatcher: a class with at least one free slot of
// cost may always run one request (so a single over-limit query is not
// starved forever).
func (d *CostLimit) CanDispatch(it *Item, _ sim.Time) bool {
	c := d.classes.get(it.Class)
	return !c.limited || c.used == 0 || c.used+it.Req.Est.Timerons <= c.limit
}

// OnDispatch implements Dispatcher.
func (d *CostLimit) OnDispatch(it *Item) { d.classes.get(it.Class).used += it.Req.Est.Timerons }

// OnFinish implements Dispatcher.
func (d *CostLimit) OnFinish(it *Item) {
	c := d.classes.get(it.Class)
	c.used -= it.Req.Est.Timerons
	if c.used < 1e-9 {
		c.used = 0
	}
}

// SetLimit updates a class's cost limit (the planner's effector).
func (d *CostLimit) SetLimit(class string, limit float64) { d.classes.setLimit(class, limit) }

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
