package admission

import (
	"dbwlm/internal/engine"
	"dbwlm/internal/sim"
	"dbwlm/internal/workload"
)

// The ThroughputFeedback measurement window, its starting admission limit,
// the bounds of its search and its step per window.
const (
	feedbackInterval   = 2 * sim.Second
	feedbackInitialMPL = 12
	feedbackMinMPL     = 1
	feedbackMaxMPL     = 64
	feedbackStep       = 2
)

// ThroughputFeedback is the adaptive load controller of Heiss & Wagner [26]
// ("Adaptive Load Control in Transaction Processing Systems"): it measures
// transaction throughput over fixed intervals and hill-climbs the admission
// limit — if throughput rose since the previous interval, keep moving the
// MPL in the same direction; if it fell, reverse.
type ThroughputFeedback struct {
	Engine *engine.Engine

	mpl     int
	dir     int // +1 or -1
	lastThr float64
	count   int // completions this interval
	started bool
}

// Start begins the measurement loop; call once after construction.
func (c *ThroughputFeedback) Start() {
	if c.started {
		return
	}
	c.started = true
	c.mpl = feedbackInitialMPL
	c.dir = +1
	c.Engine.Sim().Every(feedbackInterval, func() bool {
		c.adjust()
		return true
	})
}

func (c *ThroughputFeedback) adjust() {
	thr := float64(c.count) / feedbackInterval.Seconds()
	c.count = 0
	// If throughput decreased, reverse direction (we overshot the knee).
	if thr < c.lastThr {
		c.dir = -c.dir
	}
	c.lastThr = thr
	c.mpl += c.dir * feedbackStep
	if c.mpl < feedbackMinMPL {
		c.mpl = feedbackMinMPL
		c.dir = +1
	}
	if c.mpl > feedbackMaxMPL {
		c.mpl = feedbackMaxMPL
		c.dir = -1
	}
}

// MPL reports the current dynamic admission limit.
func (c *ThroughputFeedback) MPL() int { return c.mpl }

// Name implements Controller.
func (c *ThroughputFeedback) Name() string { return "throughput-feedback" }

// Decide implements Controller.
func (c *ThroughputFeedback) Decide(_ *workload.Request, _ sim.Time) Decision {
	if !c.started {
		c.Start()
	}
	if c.Engine.InEngine() >= c.MPL() {
		return Queue
	}
	return Admit
}

// ObserveCompletion implements CompletionObserver.
func (c *ThroughputFeedback) ObserveCompletion(_ *workload.Request, _ float64, _ sim.Time) {
	c.count++
}
