package admission

import (
	"dbwlm/internal/engine"
	"dbwlm/internal/sim"
	"dbwlm/internal/workload"
)

// The ThroughputFeedback measurement window and the least MPL it tries.
const (
	feedbackInterval = 2 * sim.Second
	feedbackMinMPL   = 1
)

// ThroughputFeedback is the adaptive load controller of Heiss & Wagner [26]
// ("Adaptive Load Control in Transaction Processing Systems"): it measures
// transaction throughput over fixed intervals and hill-climbs the admission
// limit — if throughput rose since the previous interval, keep moving the
// MPL in the same direction; if it fell, reverse.
type ThroughputFeedback struct {
	Engine *engine.Engine
	// InitialMPL is the starting admission limit (default 8).
	InitialMPL int
	// MaxMPL bounds the search from above (default 256).
	MaxMPL int
	// Step is the MPL adjustment per interval (default 2).
	Step int

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
	if c.InitialMPL <= 0 {
		c.InitialMPL = 8
	}
	if c.MaxMPL <= 0 {
		c.MaxMPL = 256
	}
	if c.Step <= 0 {
		c.Step = 2
	}
	c.mpl = c.InitialMPL
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
	c.mpl += c.dir * c.Step
	if c.mpl < feedbackMinMPL {
		c.mpl = feedbackMinMPL
		c.dir = +1
	}
	if c.mpl > c.MaxMPL {
		c.mpl = c.MaxMPL
		c.dir = -1
	}
}

// MPL reports the current dynamic admission limit.
func (c *ThroughputFeedback) MPL() int {
	if c.mpl == 0 {
		return c.InitialMPL
	}
	return c.mpl
}

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
