package execctl

import (
	"math"

	"dbwlm/internal/engine"
	"dbwlm/internal/learn"
	"dbwlm/internal/sim"
)

// The controllers' gains and steps.
const (
	// piKp and piKi are the PIController's proportional and integral gains.
	piKp, piKi = 0.5, 0.3
	// stepInitial is the StepController's first adjustment; the step
	// halves on every direction change down to stepMin.
	stepInitial, stepMin = 0.2, 0.01
	// blackBoxMinSamples is the number of observations before the
	// BlackBoxController's model engages.
	blackBoxMinSamples = 4
	// throttleTarget is every controller's minimum acceptable perfRatio:
	// the production class must keep 95% of its baseline performance.
	throttleTarget = 0.95
)

// The Throttler's control interval and interrupt horizon.
const (
	// throttlePeriod is the Throttler's control interval.
	throttlePeriod = sim.Second
	// interruptWindow is the horizon over which an interrupt pause is
	// sized: pause length = amount × window.
	interruptWindow = 8 * sim.Second
)

// AmountController computes the amount of throttling (a sleep fraction in
// [0, 1)) from an observed production-performance signal. Implementations
// are the three controller designs of the throttling literature: the
// Proportional-Integral controller of Parekh et al. [64], and the simple
// step and black-box model controllers of Powley et al. [65][66].
type AmountController interface {
	Name() string
	// Update consumes the latest measurement of the protected (production)
	// class's performance degradation — observed/baseline, 1 means no
	// degradation — and returns the new throttle fraction for the managed
	// work.
	Update(perfRatio float64) float64
}

// PIController is the classic discrete PI loop of Parekh et al.: the error
// is the gap between the performance-degradation target and the observed
// ratio, and the control output (sleep fraction) accumulates the integral
// term. Parekh et al. assume an approximately linear relationship between
// throttle amount and production performance, which the engine's
// proportional-share model satisfies.
type PIController struct {
	integral float64
	output   float64
}

// Name implements AmountController.
func (c *PIController) Name() string { return "pi" }

// Update implements AmountController.
func (c *PIController) Update(perfRatio float64) float64 {
	// Positive error = production below target = throttle more.
	err := throttleTarget - perfRatio
	c.integral += err
	// Anti-windup: clamp the integral so output can recover.
	if c.integral > 3 {
		c.integral = 3
	}
	if c.integral < -3 {
		c.integral = -3
	}
	c.output = piKp*err + piKi*c.integral
	if c.output < 0 {
		c.output = 0
	}
	if c.output > 0.95 {
		c.output = 0.95
	}
	return c.output
}

// StepController is Powley et al.'s "simple controller": a diminishing step
// function that raises the throttle while the goal is violated and lowers it
// when met, halving the step on every direction change.
type StepController struct {
	step    float64
	lastDir int
	output  float64
}

// Name implements AmountController.
func (c *StepController) Name() string { return "step" }

// Update implements AmountController.
func (c *StepController) Update(perfRatio float64) float64 {
	if c.step == 0 {
		c.step = stepInitial
	}
	dir := -1
	if perfRatio < throttleTarget {
		dir = +1 // violated: throttle more
	}
	if c.lastDir != 0 && dir != c.lastDir {
		c.step /= 2
		if c.step < stepMin {
			c.step = stepMin
		}
	}
	c.lastDir = dir
	c.output += float64(dir) * c.step
	if c.output < 0 {
		c.output = 0
	}
	if c.output > 0.95 {
		c.output = 0.95
	}
	return c.output
}

// BlackBoxController is Powley et al.'s model-based controller: it fits a
// linear model perfRatio = a + b·throttle from observed (throttle, ratio)
// pairs and jumps straight to the throttle predicted to achieve the target.
// Until enough observations exist it behaves like a step controller.
type BlackBoxController struct {
	warmup  StepController
	samples []learn.RegSample
	output  float64
}

// Name implements AmountController.
func (c *BlackBoxController) Name() string { return "black-box" }

// Update implements AmountController.
func (c *BlackBoxController) Update(perfRatio float64) float64 {
	c.samples = append(c.samples, learn.RegSample{Features: []float64{c.output}, Value: perfRatio})
	const maxSamples = 64
	if len(c.samples) > maxSamples {
		c.samples = c.samples[1:]
	}
	if len(c.samples) < blackBoxMinSamples {
		c.output = c.warmup.Update(perfRatio)
		return c.output
	}
	lr := learn.TrainLinReg(c.samples)
	coef := lr.Coefficients()
	a, b := coef[0], coef[1]
	if math.Abs(b) < 1e-6 {
		// Throttle has no observable effect yet; probe upward gently.
		c.output = math.Min(0.95, c.output+0.05)
		return c.output
	}
	// Solve target = a + b·u for u.
	u := (throttleTarget - a) / b
	if math.IsNaN(u) || math.IsInf(u, 0) {
		return c.output
	}
	if u < 0 {
		u = 0
	}
	if u > 0.95 {
		u = 0.95
	}
	c.output = u
	return c.output
}

// ThrottleMethod is how a computed amount of throttling is imposed on a
// running request (Powley et al.): constant throttling spreads many short
// pauses evenly across the run; interrupt throttling takes one contiguous
// pause whose length is set by the amount.
type ThrottleMethod int

// Throttle methods.
const (
	MethodConstant ThrottleMethod = iota
	MethodInterrupt
)

// String names the method.
func (m ThrottleMethod) String() string {
	if m == MethodConstant {
		return "constant"
	}
	return "interrupt"
}

// Throttler closes the loop: it measures the protected class's performance
// every period, asks the AmountController for the sleep fraction, and
// applies it to all managed queries with the configured method.
type Throttler struct {
	Engine *engine.Engine
	// PerfRatio measures the protected class's current performance over its
	// baseline (1 = unimpaired).
	PerfRatio func() float64
	// Controller computes the amount of throttling.
	Controller AmountController
	// Method selects constant or interrupt throttling.
	Method ThrottleMethod

	managed managed
	amount  float64
}

// NewThrottler builds the loop; call Manage for each query to throttle.
func NewThrottler(e *engine.Engine, perf func() float64, ctrl AmountController, method ThrottleMethod) *Throttler {
	return &Throttler{
		Engine: e, PerfRatio: perf, Controller: ctrl, Method: method,
	}
}

// Manage registers the query with the given ID for throttling.
func (t *Throttler) Manage(id int64) {
	t.managed.add(id, t, t.Engine, throttlePeriod)
}

// Amount reports the current sleep fraction.
func (t *Throttler) Amount() float64 { return t.amount }

func (t *Throttler) sweep() {
	t.amount = t.Controller.Update(t.PerfRatio())
	now := t.Engine.Now()
	t.managed.each(t.Engine, func(q *engine.Query, m *managedQuery) bool {
		id := q.ID
		switch t.Method {
		case MethodConstant:
			_ = t.Engine.SetThrottle(id, t.amount)
		case MethodInterrupt:
			if now < m.nextPause {
				return true // current pause/run cycle still in progress
			}
			if t.amount <= 0.01 {
				_ = t.Engine.SetThrottle(id, 0)
				return true
			}
			// One contiguous pause of amount × window, then a free run for
			// the rest of the window — pause and run alternate so the duty
			// cycle equals the amount.
			pause := sim.Duration(float64(interruptWindow) * t.amount)
			m.nextPause = now.Add(interruptWindow)
			_ = t.Engine.SetThrottle(id, 0.95)
			t.Engine.Sim().Schedule(pause, func() {
				if q := t.Engine.Get(id); q != nil && !q.State().Terminal() {
					_ = t.Engine.SetThrottle(id, 0)
				}
			})
		}
		return true
	})
}
