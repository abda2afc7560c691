package scheduling

import "math"

// This file contains the analytic queueing models the schedulers consult to
// keep the system in a "normal state" (Section 3.3: queuing network models
// [35][40] applied to predict MPLs and response times).

// MM1ResponseTime predicts the mean response time of an M/M/1 queue with
// arrival rate lambda (req/s) and service rate mu (req/s). It returns +Inf
// when the queue is unstable (lambda >= mu).
func MM1ResponseTime(lambda, mu float64) float64 {
	if mu <= 0 || lambda >= mu {
		return math.Inf(1)
	}
	return 1 / (mu - lambda)
}

// PSResponseTime predicts mean response time under processor sharing with a
// capacity fraction f of a server whose full-speed mean service time is s
// seconds, at arrival rate lambda — the model the cost-limit planner uses to
// evaluate candidate allocations (an M/M/1-PS with scaled service rate).
func PSResponseTime(lambda, s, f float64) float64 {
	if f <= 0 || s <= 0 {
		return math.Inf(1)
	}
	mu := f / s
	return MM1ResponseTime(lambda, mu)
}
