package scheduling

import "math"

// log1p is a thin wrapper so queues.go stays readable.
func log1p(v float64) float64 { return math.Log1p(v) }

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

// ErlangC computes the probability an arriving job waits in an M/M/c queue
// with offered load a = lambda/mu and c servers.
func ErlangC(c int, a float64) float64 {
	if c <= 0 || a <= 0 {
		return 0
	}
	if a >= float64(c) {
		return 1
	}
	// Iterative Erlang B, then convert to Erlang C.
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := a / float64(c)
	return b / (1 - rho*(1-b))
}

// MMCResponseTime predicts the mean response time of an M/M/c queue with
// arrival rate lambda, per-server service rate mu, and c servers. +Inf when
// unstable.
//
//dbwlm:nolint deadcode -- registry row "analytic queueing models" runs only under tests; the ROADMAP item "Every registry row runs in a binary, or is deleted" wires it in or deletes it
func MMCResponseTime(lambda, mu float64, c int) float64 {
	if mu <= 0 || c <= 0 {
		return math.Inf(1)
	}
	a := lambda / mu
	if a >= float64(c) {
		return math.Inf(1)
	}
	pw := ErlangC(c, a)
	wq := pw / (float64(c)*mu - lambda)
	return wq + 1/mu
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
