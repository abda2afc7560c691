package metrics

import (
	"fmt"
	"sort"

	"dbwlm/internal/sim"
)

// WorkloadStats aggregates the per-workload performance the paper's SLOs are
// written against: response times, execution velocity (ideal time ÷ observed
// time in system, Section 2.1), completion throughput, and control-action
// counts (queued, rejected, killed, suspended, throttled).
type WorkloadStats struct {
	Response *Histogram // seconds in system (queue + execution)
	Velocity *Histogram // ideal/actual, in (0, 1]
	Wait     *Histogram // seconds in wait queues

	Completed *Counter
	Rejected  *Counter
	Killed    *Counter
	Resubmits *Counter
	Suspends  *Counter
	Deadlocks *Counter

	Throughput *RateWindow

	firstArrival sim.Time
	lastDone     sim.Time
	haveArrival  bool
}

// NewWorkloadStats returns empty statistics; a Registry keys them by name.
func NewWorkloadStats() *WorkloadStats {
	return &WorkloadStats{
		Response:   NewHistogram(),
		Velocity:   NewHistogram(),
		Wait:       NewHistogram(),
		Completed:  &Counter{},
		Rejected:   &Counter{},
		Killed:     &Counter{},
		Resubmits:  &Counter{},
		Suspends:   &Counter{},
		Deadlocks:  &Counter{},
		Throughput: NewRateWindow(10 * sim.Second),
	}
}

// ObserveArrival notes a request arrival at time t.
func (s *WorkloadStats) ObserveArrival(t sim.Time) {
	if !s.haveArrival || t < s.firstArrival {
		s.firstArrival = t
		s.haveArrival = true
	}
}

// ObserveCompletion records a finished request: its response time, wait time,
// and execution velocity, at completion time t.
func (s *WorkloadStats) ObserveCompletion(t sim.Time, response, wait sim.Duration, velocity float64) {
	s.Response.Record(response.Seconds())
	s.Wait.Record(wait.Seconds())
	s.Velocity.Record(velocity)
	s.Completed.Inc()
	s.Throughput.Observe(t)
	if t > s.lastDone {
		s.lastDone = t
	}
}

// OverallThroughput reports completions per second between the first arrival
// and the last completion (0 if fewer than one completion).
func (s *WorkloadStats) OverallThroughput() float64 {
	if s.Completed.Value() == 0 || !s.haveArrival || s.lastDone <= s.firstArrival {
		return 0
	}
	return float64(s.Completed.Value()) / s.lastDone.Sub(s.firstArrival).Seconds()
}

// MeanVelocity reports the average execution velocity of completed requests.
func (s *WorkloadStats) MeanVelocity() float64 { return s.Velocity.Mean() }

// Registry holds WorkloadStats for every known workload plus a system-wide
// aggregate.
type Registry struct {
	workloads map[string]*WorkloadStats
	System    *WorkloadStats
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		workloads: make(map[string]*WorkloadStats),
		System:    NewWorkloadStats(),
	}
}

// Workload returns (creating on first use) the stats for the named workload.
func (r *Registry) Workload(name string) *WorkloadStats {
	if s, ok := r.workloads[name]; ok {
		return s
	}
	s := NewWorkloadStats()
	r.workloads[name] = s
	return s
}

// Names returns all workload names in sorted order.
func (r *Registry) Names() []string {
	names := make([]string, 0, len(r.workloads))
	for n := range r.workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Report renders a per-workload summary table.
func (r *Registry) Report() string {
	out := fmt.Sprintf("%-14s %8s %8s %9s %9s %9s %9s %7s %7s %7s\n",
		"workload", "done", "rej", "thr/s", "meanRT", "p95RT", "meanVel", "killed", "susp", "resub")
	for _, n := range r.Names() {
		s := r.workloads[n]
		out += fmt.Sprintf("%-14s %8d %8d %9.2f %9.4f %9.4f %9.3f %7d %7d %7d\n",
			n, s.Completed.Value(), s.Rejected.Value(), s.OverallThroughput(),
			s.Response.Mean(), s.Response.Percentile(95), s.MeanVelocity(),
			s.Killed.Value(), s.Suspends.Value(), s.Resubmits.Value())
	}
	return out
}
