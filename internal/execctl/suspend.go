package execctl

import (
	"math"

	"dbwlm/internal/engine"
	"dbwlm/internal/sim"
)

// SuspendChoice selects a per-operator suspend strategy in the
// Chandramouli et al. [10] model.
type SuspendChoice int

// Per-operator suspend strategies.
const (
	ChoiceDumpState SuspendChoice = iota
	ChoiceGoBack
)

// OpSuspendCost describes one plan operator to the suspend-plan optimizer.
type OpSuspendCost struct {
	// StateMB is the operator state DumpState must write (and resume must
	// read back).
	StateMB float64
	// RedoSeconds is the work GoBack re-executes at resume (work done since
	// the operator's last asynchronous checkpoint).
	RedoSeconds float64
}

// SuspendPlan is the optimizer's result.
type SuspendPlan struct {
	Choices        []SuspendChoice
	SuspendSeconds float64
	ResumeSeconds  float64
}

// Total reports suspend + resume overhead.
func (p SuspendPlan) Total() float64 { return p.SuspendSeconds + p.ResumeSeconds }

// OptimalSuspendPlan chooses DumpState or GoBack per operator to minimize
// total suspend+resume overhead subject to a suspend-cost constraint — the
// optimization Chandramouli et al. solve with mixed-integer programming
// (Section 4.2.3). Costs per operator:
//
//	DumpState: suspend = state/ioMBps, resume = state/ioMBps
//	GoBack:    suspend ≈ 0,            resume = redoSeconds
//
// Plans are small, so exhaustive search (n ≤ 20) returns the true optimum;
// larger plans fall back to a regret-greedy repair, which is exact here too
// because operator costs are independent.
func OptimalSuspendPlan(ops []OpSuspendCost, ioMBps, maxSuspendSeconds float64) SuspendPlan {
	n := len(ops)
	dumpSus := make([]float64, n)
	dumpRes := make([]float64, n)
	goRes := make([]float64, n)
	for i, op := range ops {
		dumpSus[i] = op.StateMB / ioMBps
		dumpRes[i] = op.StateMB / ioMBps
		goRes[i] = op.RedoSeconds
	}
	if n <= 20 {
		best := SuspendPlan{SuspendSeconds: math.Inf(1), ResumeSeconds: math.Inf(1)}
		bestTotal := math.Inf(1)
		feasible := false
		for mask := 0; mask < (1 << n); mask++ {
			var sus, res float64
			for i := 0; i < n; i++ {
				if mask&(1<<i) == 0 { // bit clear = DumpState
					sus += dumpSus[i]
					res += dumpRes[i]
				} else {
					res += goRes[i]
				}
			}
			if sus > maxSuspendSeconds {
				continue
			}
			if total := sus + res; total < bestTotal {
				bestTotal = total
				choices := make([]SuspendChoice, n)
				for i := 0; i < n; i++ {
					if mask&(1<<i) != 0 {
						choices[i] = ChoiceGoBack
					}
				}
				best = SuspendPlan{Choices: choices, SuspendSeconds: sus, ResumeSeconds: res}
				feasible = true
			}
		}
		if !feasible {
			// Constraint unsatisfiable even with all-GoBack: return it anyway.
			return allGoBack(n, goRes)
		}
		return best
	}
	// Greedy: start from each op's per-op optimum, then repair the suspend
	// constraint by flipping the Dump ops with the smallest total regret.
	plan := SuspendPlan{Choices: make([]SuspendChoice, n)}
	for i := 0; i < n; i++ {
		if dumpSus[i]+dumpRes[i] <= goRes[i] {
			plan.Choices[i] = ChoiceDumpState
			plan.SuspendSeconds += dumpSus[i]
			plan.ResumeSeconds += dumpRes[i]
		} else {
			plan.Choices[i] = ChoiceGoBack
			plan.ResumeSeconds += goRes[i]
		}
	}
	for plan.SuspendSeconds > maxSuspendSeconds {
		best := -1
		bestRegret := math.Inf(1)
		for i := 0; i < n; i++ {
			if plan.Choices[i] != ChoiceDumpState || dumpSus[i] <= 0 {
				continue
			}
			regret := (goRes[i] - dumpRes[i]) / dumpSus[i]
			if regret < bestRegret {
				best, bestRegret = i, regret
			}
		}
		if best < 0 {
			break
		}
		plan.Choices[best] = ChoiceGoBack
		plan.SuspendSeconds -= dumpSus[best]
		plan.ResumeSeconds += goRes[best] - dumpRes[best]
	}
	return plan
}

func allGoBack(n int, goRes []float64) SuspendPlan {
	p := SuspendPlan{Choices: make([]SuspendChoice, n)}
	for i := 0; i < n; i++ {
		p.Choices[i] = ChoiceGoBack
		p.ResumeSeconds += goRes[i]
	}
	return p
}

// Suspender suspends managed (low-priority, analytical) queries while a
// pressure condition holds and resumes them when it clears — the
// suspend-and-resume execution control of Table 3, row 4 ("quickly suspend
// long-running low-priority queries when high-priority queries arrive, and
// resume them when the high-priority work has completed").
type Suspender struct {
	Engine *engine.Engine
	// Pressure reports whether high-priority work currently needs the
	// server.
	Pressure func() bool
	// Strategy selects the engine-level suspend strategy.
	Strategy engine.SuspendStrategy
	// CheckEvery is the monitor period (default 250ms).
	CheckEvery sim.Duration
	// MaxConcurrentResume limits how many suspended queries resume per
	// sweep once pressure clears (default 1, avoids a resume stampede).
	MaxConcurrentResume int
	// Remaining, when set, estimates a query's remaining seconds (a query
	// progress indicator, Section 3.4). Queries predicted to finish within
	// SkipIfRemainingUnder seconds are left to complete instead of being
	// suspended — killing a nearly-done query frees almost nothing.
	Remaining func(id int64) (seconds float64, ok bool)
	// SkipIfRemainingUnder is the near-completion grace in seconds
	// (0 disables the progress check).
	SkipIfRemainingUnder float64

	managed  map[int64]*Managed
	sweepIDs []int64
	suspends int64
	resumes  int64
	started  bool
}

// NewSuspender returns a suspend-and-resume controller.
func NewSuspender(e *engine.Engine, pressure func() bool, strategy engine.SuspendStrategy) *Suspender {
	return &Suspender{Engine: e, Pressure: pressure, Strategy: strategy, managed: make(map[int64]*Managed)}
}

// Manage registers a query as suspendable.
func (s *Suspender) Manage(m *Managed) {
	s.managed[m.Query.ID] = m
	s.ensureStarted()
}

// Suspends reports how many suspends the controller has issued.
func (s *Suspender) Suspends() int64 { return s.suspends }

func (s *Suspender) ensureStarted() {
	if s.started {
		return
	}
	s.started = true
	every := s.CheckEvery
	if every <= 0 {
		every = 250 * sim.Millisecond
	}
	s.Engine.Sim().Every(every, func() bool {
		s.sweep()
		return true
	})
}

func (s *Suspender) sweep() {
	pressure := s.Pressure()
	resumed := 0
	maxResume := s.MaxConcurrentResume
	if maxResume <= 0 {
		maxResume = 1
	}
	s.sweepIDs = managedIDs(s.managed, s.sweepIDs)
	for _, id := range s.sweepIDs {
		q := s.Engine.Get(id)
		if q == nil || q.State().Terminal() {
			delete(s.managed, id)
			continue
		}
		switch {
		case pressure && q.State() == engine.StateRunning:
			if s.SkipIfRemainingUnder > 0 && s.Remaining != nil {
				if rem, ok := s.Remaining(id); ok && rem < s.SkipIfRemainingUnder {
					continue // nearly done: let it finish
				}
			}
			if err := s.Engine.Suspend(id, s.Strategy); err == nil {
				s.suspends++
			}
		case !pressure && q.State() == engine.StateSuspended && resumed < maxResume:
			if err := s.Engine.Resume(id); err == nil {
				s.resumes++
				resumed++
			}
		}
	}
}
