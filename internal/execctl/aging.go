// Package execctl implements the execution-control class of the taxonomy
// (Section 3.4, Table 3): query reprioritization — priority aging and
// policy-driven dynamic resource allocation (economic models, Boughton et
// al. [4], Zhang et al. [78]); query cancellation — kill and
// kill-and-resubmit (Krompass et al. [39]); and request suspension — PI,
// step, and black-box throttling controllers (Parekh et al. [64], Powley et
// al. [65][66]) and query suspend-and-resume with optimal suspend-plan
// selection (Chandramouli et al. [10]).
package execctl

import (
	"slices"

	"dbwlm/internal/engine"
	"dbwlm/internal/obsv"
	"dbwlm/internal/sim"
)

// Managed couples an engine query with the workload-manager context the
// controllers act on.
type Managed struct {
	Query *engine.Query
	Class string
	// Tier is the current priority-aging tier (0 = top).
	Tier int
	// IdealSeconds is the query's stand-alone runtime (velocity basis).
	IdealSeconds float64
}

// managedIDs returns the controller's managed query IDs in ascending order.
// Controller sweeps must not iterate the managed map directly: sweep actions
// (kill, suspend, resume, throttle) are order-sensitive, so a map-order walk
// would make runs nondeterministic.
func managedIDs(m map[int64]*Managed, scratch []int64) []int64 {
	ids := scratch[:0]
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Ager implements priority aging (Table 3, row 1; DB2 service subclasses):
// when a managed query's elapsed time or returned rows exceed the trigger
// for its current tier, the query is remapped to the next lower tier and its
// resource-access weight reduced.
type Ager struct {
	Engine *engine.Engine
	// Weights is the tier ladder, highest first (for example 16, 4, 1).
	Weights []float64
	// DemoteAfterSeconds[i] is the elapsed-time trigger from tier i to
	// tier i+1 (cumulative since submission).
	DemoteAfterSeconds []float64
	// RowsTrigger demotes one tier each time rows returned cross
	// (tier+1) × RowsTrigger (0 disables).
	RowsTrigger int64
	// CheckEvery is the monitor period (default 500ms).
	CheckEvery sim.Duration
	// Flight, when non-nil, records each demotion in the flight recorder
	// (KindCtlAction, reason reprioritize, Value = new tier).
	Flight *obsv.Recorder

	managed   map[int64]*Managed
	sweepIDs  []int64
	demotions int64
	started   bool
}

// NewAger returns an aging controller over the engine.
func NewAger(e *engine.Engine, weights []float64, demoteAfter []float64) *Ager {
	return &Ager{
		Engine:             e,
		Weights:            weights,
		DemoteAfterSeconds: demoteAfter,
		managed:            make(map[int64]*Managed),
	}
}

// Manage registers a query with the ager at tier 0 and applies the top-tier
// weight.
func (a *Ager) Manage(m *Managed) {
	a.managed[m.Query.ID] = m
	m.Tier = 0
	if len(a.Weights) > 0 {
		_ = a.Engine.SetWeight(m.Query.ID, a.Weights[0])
	}
	a.ensureStarted()
}

// Demotions reports how many tier demotions have occurred.
func (a *Ager) Demotions() int64 { return a.demotions }

func (a *Ager) ensureStarted() {
	if a.started {
		return
	}
	a.started = true
	every := a.CheckEvery
	if every <= 0 {
		every = 500 * sim.Millisecond
	}
	a.Engine.Sim().Every(every, func() bool {
		a.sweep()
		return true
	})
}

func (a *Ager) sweep() {
	now := a.Engine.Now()
	a.sweepIDs = managedIDs(a.managed, a.sweepIDs)
	for _, id := range a.sweepIDs {
		m := a.managed[id]
		q := a.Engine.Get(id)
		if q == nil || q.State().Terminal() {
			delete(a.managed, id)
			continue
		}
		if m.Tier >= len(a.Weights)-1 {
			continue // already at the bottom tier
		}
		elapsed := now.Sub(q.SubmittedAt()).Seconds()
		demote := m.Tier < len(a.DemoteAfterSeconds) && elapsed > a.DemoteAfterSeconds[m.Tier] ||
			a.RowsTrigger > 0 && q.RowsReturned() > int64(m.Tier+1)*a.RowsTrigger
		if !demote {
			continue
		}
		m.Tier++
		a.demotions++
		_ = a.Engine.SetWeight(id, a.Weights[m.Tier])
		if a.Flight != nil {
			a.Flight.Record(obsv.Event{At: int64(now) * 1000, QID: id,
				Kind: obsv.KindCtlAction, Reason: obsv.ReasonReprioritize,
				Verdict: obsv.NoVerdict, Class: obsv.NoClass,
				Value: float64(m.Tier), Aux: a.Weights[m.Tier]})
		}
	}
}
