// Package execctl implements the execution-control class of the taxonomy
// (Section 3.4, Table 3): query reprioritization — priority aging and
// policy-driven dynamic resource allocation (economic models, Boughton et
// al. [4], Zhang et al. [78]); query cancellation — kill and
// kill-and-resubmit (Krompass et al. [39]); and request suspension — PI,
// step, and black-box throttling controllers (Parekh et al. [64], Powley et
// al. [65][66]) and query suspend-and-resume with optimal suspend-plan
// selection (Chandramouli et al. [10]).
//
// The Ager, Killer, Suspender and Throttler take over queries by engine
// query ID (Manage) and keep them in one list in ascending ID order with
// their per-query state. Each sweep looks every query up again with
// Engine.Get, acts on the queries in ID order, and drops the ones that have
// left the engine, so no controller holds a *engine.Query across events and
// no run depends on map order.
package execctl

import (
	"dbwlm/internal/engine"
	"dbwlm/internal/sim"
)

// ageCheckEvery is the Ager's monitor period.
const ageCheckEvery = 500 * sim.Millisecond

// Ager implements priority aging (Table 3, row 1; DB2 service subclasses):
// when a managed query's elapsed time exceeds the trigger for its current
// tier, the query is remapped to the next lower tier and its
// resource-access weight reduced.
type Ager struct {
	Engine *engine.Engine
	// Weights is the tier ladder, highest first (for example 16, 4, 1).
	Weights []float64
	// DemoteAfterSeconds[i] is the elapsed-time trigger from tier i to
	// tier i+1 (cumulative since submission).
	DemoteAfterSeconds []float64

	managed   managed
	demotions int64
}

// NewAger returns an aging controller over the engine.
func NewAger(e *engine.Engine, weights []float64, demoteAfter []float64) *Ager {
	return &Ager{
		Engine:             e,
		Weights:            weights,
		DemoteAfterSeconds: demoteAfter,
	}
}

// Manage registers the query with the given ID at tier 0 and applies the
// top-tier weight; a query registered again starts over at tier 0.
func (a *Ager) Manage(id int64) {
	a.managed.add(id, a, a.Engine, ageCheckEvery).tier = 0
	if len(a.Weights) > 0 {
		_ = a.Engine.SetWeight(id, a.Weights[0])
	}
}

// Demotions reports how many tier demotions have occurred.
func (a *Ager) Demotions() int64 { return a.demotions }

func (a *Ager) sweep() {
	now := a.Engine.Now()
	a.managed.each(a.Engine, func(q *engine.Query, m *managedQuery) bool {
		if m.tier >= len(a.Weights)-1 {
			return true // already at the bottom tier
		}
		elapsed := now.Sub(q.SubmittedAt()).Seconds()
		if !(m.tier < len(a.DemoteAfterSeconds) && elapsed > a.DemoteAfterSeconds[m.tier]) {
			return true
		}
		m.tier++
		a.demotions++
		_ = a.Engine.SetWeight(q.ID, a.Weights[m.tier])
		return true
	})
}
