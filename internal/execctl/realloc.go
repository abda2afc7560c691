package execctl

import (
	"math"

	"dbwlm/internal/engine"
	"dbwlm/internal/scheduling"
	"dbwlm/internal/sim"
)

// ClassImportance describes a service class to the economic reallocator.
type ClassImportance struct {
	Name       string
	Importance float64
}

// EconomicReallocator implements policy-driven dynamic resource allocation
// (Table 3, row 2; Boughton et al. [4], Zhang et al. CASCON'08 [78]): every
// period each class "bids" for resources in proportion to its business
// importance times its unmet utility, and running queries' weights are set
// from the auction result. Classes meeting their goals bid little, freeing
// resources for classes in trouble — importance policy enforced by an
// economic model rather than fixed priorities.
type EconomicReallocator struct {
	Engine *engine.Engine
	// Classes are the bidding classes; their query sets are disjoint. The
	// list is fixed once Start has run.
	Classes []ClassImportance
	// Attainment reports a class's current SLO attainment ratio (>= 1 met).
	Attainment func(class string) float64
	// QueriesOf lists the engine queries currently attributed to a class.
	QueriesOf func(class string) []int64
	// Period is the reallocation interval (default 1s).
	Period sim.Duration
	// TotalWeight is the weight budget distributed across classes
	// (default 100).
	TotalWeight float64

	// bids and weights are the last auction's bids and class weights, by
	// position in Classes.
	bids    []float64
	weights []float64
	rounds  int64
	started bool
}

// Start begins the auction loop.
func (r *EconomicReallocator) Start() {
	if r.started {
		return
	}
	r.started = true
	period := r.Period
	if period <= 0 {
		period = sim.Second
	}
	r.bids = make([]float64, len(r.Classes))
	r.weights = make([]float64, len(r.Classes))
	r.Engine.Sim().Every(period, func() bool {
		r.reallocate()
		return true
	})
}

// WeightFor returns the per-query weight a newly dispatched query of the
// class should run at, given the class's current population — so arrivals
// between auctions inherit the auction outcome instead of a default weight.
func (r *EconomicReallocator) WeightFor(class string, population int) float64 {
	var w float64
	for i, c := range r.Classes {
		if c.Name == class && i < len(r.weights) {
			w = r.weights[i]
			break
		}
	}
	if w <= 0 {
		return 1
	}
	if population < 1 {
		population = 1
	}
	per := w / float64(population)
	if per < 0.01 {
		per = 0.01
	}
	return per
}

func (r *EconomicReallocator) reallocate() {
	r.rounds++
	total := r.TotalWeight
	if total <= 0 {
		total = 100
	}
	// Bids: importance × (1 − utility(attainment)), floored so that a class
	// meeting its goal retains a trickle.
	var sum float64
	for i, c := range r.Classes {
		att := r.Attainment(c.Name)
		bid := c.Importance * (1 - scheduling.Utility(att))
		if bid < 0.02*c.Importance {
			bid = 0.02 * c.Importance
		}
		r.bids[i] = bid
		sum += bid
	}
	if sum <= 0 {
		return
	}
	// The classes' query sets are disjoint, so applying the weights in
	// Classes order sets what any other order would.
	for i, c := range r.Classes {
		w := total * r.bids[i] / sum
		r.weights[i] = w
		ids := r.QueriesOf(c.Name)
		if len(ids) == 0 {
			continue
		}
		per := math.Max(0.01, w/float64(len(ids)))
		for _, id := range ids {
			_ = r.Engine.SetWeight(id, per)
		}
	}
}
