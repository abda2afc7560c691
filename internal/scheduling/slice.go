package scheduling

import (
	"dbwlm/internal/engine"
	"dbwlm/internal/sqlmini"
)

// This file implements the query-restructuring subclass of the scheduling
// taxonomy (Section 3.3): decompose a large query plan into a series of
// smaller sub-plans that execute in order and produce an equivalent result
// (Bruno et al., "Slicing Long-Running Queries" [6]; Meng et al. [54]).
// Each slice is scheduled as an independent unit, so short queries are never
// stuck behind the whole monster and the monster never monopolizes the
// server for its full duration.

// Slice is one schedulable stage of a restructured query.
type Slice struct {
	// Ops are the plan operators executed by this stage (post-order).
	Ops []*sqlmini.Operator
	// Spec is the engine work for the stage. Stage memory is the max
	// operator memory in the stage (stages run alone, pipelining only
	// within the stage).
	Spec engine.QuerySpec
}

// SlicePlan cuts a plan's post-order operator sequence into stages whose
// estimated cost does not exceed maxTimerons each (a stage always contains
// at least one operator, so an over-limit single operator becomes its own
// stage). The concatenation of stage work equals the plan's total work —
// restructuring changes scheduling, not the result.
//
//dbwlm:nolint deadcode -- registry row "plan slicing into sub-plans" runs only under tests; the ROADMAP item "Every registry row runs in a binary, or is deleted" wires it in or deletes it
func SlicePlan(plan *sqlmini.Plan, maxTimerons float64) []Slice {
	ops := plan.Operators()
	var out []Slice
	var cur Slice
	var curCost float64
	flush := func() {
		if len(cur.Ops) == 0 {
			return
		}
		out = append(out, cur)
		cur = Slice{}
		curCost = 0
	}
	for _, op := range ops {
		opCost := op.EstCPU*1000 + op.EstIO*10
		if len(cur.Ops) > 0 && curCost+opCost > maxTimerons {
			flush()
		}
		cur.Ops = append(cur.Ops, op)
		cur.Spec.CPUWork += op.EstCPU
		cur.Spec.IOWork += op.EstIO
		if op.EstMem > cur.Spec.MemMB {
			cur.Spec.MemMB = op.EstMem
		}
		cur.Spec.StateMB += op.StateMB
		curCost += opCost
	}
	flush()
	// Intermediate results between stages are materialized: charge each
	// stage boundary a small extra IO for the handoff.
	for i := range out {
		if i > 0 {
			out[i].Spec.IOWork += out[i-1].Spec.StateMB
		}
	}
	return out
}

// RunSliced executes the slices sequentially on the engine, each as its own
// query with the given weight, invoking onDone with the final outcome. If
// any slice is killed or deadlocked the chain stops with that outcome.
func RunSliced(e *engine.Engine, slices []Slice, weight float64, parallelism float64,
	onDone func(outcome engine.Outcome)) {
	if len(slices) == 0 {
		if onDone != nil {
			onDone(engine.OutcomeCompleted)
		}
		return
	}
	var runFrom func(i int)
	runFrom = func(i int) {
		spec := slices[i].Spec
		spec.Parallelism = parallelism
		e.Submit(spec, weight, func(_ *engine.Query, oc engine.Outcome) {
			if oc != engine.OutcomeCompleted || i == len(slices)-1 {
				if onDone != nil {
					onDone(oc)
				}
				return
			}
			runFrom(i + 1)
		})
	}
	runFrom(0)
}
