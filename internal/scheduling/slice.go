package scheduling

import (
	"dbwlm/internal/engine"
)

// This file implements the query-restructuring subclass of the scheduling
// taxonomy (Section 3.3): a large query runs as a series of smaller
// sub-plans that execute in order and produce an equivalent result
// (Bruno et al., "Slicing Long-Running Queries" [6]; Meng et al. [54]).
// Each slice is scheduled as an independent unit, so short queries are never
// stuck behind the whole monster and the monster never monopolizes the
// server for its full duration.

// RunSliced executes the slices sequentially on the engine, each as its own
// query with the given weight and parallelism, invoking onDone with the
// final outcome. If any slice is killed or deadlocked the chain stops with
// that outcome.
func RunSliced(e *engine.Engine, slices []engine.QuerySpec, weight float64, parallelism float64,
	onDone func(outcome engine.Outcome)) {
	if len(slices) == 0 {
		if onDone != nil {
			onDone(engine.OutcomeCompleted)
		}
		return
	}
	var runFrom func(i int)
	runFrom = func(i int) {
		spec := slices[i]
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
