package execctl

import (
	"dbwlm/internal/sqlmini"
)

// SuspendCostsFromPlan derives the per-operator suspend-cost model the
// optimal-plan search consumes from a physical plan and the query's current
// progress. Operators that have not started yet carry no state and no redo;
// completed operators' state is already materialized downstream, so only the
// in-flight region matters. The engine charges work in plan post-order, so
// progress maps onto the operator sequence by cumulative cost.
//
// checkpointEvery is the progress-fraction gap between asynchronous
// checkpoints (the engine's QuerySpec.CheckpointEvery); the redo cost of an
// in-flight operator under GoBack is the work done since the last checkpoint,
// bounded by the operator's own elapsed work.
func SuspendCostsFromPlan(plan *sqlmini.Plan, progress, checkpointEvery float64) []OpSuspendCost {
	ops := plan.Operators()
	if len(ops) == 0 {
		return nil
	}
	if checkpointEvery <= 0 {
		checkpointEvery = 0.1
	}
	totalCPU := sqlmini.CostOf(plan).CPUSeconds
	if totalCPU <= 0 {
		return nil
	}
	// Work completed in CPU-seconds, and the redo window under GoBack.
	doneCPU := progress * totalCPU
	lastCheckpoint := progress - float64(int(progress/checkpointEvery))*checkpointEvery
	redoCPU := lastCheckpoint * totalCPU

	var out []OpSuspendCost
	var cum float64
	for _, op := range ops {
		start := cum
		end := cum + op.EstCPU
		cum = end
		switch {
		case end <= doneCPU-redoCPU:
			// Fully completed before the redo window: its state must still
			// be dumped (it feeds downstream operators) but nothing re-runs.
			out = append(out, OpSuspendCost{StateMB: op.StateMB, RedoSeconds: 0})
		case start >= doneCPU:
			// Not started: nothing to save, nothing to redo.
			out = append(out, OpSuspendCost{})
		default:
			// In flight (or inside the redo window): dumping saves its
			// partial state; GoBack re-executes the overlap of [start, end]
			// with the redo window [doneCPU-redoCPU, doneCPU].
			lo := doneCPU - redoCPU
			if start > lo {
				lo = start
			}
			hi := doneCPU
			if end < hi {
				hi = end
			}
			redo := hi - lo
			if redo < 0 {
				redo = 0
			}
			frac := 0.0
			if op.EstCPU > 0 {
				done := doneCPU - start
				if done > op.EstCPU {
					done = op.EstCPU
				}
				if done > 0 {
					frac = done / op.EstCPU
				}
			}
			out = append(out, OpSuspendCost{StateMB: op.StateMB * frac, RedoSeconds: redo})
		}
	}
	return out
}
