package dbwlm_test

import (
	"math"
	"runtime"
	"testing"

	"dbwlm/internal/experiments"
	"dbwlm/internal/governor"
	"dbwlm/internal/sim"
)

// TestRecycledObjectsLeaveRunsUnchanged runs one managed scenario twice in
// one process: first with the request pool empty, then after a different
// scenario has filled it (and the engine's and Manager's free lists of their
// own) with requests, lock arrays and records of another shape. A field a
// recycled object carries over into its next use would show as a difference
// between the two runs' statistics.
func TestRecycledObjectsLeaveRunsUnchanged(t *testing.T) {
	scenario := func() experiments.Row {
		return experiments.RunTable2TxnVariant(experiments.T2MPL,
			experiments.Table2Scenario{Seed: 7, Horizon: 30 * sim.Second, Drain: 30 * sim.Second})
	}
	runtime.GC() // two collections empty a sync.Pool
	runtime.GC()
	cold := scenario()
	experiments.RunTable4Profile(governor.DB2Profile(),
		experiments.Table4Scenario{Seed: 11, Horizon: 60 * sim.Second, Drain: 30 * sim.Second})
	warm := scenario()
	if cold.Metric("oltp_thr") == 0 || cold.Metric("deadlocks") == 0 {
		t.Fatalf("scenario exercises too little: %v", cold.Metrics)
	}
	for _, name := range cold.Order {
		c, w := cold.Metric(name), warm.Metric(name)
		if math.Float64bits(c) != math.Float64bits(w) {
			t.Errorf("%s: %v with an empty pool, %v with a filled one", name, c, w)
		}
	}
}
