package engine_test

import (
	"fmt"
	"testing"

	"dbwlm/internal/engine"
	"dbwlm/internal/experiments"
)

// TestStatsNowConflictRatioMatchesWalk holds the conflict ratio StatsNow
// sums in its walk of the live slice to the walk over the query map it
// replaced, at every quantum of Table 2's four managed transaction runs at
// three seeds: lock-contended runs whose deadlocks, kills and resubmits
// exercise every path a query's locks and state change on.
func TestStatsNowConflictRatioMatchesWalk(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, v := range []experiments.Table2Variant{experiments.T2MPL, experiments.T2ConflictRatio,
		experiments.T2ThroughputFeedback, experiments.T2Indicators} {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%v/seed%d", v, seed), func(t *testing.T) {
				t.Parallel()
				var quanta, contended int
				sc := experiments.Table2Scenario{Seed: seed, OnQuantum: func(e *engine.Engine) {
					quanta++
					got, want := e.StatsNow().ConflictRatio, engine.ConflictRatioWalk(e)
					if got != want {
						t.Fatalf("quantum %d at %v: conflict ratio %v, the map walk gives %v", quanta, e.Now(), got, want)
					}
					if got > 1 {
						contended++
					}
				}}
				experiments.RunTable2TxnVariant(v, sc)
				if contended == 0 {
					t.Fatalf("%d quanta, none with a blocked lock holder: the run did not exercise the ratio", quanta)
				}
			})
		}
	}
}
