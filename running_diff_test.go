package dbwlm_test

import (
	"testing"

	"dbwlm"
	"dbwlm/internal/experiments"
	"dbwlm/internal/governor"
	"dbwlm/internal/sim"
)

// TestRunningWalkMatchesMap runs the managed rows of Table 2, the Table 4
// profiles and the two managed E6 variants with every Manager held to the map-keyed
// in-flight set it kept before (dbwlm.WatchRunning): at every dispatch and
// every finish, the walk of the engine's Live list must give the same
// records in the same order. The runs are lock-contended and kill, suspend
// and resubmit queries, so records join and leave while other queries sit
// terminal with their finish callbacks pending.
func TestRunningWalkMatchesMap(t *testing.T) {
	watched := func(name string, run func()) {
		t.Run(name, func(t *testing.T) {
			checks := dbwlm.WatchRunning(t)
			run()
			if checks() == 0 {
				t.Fatal("no record joined or left an in-flight set")
			}
		})
	}
	horizon, drain := 60*sim.Second, 30*sim.Second
	if testing.Short() {
		horizon, drain = 20*sim.Second, 10*sim.Second
	}
	t2 := experiments.Table2Scenario{Seed: 1, Horizon: horizon, Drain: drain}
	for _, v := range []experiments.Table2Variant{experiments.T2MPL, experiments.T2ConflictRatio,
		experiments.T2ThroughputFeedback, experiments.T2Indicators} {
		watched("table2/txn/"+string(v), func() { experiments.RunTable2TxnVariant(v, t2) })
	}
	for _, v := range []experiments.Table2Variant{experiments.T2None, experiments.T2QueryCost, experiments.T2Indicators} {
		watched("table2/mix/"+string(v), func() { experiments.RunTable2MonsterVariant(v, t2) })
	}
	t4 := experiments.Table4Scenario{Seed: 5, Horizon: 2 * horizon, Drain: drain}
	for _, p := range append([]*governor.Profile{nil}, governor.Profiles()...) {
		name := "no-wlm"
		if p != nil {
			name = p.Name
		}
		watched("table4/"+name, func() { experiments.RunTable4Profile(p, t4) })
	}
	for _, v := range []string{"static-threshold", "autonomic-mape"} {
		watched("e6/"+v, func() { experiments.RunAutonomicMAPE(v, 1) })
	}
}
