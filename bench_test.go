package dbwlm_test

// This file wires every table and figure of the paper to a testing.B
// benchmark (see DESIGN.md's per-experiment index). The benchmarks run
// deterministic virtual-time simulations; the numbers that matter are the
// custom metrics reported via b.ReportMetric (virtual-time throughputs and
// latencies), not ns/op. Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// or print the full paper-style tables with:
//
//	go run ./cmd/benchtables

import (
	"testing"

	"dbwlm/internal/engine"
	"dbwlm/internal/execctl"
	"dbwlm/internal/experiments"
	"dbwlm/internal/governor"
	"dbwlm/internal/taxonomy"
)

// BenchmarkFigure1_TaxonomyRegistry asserts (and times) full coverage of the
// Figure 1 taxonomy: every leaf class has at least one implemented
// technique. (Experiment E0.)
func BenchmarkFigure1_TaxonomyRegistry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if gaps := taxonomy.CoverageGaps(); len(gaps) != 0 {
			b.Fatalf("taxonomy leaves without implementations: %v", gaps)
		}
	}
	b.ReportMetric(float64(len(taxonomy.Registry())), "techniques")
	b.ReportMetric(float64(len(taxonomy.Tree().Leaves())), "leaves")
}

// BenchmarkTable1_ControlPoints runs the instrumented three-control-point
// demonstration (Experiment E1). All three control types must act.
func BenchmarkTable1_ControlPoints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.RunTable1(uint64(i) + 42)
		for _, row := range t.Rows {
			if row.Metric("actions") == 0 {
				b.Fatalf("control point %q took no actions", row.Name)
			}
		}
		if i == 0 {
			for _, row := range t.Rows {
				b.ReportMetric(row.Metric("actions"), row.Name[:4]+"_actions")
			}
		}
	}
}

// BenchmarkMPLKnee regenerates the throughput-vs-MPL curve (Experiment
// E2b): rise, knee, collapse.
func BenchmarkMPLKnee(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.RunMPLKnee([]int{2, 8, 64}, uint64(i)+7)
		low := t.Rows[0].Metric("thr")
		knee := t.Rows[1].Metric("thr")
		high := t.Rows[2].Metric("thr")
		if !(knee > low && high < knee*0.7) {
			b.Fatalf("knee shape violated: %v -> %v -> %v", low, knee, high)
		}
		if i == 0 {
			b.ReportMetric(low, "thr_mpl2")
			b.ReportMetric(knee, "thr_mpl8")
			b.ReportMetric(high, "thr_mpl64")
		}
	}
}

// table2Bench runs one Table 2 variant in its scenario and reports OLTP
// throughput and p95 (Experiment E2).
func table2Bench(b *testing.B, v experiments.Table2Variant, txn bool) {
	b.Helper()
	var row experiments.Row
	for i := 0; i < b.N; i++ {
		sc := experiments.Table2Scenario{Seed: uint64(i) + 42}
		if txn {
			row = experiments.RunTable2TxnVariant(v, sc)
		} else {
			row = experiments.RunTable2MonsterVariant(v, sc)
		}
	}
	b.ReportMetric(row.Metric("oltp_thr"), "oltp_thr")
	b.ReportMetric(row.Metric("oltp_p95_s"), "oltp_p95_s")
	b.ReportMetric(row.Metric("rejected"), "rejected")
}

// Table 2 rows, transaction-overload scenario.
func BenchmarkTable2_Txn_NoControl(b *testing.B) { table2Bench(b, experiments.T2None, true) }

// BenchmarkTable2_Txn_MPL benches the MPL-threshold row.
func BenchmarkTable2_Txn_MPL(b *testing.B) { table2Bench(b, experiments.T2MPL, true) }

// BenchmarkTable2_Txn_ConflictRatio benches the Moenkeberg & Weikum row.
func BenchmarkTable2_Txn_ConflictRatio(b *testing.B) {
	table2Bench(b, experiments.T2ConflictRatio, true)
}

// BenchmarkTable2_Txn_ThroughputFeedback benches the Heiss & Wagner row.
func BenchmarkTable2_Txn_ThroughputFeedback(b *testing.B) {
	table2Bench(b, experiments.T2ThroughputFeedback, true)
}

// BenchmarkTable2_Txn_Indicators benches the Zhang et al. indicators row.
func BenchmarkTable2_Txn_Indicators(b *testing.B) { table2Bench(b, experiments.T2Indicators, true) }

// Table 2 rows, monster-mix scenario.
func BenchmarkTable2_Mix_NoControl(b *testing.B) { table2Bench(b, experiments.T2None, false) }

// BenchmarkTable2_Mix_QueryCost benches the query-cost threshold row.
func BenchmarkTable2_Mix_QueryCost(b *testing.B) { table2Bench(b, experiments.T2QueryCost, false) }

// BenchmarkTable2_Mix_Indicators benches indicators against monsters.
func BenchmarkTable2_Mix_Indicators(b *testing.B) { table2Bench(b, experiments.T2Indicators, false) }

// BenchmarkTable2_Mix_PredictTree benches the Gupta PQR predictor row.
func BenchmarkTable2_Mix_PredictTree(b *testing.B) {
	table2Bench(b, experiments.T2PredictTree, false)
}

// BenchmarkTable2_Mix_PredictKNN benches the Ganapathi-style k-NN row.
func BenchmarkTable2_Mix_PredictKNN(b *testing.B) { table2Bench(b, experiments.T2PredictKNN, false) }

// table3Bench runs one Table 3 execution-control variant (Experiment E3).
func table3Bench(b *testing.B, v experiments.Table3Variant) {
	b.Helper()
	var row experiments.Row
	for i := 0; i < b.N; i++ {
		row = experiments.RunTable3Variant(v, experiments.Table3Scenario{Seed: uint64(i) + 11})
	}
	b.ReportMetric(row.Metric("oltp_mean_s"), "oltp_mean_s")
	b.ReportMetric(row.Metric("oltp_p95_s"), "oltp_p95_s")
	b.ReportMetric(row.Metric("monster_done"), "monster_done")
}

// BenchmarkTable3_NoControl is the unprotected baseline.
func BenchmarkTable3_NoControl(b *testing.B) { table3Bench(b, experiments.T3None) }

// BenchmarkTable3_PriorityAging benches the DB2-style aging row.
func BenchmarkTable3_PriorityAging(b *testing.B) { table3Bench(b, experiments.T3PriorityAging) }

// BenchmarkTable3_PolicyRealloc benches the economic reallocation row.
func BenchmarkTable3_PolicyRealloc(b *testing.B) { table3Bench(b, experiments.T3Realloc) }

// BenchmarkTable3_QueryKill benches the cancellation row.
func BenchmarkTable3_QueryKill(b *testing.B) { table3Bench(b, experiments.T3Kill) }

// BenchmarkTable3_SuspendResume benches the stop-and-restart row.
func BenchmarkTable3_SuspendResume(b *testing.B) { table3Bench(b, experiments.T3SuspendResume) }

// BenchmarkTable3_Throttling benches the request-throttling row.
func BenchmarkTable3_Throttling(b *testing.B) { table3Bench(b, experiments.T3Throttle) }

// table4Bench runs the consolidated scenario under one commercial profile
// (Experiment E4).
func table4Bench(b *testing.B, idx int) {
	b.Helper()
	var row experiments.Row
	for i := 0; i < b.N; i++ {
		sc := experiments.Table4Scenario{Seed: uint64(i) + 5}
		if idx < 0 {
			row = experiments.RunTable4Profile(nil, sc)
		} else {
			row = experiments.RunTable4Profile(governor.Profiles()[idx], sc)
		}
	}
	b.ReportMetric(row.Metric("oltp_mean_s"), "oltp_mean_s")
	b.ReportMetric(row.Metric("slo_met"), "slo_met")
	b.ReportMetric(row.Metric("sys_done"), "sys_done")
}

// BenchmarkTable4_NoWLM is the unmanaged consolidated server.
func BenchmarkTable4_NoWLM(b *testing.B) { table4Bench(b, -1) }

// BenchmarkTable4_DB2 benches the IBM DB2 WLM profile.
func BenchmarkTable4_DB2(b *testing.B) { table4Bench(b, 0) }

// BenchmarkTable4_SQLServer benches the SQL Server Resource Governor profile.
func BenchmarkTable4_SQLServer(b *testing.B) { table4Bench(b, 1) }

// BenchmarkTable4_Teradata benches the Teradata ASM profile.
func BenchmarkTable4_Teradata(b *testing.B) { table4Bench(b, 2) }

// BenchmarkTable5_NiuScheduler benches the utility cost-limit scheduler
// against FCFS (Experiment E5, row 1).
func BenchmarkTable5_NiuScheduler(b *testing.B) {
	var fcfs, niu experiments.Row
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 42
		fcfs = experiments.RunNiuScheduler("fcfs", seed)
		niu = experiments.RunNiuScheduler("niu-utility", seed)
	}
	b.ReportMetric(fcfs.Metric("gold_mean_s"), "fcfs_gold_mean_s")
	b.ReportMetric(niu.Metric("gold_mean_s"), "niu_gold_mean_s")
	b.ReportMetric(niu.Metric("gold_met"), "niu_gold_met")
}

// BenchmarkTable5_ParekhThrottling benches PI utility throttling
// (Experiment E5, row 2).
func BenchmarkTable5_ParekhThrottling(b *testing.B) {
	var off, on experiments.Row
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 42
		off = experiments.RunParekhThrottling("no-throttling", seed)
		on = experiments.RunParekhThrottling("pi-throttling", seed)
	}
	b.ReportMetric(off.Metric("oltp_during_s"), "off_oltp_during_s")
	b.ReportMetric(on.Metric("oltp_during_s"), "on_oltp_during_s")
	b.ReportMetric(on.Metric("util_done_at_s"), "on_util_done_s")
}

// BenchmarkTable5_PowleyThrottling benches step vs black-box controllers
// (Experiment E5, row 3).
func BenchmarkTable5_PowleyThrottling(b *testing.B) {
	var step, bb experiments.Row
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 42
		step = experiments.RunPowleyThrottling("step", execctl.MethodConstant, seed)
		bb = experiments.RunPowleyThrottling("black-box", execctl.MethodConstant, seed)
	}
	b.ReportMetric(step.Metric("oltp_mean_s"), "step_oltp_mean_s")
	b.ReportMetric(bb.Metric("oltp_mean_s"), "bb_oltp_mean_s")
}

// BenchmarkTable5_SuspendResume benches the DumpState vs GoBack strategies
// (Experiment E5, row 4).
func BenchmarkTable5_SuspendResume(b *testing.B) {
	var dump, goback experiments.Row
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 42
		dump = experiments.RunSuspendResume(engine.SuspendDumpState, seed)
		goback = experiments.RunSuspendResume(engine.SuspendGoBack, seed)
	}
	if goback.Metric("suspend_latency_s") >= dump.Metric("suspend_latency_s") {
		b.Fatalf("GoBack must suspend faster: %v vs %v",
			goback.Metric("suspend_latency_s"), dump.Metric("suspend_latency_s"))
	}
	b.ReportMetric(dump.Metric("suspend_latency_s"), "dump_suspend_s")
	b.ReportMetric(goback.Metric("suspend_latency_s"), "goback_suspend_s")
	b.ReportMetric(dump.Metric("overhead_s"), "dump_overhead_s")
	b.ReportMetric(goback.Metric("overhead_s"), "goback_overhead_s")
}

// BenchmarkTable5_KrompassFuzzy benches the fuzzy execution controller
// (Experiment E5, row 5).
func BenchmarkTable5_KrompassFuzzy(b *testing.B) {
	var off, on experiments.Row
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 42
		off = experiments.RunKrompassFuzzy("no-control", seed)
		on = experiments.RunKrompassFuzzy("fuzzy-control", seed)
	}
	b.ReportMetric(off.Metric("oltp_p95_s"), "off_oltp_p95_s")
	b.ReportMetric(on.Metric("oltp_p95_s"), "on_oltp_p95_s")
	b.ReportMetric(on.Metric("bi_killed"), "bi_killed")
}

// BenchmarkAutonomicMAPE benches the MAPE loop vs static thresholds under a
// workload shift (Experiment E6).
func BenchmarkAutonomicMAPE(b *testing.B) {
	var static, mape experiments.Row
	for i := 0; i < b.N; i++ {
		seed := uint64(i) + 42
		static = experiments.RunAutonomicMAPE("static-threshold", seed)
		mape = experiments.RunAutonomicMAPE("autonomic-mape", seed)
	}
	b.ReportMetric(static.Metric("oltp_p95_s"), "static_oltp_p95_s")
	b.ReportMetric(mape.Metric("oltp_p95_s"), "mape_oltp_p95_s")
	b.ReportMetric(mape.Metric("oltp_met"), "mape_oltp_met")
}

// BenchmarkAblationThrottleMethods compares constant vs interrupt throttle
// methods (Ablation A1).
func BenchmarkAblationThrottleMethods(b *testing.B) {
	var t experiments.ResultTable
	for i := 0; i < b.N; i++ {
		t = experiments.RunAblationThrottleMethods(uint64(i) + 42)
	}
	b.ReportMetric(t.Rows[0].Metric("oltp_p99_s"), "constant_oltp_p99_s")
	b.ReportMetric(t.Rows[1].Metric("oltp_p99_s"), "interrupt_oltp_p99_s")
}

// rowNamed returns the table's row called name, or nil.
func rowNamed(t experiments.ResultTable, name string) *experiments.Row {
	for i := range t.Rows {
		if t.Rows[i].Name == name {
			return &t.Rows[i]
		}
	}
	return nil
}

// BenchmarkAblationSuspendStrategies compares the suspend-plan strategies
// under a suspend budget (Ablation A2).
func BenchmarkAblationSuspendStrategies(b *testing.B) {
	var t experiments.ResultTable
	for i := 0; i < b.N; i++ {
		t = experiments.RunSuspendPlanComparison(0.5)
	}
	optimal := rowNamed(t, "optimal-mixed")
	allGo := rowNamed(t, "all-GoBack")
	if optimal.Metric("total_s") > allGo.Metric("total_s")+1e-9 {
		b.Fatal("optimal plan worse than all-GoBack")
	}
	b.ReportMetric(optimal.Metric("total_s"), "optimal_total_s")
	b.ReportMetric(allGo.Metric("total_s"), "goback_total_s")
}

// BenchmarkAblationEstimateError sweeps estimate error for threshold vs
// learned admission (Ablation A3).
func BenchmarkAblationEstimateError(b *testing.B) {
	var t experiments.ResultTable
	for i := 0; i < b.N; i++ {
		t = experiments.RunAblationEstimateError([]float64{1, 16}, uint64(i)+42)
	}
	// Rows: threshold@1, knn@1, threshold@16, knn@16.
	b.ReportMetric(t.Rows[2].Metric("oltp_p95_s"), "threshold_err16_p95_s")
	b.ReportMetric(t.Rows[3].Metric("oltp_p95_s"), "knn_err16_p95_s")
}

// BenchmarkAblationSchedulers compares wait-queue disciplines (Ablation A4).
func BenchmarkAblationSchedulers(b *testing.B) {
	var t experiments.ResultTable
	for i := 0; i < b.N; i++ {
		t = experiments.RunAblationSchedulers(uint64(i) + 42)
	}
	for _, row := range t.Rows {
		b.ReportMetric(row.Metric("mean_wait_s"), row.Name+"_mean_wait_s")
	}
}

// BenchmarkAblationBatchOrdering compares naive vs interaction-aware batch
// execution order (Ahmad et al. [2]; Ablation A5).
func BenchmarkAblationBatchOrdering(b *testing.B) {
	var t experiments.ResultTable
	for i := 0; i < b.N; i++ {
		t = experiments.RunAblationBatchOrdering(uint64(i) + 42)
	}
	b.ReportMetric(t.Rows[0].Metric("makespan_s"), "naive_makespan_s")
	b.ReportMetric(t.Rows[1].Metric("makespan_s"), "planned_makespan_s")
}

// BenchmarkAblationRestructuring compares whole-plan vs sliced execution
// (query restructuring, Ablation A2-bis).
func BenchmarkAblationRestructuring(b *testing.B) {
	var t experiments.ResultTable
	for i := 0; i < b.N; i++ {
		t = experiments.RunAblationRestructuring(uint64(i) + 42)
	}
	b.ReportMetric(t.Rows[0].Metric("short_p95_s"), "whole_short_p95_s")
	b.ReportMetric(t.Rows[1].Metric("short_p95_s"), "sliced_short_p95_s")
}
