package bench

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The whole harness end to end in smoke mode: `wlmbench -short` runs every
// workload untraced and traced, each in its own child process, against the
// real wlmd binary; every output check must pass, every declared metric
// must be present, every layer on a workload's path must have produced a
// number, and comparing the record with itself must find nothing regressed.
func TestShortSuite(t *testing.T) {
	root, _, wlmbench := buildBins(t)
	out := t.TempDir()
	rec := filepath.Join(out, "record.json")
	cmd := exec.Command(wlmbench, "-short", "-out", out, "-record", rec)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("wlmbench -short: %v\n%s\n%s", err, stdout, stderr.String())
	}
	r, err := ReadRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Runs) != 2*len(Workloads) || r.Host.NProc < 1 || r.Host.GoVersion == "" || !r.Short {
		t.Fatalf("record has %d runs, host %+v", len(r.Runs), r.Host)
	}
	onPath := map[string][]string{
		LiveCost: {"wire.decode_ns_per_op", "wire.dispatch_ns_per_op", "wire.encode_ns_per_op", "wire.frame_echo_us",
			"wire.bytes_per_op", "rt.admit_done_ns", "rt.reject_cost_ns", "rt.reject_full_ns", "rt.rejected_cost",
			"rt.rejected_full", "rt.admit_share", "obsv.record_ns", "slo.observe_ns", "gen.client_cpu_share"},
		LiveSQL: {"sqlmini.fingerprint_ns", "sqlmini.plan_hit_ns", "sqlmini.plan_miss_ns", "sqlmini.cache_hit_ratio",
			"sqlmini.cache_entries", "learn.knn_predict_ns", "learn.knn_train_us", "admission.observe_ns",
			"admission.retrains", "rt.snapshot_us", "rt.policy_apply_us", "rthttp.metrics_ms", "rthttp.stats_ms",
			"wire.dispatch_self_ns_per_op"},
		LiveRTT:   {"wire.frame_echo_us", "wire.frame_echo_b256_us", "rthttp.admit_done_us", "gen.cpu_us_per_decision", "budget.explained_share"},
		WhatIf:    {"trace.decode_ns_per_row", "trace.compress_rows_per_s", "trace.whatif_replays_per_s", "trace.divergence", "trace.representatives", "learn.kmeans_s", "engine.replay_ns_per_row"},
		SimTables: {"sim.allocs_per_scenario"},
	}
	for _, run := range r.Runs {
		if !run.Correct || run.Failed != 0 || run.Attempted < 1 {
			t.Errorf("%s trace=%v: correct %v, failed %d of %d", run.Workload, run.Trace, run.Correct, run.Failed, run.Attempted)
		}
		table := EndToEnd
		if run.Trace {
			table = PerLayer
		}
		if len(run.Metrics) != len(table) {
			t.Errorf("%s trace=%v: %d metrics, want %d", run.Workload, run.Trace, len(run.Metrics), len(table))
		}
		for _, m := range table {
			v, ok := run.Metrics[m.Name]
			if !ok || v.Unit != m.Unit {
				t.Errorf("%s trace=%v: metric %s missing or in unit %q", run.Workload, run.Trace, m.Name, v.Unit)
			}
			if !run.Trace && !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", run.Workload, m.Name, v.Value)
			}
		}
		if run.Trace {
			for _, name := range onPath[run.Workload] {
				if !(run.Metrics[name].Value > 0) {
					t.Errorf("%s: layer metric %s is empty", run.Workload, name)
				}
			}
			if _, err := os.Stat(filepath.Join(out, run.Workload+".spans.jsonl")); err != nil {
				t.Errorf("%s: no span file: %v", run.Workload, err)
			}
		}
	}
	if !strings.Contains(string(stdout), "nproc") || !strings.Contains(string(stdout), "record: ") {
		t.Errorf("suite output lacks the host stamp or the record path:\n%s", stdout)
	}

	cmp := exec.Command(wlmbench, "compare", rec, rec)
	if text, err := cmp.CombinedOutput(); err != nil || strings.Contains(string(text), VerdictRegressed) {
		t.Fatalf("compare of a record with itself: %v\n%s", err, text)
	}
}

// One run's stdout ends with the result line, and a failed output check
// fails the command: here the default seed's simulator digest is checked
// against testdata, so a wrong digest must exit non-zero with correct false.
func TestRunOneExitCodeFollowsChecks(t *testing.T) {
	root, _, wlmbench := buildBins(t)
	run := func(args ...string) (string, error) {
		cmd := exec.Command(wlmbench, args...)
		cmd.Dir = root
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	out, err := run("--workload", "sim-tables", "--seed", "5", "--seconds", "0.2", "--trace", "0", "-short", "-out", t.TempDir())
	if err != nil {
		t.Fatalf("short sim-tables run failed: %v\n%s", err, out)
	}
	last := out[strings.LastIndexByte(out, '\n')+1:]
	if !strings.HasPrefix(last, `{"correct":true,"attempted":`) || !strings.Contains(last, `"setup_s":{"value":`) {
		t.Fatalf("last stdout line is not the result: %s", last)
	}
	if out, err := run("--workload", "no-such", "--trace", "0"); err == nil || strings.Contains(out, `"correct"`) {
		t.Fatalf("an unknown workload printed a result or exited 0: %v %s", err, out)
	}
}

// The rendered tables for the default seed are pinned: the simulator is
// deterministic bit for bit, and the benchmark's sim-tables workload must
// keep simulating the same thing. After an intended change to simulator
// output, rewrite testdata/sim_tables_seed1.sha256 with the digest this
// test prints.
func TestSimTablesDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full round of the paper tables")
	}
	got := SimTablesDigest(DefaultSeed)
	if want := strings.TrimSpace(simDigestSeed1); got != want {
		t.Fatalf("rendered tables for seed %d hash to\n%s\ntestdata/sim_tables_seed1.sha256 has\n%s", DefaultSeed, got, want)
	}
	res := newResult()
	rendered, _, _ := simCycle(simSections(false), simSeeds(DefaultSeed, simSubSeeds), nil, 0)
	checkSimTables(res, simSections(false), rendered)
	if !res.Correct {
		t.Fatalf("any-seed checks failed on the default seed: %v", res.Problems)
	}
}

// The what-if pipeline's output checks, on a small trace.
func TestWhatIfPassChecks(t *testing.T) {
	traces, err := genWhatIfTraces(11, 2, 2000)
	if err != nil {
		t.Fatal(err)
	}
	again, err := genWhatIfTraces(11, 2, 2000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range traces {
		if !bytes.Equal(traces[i].encoded, again[i].encoded) {
			t.Fatalf("trace %d differs between two generations from one seed", i)
		}
	}
	if bytes.Equal(traces[0].encoded, traces[1].encoded) {
		t.Fatal("two traces of one run are identical: sub-seeds are not distinct")
	}
	tr := NewTracer(16)
	pt, err := whatIfPass(&traces[0], tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pt.reps < 100 || pt.reps > 160 || pt.divergence <= 0 || pt.divergence >= 1 {
		t.Fatalf("%d representatives of 2000 rows at 16:1, divergence %v", pt.reps, pt.divergence)
	}
	if len(tr.Spans()) != 6 {
		t.Fatalf("%d spans for one pass, want the pass and its five stages", len(tr.Spans()))
	}
	if err := checkCompressRepeats(&traces[0]); err != nil {
		t.Fatal(err)
	}
	// A truncated encoding must fail the decoded-row-count check.
	short := traces[0]
	short.rows++
	if _, err := whatIfPass(&short, nil, 0); err == nil {
		t.Fatal("a pass that decoded fewer rows than encoded succeeded")
	}
	grid, ref := whatIfGrid()
	if len(grid) != whatIfJobs || grid[ref] != refEngine {
		t.Fatalf("grid has %d sizings, reference at %d = %+v", len(grid), ref, grid[ref])
	}
}

func TestCheckDivergenceJudgesTheMedian(t *testing.T) {
	ok := newResult()
	if med := checkDivergence(ok, []float64{0.1, 0.45, 0.2}, false); med != 0.2 || !ok.Correct {
		t.Fatalf("one trace over the bound failed the run: median %v, correct %v", med, ok.Correct)
	}
	bad := newResult()
	if checkDivergence(bad, []float64{0.35, 0.45, 0.2}, false); bad.Correct {
		t.Fatal("a median over the bound passed")
	}
	zero := newResult()
	if checkDivergence(zero, []float64{0, 0, 0}, true); zero.Correct {
		t.Fatal("a replay that measured nothing passed")
	}
}
