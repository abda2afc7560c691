package bench

import (
	"bytes"
	"strings"
	"testing"
)

func record(workload string, metric string, values ...float64) *Record {
	rec := &Record{}
	for i, v := range values {
		rec.Runs = append(rec.Runs, RunRecord{Workload: workload, Seed: uint64(i), Correct: true,
			Metrics: map[string]Value{metric: {Value: v}}})
	}
	// A traced run's numbers must never be mixed into an end-to-end row.
	rec.Runs = append(rec.Runs, RunRecord{Workload: workload, Trace: true,
		Metrics: map[string]Value{metric: {Value: 1e12}}})
	return rec
}

func TestCompareVerdicts(t *testing.T) {
	bound := EndToEnd[1].Bound // ops_per_s, higher is better
	if EndToEnd[1].Name != MOps || EndToEnd[1].Better != "higher" {
		t.Fatal("test assumes EndToEnd[1] is ops_per_s")
	}
	for _, tc := range []struct {
		name    string
		metric  string
		a, b    []float64
		verdict string
	}{
		{"unchanged", MOps, []float64{100, 101, 99}, []float64{100, 100, 101}, VerdictOK},
		{"higher is better, B higher", MOps, []float64{100, 101, 99}, []float64{150, 151, 149}, VerdictOK},
		{"higher is better, B lower past the bound", MOps, []float64{100, 101, 99}, []float64{60, 61, 59}, VerdictRegressed},
		{"lower is better, B higher past the bound", MLatency, []float64{100, 101, 99}, []float64{140, 141, 139}, VerdictRegressed},
		{"lower is better, B lower", MLatency, []float64{100, 101, 99}, []float64{50, 51, 49}, VerdictOK},
		{"within the bound", MOps, []float64{100, 101, 99}, []float64{100 * (1 - bound/2), 95, 90}, VerdictOK},
		{"spread wider than the bound", MOps, []float64{100, 160, 60}, []float64{40, 41, 39}, VerdictUnresolved},
		{"single runs have no spread", MOps, []float64{100}, []float64{60}, VerdictRegressed},
	} {
		rows := Compare(record(LiveCost, tc.metric, tc.a...), record(LiveCost, tc.metric, tc.b...))
		if len(rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", tc.name, len(rows))
		}
		if rows[0].Verdict != tc.verdict {
			t.Errorf("%s: verdict %s (worse %.3f, spreads %.3f %.3f), want %s",
				tc.name, rows[0].Verdict, rows[0].Worse, rows[0].SpreadA, rows[0].SpreadB, tc.verdict)
		}
	}
}

func TestCompareSkipsWhatOnlyOneSideRan(t *testing.T) {
	a := record(LiveCost, MOps, 100)
	b := record(WhatIf, MOps, 100)
	if rows := Compare(a, b); len(rows) != 0 {
		t.Fatalf("compared %d rows across disjoint workloads", len(rows))
	}
}

func TestPrintCompareReportsRegression(t *testing.T) {
	rows := Compare(record(LiveRTT, MLatency, 100), record(LiveRTT, MLatency, 200))
	var out bytes.Buffer
	if !PrintCompare(&out, rows) {
		t.Fatal("a doubled latency did not count as regressed")
	}
	text := out.String()
	for _, want := range []string{"live-rtt", MLatency, "2.0000", VerdictRegressed} {
		if !strings.Contains(text, want) {
			t.Errorf("compare table lacks %q:\n%s", want, text)
		}
	}
}
