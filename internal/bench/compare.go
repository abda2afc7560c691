package bench

import (
	"fmt"
	"io"
	"math"
)

// Verdicts Compare gives one (metric, workload) row.
const (
	VerdictOK         = "ok"
	VerdictRegressed  = "regressed"
	VerdictUnresolved = "unresolved"
)

// Row is one compared (metric, workload) pair. A and B are each side's
// median over its runs; Worse is the share of A by which B is worse
// (negative when B is better).
type Row struct {
	Metric   string
	Workload string
	A, B     float64
	SpreadA  float64
	SpreadB  float64
	Worse    float64
	Bound    float64
	Verdict  string
}

// values collects one side's untraced values of a metric on a workload.
func (r *Record) values(workload, metric string) []float64 {
	var out []float64
	for i := range r.Runs {
		run := &r.Runs[i]
		if run.Workload == workload && !run.Trace {
			if v, ok := run.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// Compare judges record b against base a on every end-to-end metric of every
// workload both ran, using the bounds declared in EndToEnd (the ones
// BENCHMARK.json carries). A row is unresolved when either side's own
// run-to-run spread is wider than the bound: the metric may have moved, but
// these runs cannot tell. It is regressed when b's median is worse than a's
// by more than the bound.
func Compare(a, b *Record) []Row {
	var rows []Row
	for _, w := range Workloads {
		for _, m := range EndToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			row := Row{Metric: m.Name, Workload: w.Name, Bound: m.Bound,
				SpreadA: Spread(va), SpreadB: Spread(vb), A: Median(va), B: Median(vb)}
			if row.A != 0 {
				row.Worse = (row.B - row.A) / math.Abs(row.A)
				if m.Better == "higher" {
					row.Worse = -row.Worse
				}
			}
			switch {
			case max(row.SpreadA, row.SpreadB) > m.Bound:
				row.Verdict = VerdictUnresolved
			case row.Worse > m.Bound:
				row.Verdict = VerdictRegressed
			default:
				row.Verdict = VerdictOK
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// PrintCompare writes the rows as a table — each side's value, the ratio
// with its base, the verdict — and reports whether any row regressed.
func PrintCompare(w io.Writer, rows []Row) (regressed bool) {
	fmt.Fprintf(w, "%-12s %-16s %14s %14s %9s %8s %8s %7s  %s\n",
		"workload", "metric", "A (base)", "B", "B/A", "spreadA", "spreadB", "bound", "verdict")
	for _, r := range rows {
		ratio := math.NaN()
		if r.A != 0 {
			ratio = r.B / r.A
		}
		fmt.Fprintf(w, "%-12s %-16s %14.6g %14.6g %9.4f %8.4f %8.4f %7.2f  %s\n",
			r.Workload, r.Metric, r.A, r.B, ratio, r.SpreadA, r.SpreadB, r.Bound, r.Verdict)
		regressed = regressed || r.Verdict == VerdictRegressed
	}
	return regressed
}
