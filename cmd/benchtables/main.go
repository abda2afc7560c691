// Command benchtables regenerates every table and figure of the paper's
// evaluation material (see DESIGN.md's per-experiment index) and prints them
// as aligned text tables. Sections run concurrently on a worker pool (each
// experiment row is an independent simulation), but output is printed in the
// fixed section order, so the rendered tables are byte-identical to a serial
// run. Use -only to run a single experiment.
//
// Usage:
//
//	benchtables [-only e0|knee|t1|t2|t3|t4|t5|e6|a1|a2|a3|a4|a5] [-seed 42]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dbwlm/internal/experiments"
	"dbwlm/internal/taxonomy"
)

func main() {
	only := flag.String("only", "", "run a single experiment (e0, knee, t1, t2, t3, t4, t5, e6, a1, a2, a3, a4, a5)")
	seed := flag.Uint64("seed", 42, "simulation seed")
	flag.Parse()

	// E0 runs first and serially: it is instant, and its coverage-gap check
	// must be able to exit(1) before any simulation time is spent.
	if *only == "" || *only == "e0" {
		fmt.Println("E0 / Figure 1: taxonomy coverage")
		fmt.Print(taxonomy.RenderTree())
		if gaps := taxonomy.CoverageGaps(); len(gaps) > 0 {
			fmt.Fprintf(os.Stderr, "coverage gaps: %v\n", gaps)
			os.Exit(1)
		}
		fmt.Println("all taxonomy leaves implemented: OK")
		fmt.Println()
	}

	type section struct {
		key    string
		render func() string
	}
	sections := []section{
		{"t1", func() string {
			return taxonomy.Table1().Render() + "\n" + experiments.RunTable1(*seed).Render() + "\n"
		}},
		{"knee", func() string {
			return experiments.RunMPLKnee([]int{1, 2, 4, 8, 16, 32, 64, 128}, *seed).Render() + "\n"
		}},
		{"t2", func() string {
			return experiments.RunTable2(experiments.Table2Scenario{Seed: *seed}).Render() + "\n"
		}},
		{"t3", func() string {
			return experiments.RunTable3(experiments.Table3Scenario{Seed: *seed}).Render() + "\n"
		}},
		{"t4", func() string {
			return experiments.RunTable4(experiments.Table4Scenario{Seed: *seed}).Render() + "\n"
		}},
		{"t5", func() string {
			var b strings.Builder
			for _, tb := range experiments.RunTable5(*seed) {
				b.WriteString(tb.Render())
				b.WriteString("\n")
			}
			return b.String()
		}},
		{"e6", func() string {
			return experiments.RunAutonomic(*seed).Render() + "\n"
		}},
		{"a1", func() string {
			return experiments.RunAblationThrottleMethods(*seed).Render() + "\n"
		}},
		{"a2", func() string {
			return experiments.RunSuspendPlanComparison(0.5).Render() +
				experiments.RunAblationRestructuring(*seed).Render() + "\n"
		}},
		{"a3", func() string {
			return experiments.RunAblationEstimateError([]float64{1, 4, 16}, *seed).Render() + "\n"
		}},
		{"a4", func() string {
			return experiments.RunAblationSchedulers(*seed).Render() + "\n"
		}},
		{"a5", func() string {
			return experiments.RunAblationBatchOrdering(*seed).Render() + "\n"
		}},
	}

	var wanted []section
	keys := []string{"e0"}
	for _, s := range sections {
		keys = append(keys, s.key)
		if *only == "" || *only == s.key {
			wanted = append(wanted, s)
		}
	}
	if len(wanted) == 0 && *only != "e0" {
		fmt.Fprintf(os.Stderr, "benchtables: unknown -only %q (valid: %s)\n", *only, strings.Join(keys, ", "))
		os.Exit(2)
	}
	rendered := experiments.RunIndexed(len(wanted), func(i int) string {
		return wanted[i].render()
	})
	for _, out := range rendered {
		fmt.Print(out)
	}
}
