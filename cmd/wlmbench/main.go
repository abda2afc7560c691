// Command wlmbench is the repository's benchmark: the live decision path
// (the real wlmd binary over the wire protocol), the offline what-if path and
// the simulator, as five named workloads (internal/bench/README.md).
//
//	wlmbench -seed 1                       # every workload, untraced and traced, one record
//	wlmbench -workload live-cost,whatif    # a subset
//	wlmbench -short                        # the smoke run the package tests use
//	wlmbench --workload live-rtt --seed 7 --seconds 10 --trace 0
//	                                       # one run; the last stdout line is its JSON result
//	wlmbench compare A.json B.json         # apply the BENCHMARK.json bounds; exit 1 on a regression
//	wlmbench spec                          # print BENCHMARK.json
//
// A run given exactly one workload and a -trace value measures in this
// process; anything else fans out, each run in a fresh child process so peak
// RSS and GC state are per workload.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"dbwlm/internal/bench"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compare(os.Args[2:]))
		case "spec":
			os.Stdout.Write(bench.SpecJSON())
			return
		}
	}
	var (
		workload = flag.String("workload", "", "comma-separated workloads (default: all five)")
		seed     = flag.Uint64("seed", bench.DefaultSeed, "seed every input is generated from")
		seconds  = flag.Float64("seconds", bench.RunSeconds, "measured window per run (default 1 with -short)")
		trace    = flag.Int("trace", -1, "1: traced run, per-layer metrics; 0: untraced, end-to-end metrics; -1: both")
		short    = flag.Bool("short", false, "smoke mode: ~1 s windows, 4 000-row traces, Table 1 only")
		repeats  = flag.Int("runs", 1, "untraced runs per workload, run i on seed+i, so the record carries a spread")
		out      = flag.String("out", "", "directory for span files, daemon logs and the record (default .bench_build/out)")
		record   = flag.String("record", "", "record file to write (default <out>/wlmbench-seed<N>.json)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *short && !flagSet("seconds") {
		*seconds = 1
	}
	root, err := bench.FindRoot(".")
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		*out = filepath.Join(root, ".bench_build", "out")
	}
	// SIGINT/SIGTERM cancel the context, which kills and reaps any wlmd child.
	// The handler stays for the life of the process, so its stop is not kept.
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)

	if *workload != "" && !strings.Contains(*workload, ",") && *trace >= 0 {
		res, err := bench.Run(ctx, bench.Options{
			Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
			Short: *short, Root: root, OutDir: *out, Log: os.Stderr,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Print(res.Table())
		fmt.Println(res.Line())
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	so := bench.SuiteOptions{
		Seed: *seed, Seconds: *seconds, Short: *short, Repeats: *repeats,
		Untraced: *trace != 1, Traced: *trace != 0,
		Root: root, OutDir: *out, Self: self, Log: os.Stderr,
	}
	if *workload != "" {
		so.Workloads = strings.Split(*workload, ",")
	}
	rec, err := bench.RunSuite(ctx, so, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if *record == "" {
		*record = filepath.Join(*out, fmt.Sprintf("wlmbench-seed%d.json", *seed))
	}
	if err := bench.WriteRecord(rec, *record); err != nil {
		fatal(err)
	}
	fmt.Printf("\nrecord: %s\n", *record)
	for _, run := range rec.Runs {
		if !run.Correct {
			os.Exit(1)
		}
	}
}

func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: wlmbench compare A.json B.json")
		return 2
	}
	a, err := bench.ReadRecord(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlmbench:", err)
		return 2
	}
	b, err := bench.ReadRecord(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlmbench:", err)
		return 2
	}
	if a.Host.CPUModel != b.Host.CPUModel || a.Host.NProc != b.Host.NProc {
		fmt.Printf("note: records come from different hosts (%s x%d vs %s x%d)\n",
			a.Host.CPUModel, a.Host.NProc, b.Host.CPUModel, b.Host.NProc)
	}
	if bench.PrintCompare(os.Stdout, bench.Compare(a, b)) {
		return 1
	}
	return 0
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wlmbench:", err)
	os.Exit(1)
}
