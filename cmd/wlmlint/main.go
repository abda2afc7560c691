// Command wlmlint runs dbwlm's in-tree static-analysis suite (internal/lint)
// over the module: allocation and blocking checks over everything reachable
// from a //dbwlm:hotpath root, typed-atomics-only, determinism linting,
// guarded-field verification, no nested locking, the AllocsPerRun coupling
// check, and dead-code detection.
//
// Usage:
//
//	wlmlint [-json] [-run hotpath,detlint] [-workers n] [-time] [packages]
//
// Package arguments filter reporting ("./...", "./internal/rt",
// "internal/sim/..."); analysis always covers the whole module because the
// facts the analyzers share are cross-package.
//
// Exit codes: 0 clean, 1 diagnostics reported, 2 nothing was analyzed — the
// module failed to load (parse or type error), -run names an analyzer that
// does not exist, or a package pattern matches no package — so CI can tell
// "found findings" from "could not analyze", and a typo from "clean".
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"dbwlm/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	dir := flag.String("C", ".", "directory inside the module to analyze")
	workers := flag.Int("workers", 0, "analysis parallelism (0 = GOMAXPROCS); output is identical at any setting")
	timing := flag.Bool("time", false, "report wall time to stderr")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: wlmlint [-json] [-run names] [-C dir] [-workers n] [-time] [packages]\n\nanalyzers:\n")
		for _, a := range lint.Analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	var analyzers []string
	if *run != "" {
		analyzers = strings.Split(*run, ",")
	}

	start := time.Now()
	m, err := lint.LoadModule(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlmlint:", err)
		os.Exit(2)
	}
	loaded := time.Now()
	diags, err := lint.Run(m, lint.Options{
		Analyzers: analyzers,
		Packages:  flag.Args(),
		Workers:   *workers,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlmlint:", err)
		os.Exit(2)
	}
	if *timing {
		n := *workers
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		fmt.Fprintf(os.Stderr, "wlmlint: %d packages loaded in %v, analyzed in %v (%d workers)\n",
			len(m.Pkgs), loaded.Sub(start).Round(time.Millisecond),
			time.Since(loaded).Round(time.Millisecond), n)
	}

	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, diags); err != nil {
			fmt.Fprintln(os.Stderr, "wlmlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "wlmlint: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
}
