// Command taxonomy prints Figure 1 of the paper — the taxonomy of workload
// management techniques — with the number of techniques this repository
// implements at each node, followed by Tables 1-5 mapping each paper row to
// its implementation.
//
// Usage:
//
//	taxonomy [-tree] [-tables] [-registry]
//
// With no flags everything is printed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dbwlm/internal/taxonomy"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is taxonomy with its arguments and output stream: the exit code is 0,
// 1 when a taxonomy leaf has no implementation, 2 on bad usage.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("taxonomy", flag.ContinueOnError)
	tree := fs.Bool("tree", false, "print only the Figure 1 tree")
	tables := fs.Bool("tables", false, "print only Tables 1-5")
	registry := fs.Bool("registry", false, "print only the technique registry")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	all := !*tree && !*tables && !*registry
	if *tree || all {
		fmt.Fprintln(stdout, "Figure 1: Taxonomy of Workload Management Techniques for DBMSs")
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, taxonomy.RenderTree())
		fmt.Fprintln(stdout)
	}
	if *registry || all {
		fmt.Fprintln(stdout, "Implemented techniques by taxonomy class:")
		byClass := taxonomy.ByClass()
		taxonomy.Tree().Walk(func(n *taxonomy.Node, depth int) {
			ts := byClass[n.Path]
			if len(ts) == 0 {
				return
			}
			fmt.Fprintf(stdout, "\n%s:\n", n.Title)
			for _, t := range ts {
				fmt.Fprintf(stdout, "  - %-45s %s\n      source: %s\n", t.Name, t.Impl, t.Source)
			}
		})
		fmt.Fprintln(stdout)
	}
	if *tables || all {
		for _, tb := range taxonomy.AllTables() {
			fmt.Fprintln(stdout, tb.Render())
		}
	}
	if gaps := taxonomy.CoverageGaps(); len(gaps) > 0 {
		fmt.Fprintf(os.Stderr, "WARNING: taxonomy leaves without implementations: %v\n", gaps)
		return 1
	}
	return 0
}
