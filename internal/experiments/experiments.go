// Package experiments contains the harnesses that regenerate every table and
// figure of the paper (see DESIGN.md's per-experiment index). Each experiment
// is a deterministic virtual-time simulation returning structured rows;
// bench_test.go wraps them in testing.B benchmarks and cmd/benchtables prints
// them as paper-style tables.
//
//dbwlm:deterministic
package experiments

import (
	"fmt"
	"strings"

	"dbwlm"
	"dbwlm/internal/characterize"
	"dbwlm/internal/engine"
	"dbwlm/internal/sim"
)

// ServerConfig is the standard simulated server every experiment runs on:
// 8 cores, 4 GB of query memory, 800 MB/s of IO bandwidth.
func ServerConfig() engine.Config {
	return engine.Config{Cores: 8, MemoryMB: 4096, IOMBps: 800}
}

// NewManager builds a manager over a fresh simulator with the standard
// server.
func NewManager(seed uint64) (*sim.Simulator, *dbwlm.Manager) {
	s := sim.New(seed)
	return s, dbwlm.New(s, ServerConfig())
}

// UniformRouter returns the no-WLM baseline router: every request runs
// immediately at uniform weight, with no differentiation of any kind.
func UniformRouter() *characterize.Router {
	return characterize.NewRouter(&characterize.ServiceClass{Name: "flat", Weight: 1})
}

// Row is one result line of an experiment.
type Row struct {
	Name    string
	Metrics map[string]float64
	Order   []string // metric print order
}

// Metric fetches a metric value (0 when missing).
func (r Row) Metric(name string) float64 { return r.Metrics[name] }

// ResultTable is a titled list of rows with aligned rendering.
type ResultTable struct {
	Title string
	Rows  []Row
}

// Render formats the result rows.
func (t ResultTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	if len(t.Rows) == 0 {
		return b.String()
	}
	order := t.Rows[0].Order
	fmt.Fprintf(&b, "%-28s", "variant")
	for _, m := range order {
		fmt.Fprintf(&b, " %14s", m)
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-28s", r.Name)
		for _, m := range order {
			fmt.Fprintf(&b, " %14.4g", r.Metric(m))
		}
		b.WriteString("\n")
	}
	return b.String()
}
