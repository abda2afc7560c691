package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Options selects and sizes one run of one workload.
type Options struct {
	Workload string
	// Seed is the only input the workload's data depends on.
	Seed uint64
	// Seconds is the measured window.
	Seconds float64
	// Trace selects the traced run, which reports the per-layer metrics
	// instead of the end-to-end ones.
	Trace bool
	// Short is the smoke mode the package tests use: one set-up instead of
	// three, a 4 000-row trace, Table 1 only.
	Short bool
	// Root is the module root wlmd is built from; BuildDir holds build
	// outputs and OutDir span files and daemon logs. Empty BuildDir and
	// OutDir default to Root/.bench_build and BuildDir/out.
	Root     string
	BuildDir string
	OutDir   string
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

func (o *Options) normalize() error {
	if !IsWorkload(o.Workload) {
		return fmt.Errorf("bench: unknown workload %q", o.Workload)
	}
	if !(o.Seconds > 0) {
		return fmt.Errorf("bench: seconds must be positive, got %v", o.Seconds)
	}
	if o.Root == "" {
		return fmt.Errorf("bench: no module root")
	}
	if o.BuildDir == "" {
		o.BuildDir = filepath.Join(o.Root, ".bench_build")
	}
	if o.OutDir == "" {
		o.OutDir = filepath.Join(o.BuildDir, "out")
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	return nil
}

func (o *Options) logf(format string, args ...any) {
	fmt.Fprintf(o.Log, "wlmbench %s: "+format+"\n", append([]any{o.Workload}, args...)...)
}

// setupReps is how many times a run sets up before measuring. Set-up time
// is reported as the median repetition, so the first repetition's cold
// build and page cache do not decide it.
func (o *Options) setupReps() int {
	if o.Short || o.Trace {
		return 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	return 3
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the outcome of one run.
type Result struct {
	// Correct is false when an output check failed; Problems says which.
	Correct bool
	// Attempted counts operations issued, Failed those whose outcome was
	// not the expected one (an expected rejection is not a failure).
	Attempted int64
	Failed    int64
	Metrics   map[string]Value
	// Samples is the sample count behind a metric, where one exists.
	Samples  map[string]int
	Problems []string
}

func newResult() *Result {
	return &Result{Correct: true, Metrics: make(map[string]Value), Samples: make(map[string]int)}
}

// set records a metric under its declared unit.
func (r *Result) set(name string, v float64, samples int) {
	m, ok := FindMetric(name)
	if !ok {
		panic("bench: undeclared metric " + name) // a typo in this package, not input
	}
	r.Metrics[name] = Value{Value: v, Unit: m.Unit}
	if samples > 0 {
		r.Samples[name] = samples
	}
}

// problem records a failed output check.
func (r *Result) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// finish keeps exactly the metrics the run kind reports — the end-to-end
// table untraced, the per-layer table traced — filling a layer that is not
// on the workload's path with 0, and rejects values no later comparison
// could use.
func (r *Result) finish(trace bool) {
	table := EndToEnd
	if trace {
		table = PerLayer
	}
	out := make(map[string]Value, len(table))
	for _, m := range table {
		v, ok := r.Metrics[m.Name]
		if !ok {
			if !trace {
				r.problem("end-to-end metric %s was not measured", m.Name)
			}
			v = Value{Unit: m.Unit}
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (!trace && v.Value <= 0) {
			r.problem("metric %s has unusable value %v", m.Name, v.Value)
			v.Value = 0
		}
		out[m.Name] = v
	}
	r.Metrics = out
}

// Line renders the one-line JSON object the acceptance driver parses: exactly
// the keys correct, attempted, failed and metrics.
func (r *Result) Line() string {
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]Value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(fmt.Sprintf("bench: result does not marshal: %v", err)) // finish removed NaN/Inf
	}
	return string(b)
}

// Table renders every metric by name with its unit and sample count.
func (r *Result) Table() string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		v := r.Metrics[n]
		fmt.Fprintf(&b, "  %-32s %16.6g %-6s", n, v.Value, v.Unit)
		if s := r.Samples[n]; s > 0 {
			fmt.Fprintf(&b, " n=%d", s)
		}
		b.WriteByte('\n')
	}
	for _, p := range r.Problems {
		fmt.Fprintf(&b, "  CHECK FAILED: %s\n", p)
	}
	return b.String()
}

// Run executes one workload once and returns what it measured. An error
// means the harness could not produce a measurement at all (build failure,
// daemon died, protocol error); a failed output check comes back as a Result
// with Correct false.
func Run(ctx context.Context, o Options) (*Result, error) {
	if err := o.normalize(); err != nil {
		return nil, err
	}
	var (
		res *Result
		err error
	)
	start := time.Now()
	switch o.Workload {
	case WhatIf:
		res, err = runWhatIf(ctx, &o)
	case SimTables:
		res, err = runSimTables(ctx, &o)
	default:
		res, err = runLive(ctx, &o)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.Workload, err)
	}
	if res.Attempted < 1 {
		res.problem("no operation was attempted")
		res.Attempted = 1
	}
	res.finish(o.Trace)
	o.logf("done in %.1fs", time.Since(start).Seconds())
	return res, nil
}
