package bench

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dbwlm/internal/experiments"
	"dbwlm/internal/governor"
	"dbwlm/internal/sim"
)

// DefaultSeed is the seed wlmbench uses when none is given, and the seed
// the rendered-tables digest under testdata is kept for.
const DefaultSeed = 1

//go:embed testdata/sim_tables_seed1.sha256
var simDigestSeed1 string

// simSubSeeds is how many derived seeds one cycle regenerates the tables
// at. A scenario's wall time moves by 10-15% with its seed; a cycle sums 36
// scenarios, which moves by about 2%.
const simSubSeeds = 3

// simSection is one timed part of a round.
type simSection struct {
	name   string // span and metric stem
	labels []string
	rows   []func(seed uint64) experiments.Row
	title  string
}

// run regenerates the section's rows, fanned out the way the experiments
// package's own table drivers fan theirs out.
func (s *simSection) run(seed uint64) string {
	t := experiments.ResultTable{Title: s.title}
	t.Rows = experiments.RunRows(len(s.rows), func(i int) experiments.Row { return s.rows[i](seed) })
	return t.Render()
}

// simSections lists a round's sections: the managed rows of Table 2 and
// Table 4 at the paper's horizons, the autonomic MAPE run, and Table 1.
// The unmanaged baselines (txn/no-control, mix/no-control, no-wlm, the two
// unmanaged E6 variants) and the two prediction rows are left out: an
// overloaded or mispredicting engine thrashes, its wall time is chaotic in
// the seed (6.5 s per row at one seed, a third of that at the next), and no
// run-to-run bound could be stated over it. The short round is Table 1
// alone.
func simSections(short bool) []simSection {
	t1 := simSection{name: "sim.table1", title: "Table 1",
		labels: []string{"admission (upon arrival)", "execution control (running)"},
		rows: []func(uint64) experiments.Row{func(seed uint64) experiments.Row {
			t := experiments.RunTable1(seed)
			// Table 1 is one simulation reported as three rows; fold them
			// into one so a section is always one row per scenario.
			row := experiments.Row{Name: "table1", Metrics: map[string]float64{}}
			for _, r := range t.Rows {
				row.Metrics[r.Name] = r.Metric("actions")
				row.Order = append(row.Order, r.Name)
			}
			return row
		}}}
	if short {
		return []simSection{t1}
	}
	t2 := simSection{name: "sim.table2", title: "Table 2 (managed rows)",
		labels: []string{"txn/mpl", "txn/indicators", "mix/query-cost"}}
	for _, v := range []experiments.Table2Variant{experiments.T2MPL, experiments.T2ConflictRatio,
		experiments.T2ThroughputFeedback, experiments.T2Indicators} {
		t2.rows = append(t2.rows, func(seed uint64) experiments.Row {
			r := experiments.RunTable2TxnVariant(v, experiments.Table2Scenario{Seed: seed})
			r.Name = "txn/" + r.Name
			return r
		})
	}
	for _, v := range []experiments.Table2Variant{experiments.T2QueryCost, experiments.T2Indicators} {
		t2.rows = append(t2.rows, func(seed uint64) experiments.Row {
			r := experiments.RunTable2MonsterVariant(v, experiments.Table2Scenario{Seed: seed})
			r.Name = "mix/" + r.Name
			return r
		})
	}
	t4 := simSection{name: "sim.table4", title: "Table 4 (profiles)", labels: []string{"DB2", "Teradata", "Oracle"}}
	for _, p := range append(governor.Profiles(), governor.OracleProfile()) {
		t4.rows = append(t4.rows, func(seed uint64) experiments.Row {
			return experiments.RunTable4Profile(p, experiments.Table4Scenario{Seed: seed})
		})
	}
	e6 := simSection{name: "sim.autonomic", title: "E6 (autonomic MAPE)", labels: []string{"autonomic-mape"},
		rows: []func(uint64) experiments.Row{func(seed uint64) experiments.Row {
			return experiments.RunAutonomicMAPE("autonomic-mape", seed)
		}}}
	return []simSection{t2, t4, e6, t1}
}

// simRound runs every section once and returns the rendered tables and the
// per-section walls.
func simRound(sections []simSection, seed uint64, tr *Tracer, frame int32) (string, []time.Duration) {
	var out strings.Builder
	walls := make([]time.Duration, len(sections))
	root := tr.Begin("sim.round", -1, frame)
	for i, s := range sections {
		start := time.Now()
		sp := tr.Begin(s.name, root, frame)
		out.WriteString(s.run(seed))
		tr.End(sp)
		walls[i] = time.Since(start)
	}
	tr.End(root)
	return out.String(), walls
}

// simSeeds derives the cycle's simulation seeds; the experiment scenarios
// treat 0 as "use the default", so none is 0.
func simSeeds(seed uint64, n int) []uint64 {
	root := sim.NewRNG(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = root.Fork(uint64(i+1)).Uint64() | 1
	}
	return out
}

// simCycle runs one round per seed and returns the rendered tables, the
// per-round walls and the per-section walls summed over the rounds.
func simCycle(sections []simSection, seeds []uint64, tr *Tracer, cycle int) (string, []float64, []float64) {
	var out strings.Builder
	rounds := make([]float64, len(seeds))
	perSection := make([]float64, len(sections))
	for i, seed := range seeds {
		start := time.Now()
		rendered, walls := simRound(sections, seed, tr, int32(cycle*len(seeds)+i))
		rounds[i] = time.Since(start).Seconds()
		out.WriteString(rendered)
		for j, w := range walls {
			perSection[j] += w.Seconds()
		}
	}
	return out.String(), rounds, perSection
}

// checkSimTables applies the any-seed output checks: no NaN, every expected
// row label present.
func checkSimTables(res *Result, sections []simSection, rendered string) {
	if strings.Contains(rendered, "NaN") {
		res.problem("rendered tables contain NaN")
	}
	for _, s := range sections {
		for _, label := range s.labels {
			if !strings.Contains(rendered, label) {
				res.problem("rendered tables lack row %q", label)
			}
		}
	}
}

func digestOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// runSimTables measures whole cycles until the window is spent. Set-up is
// one unmeasured cycle: it warms the allocator and the simulator pools and
// yields the reference render every measured cycle must reproduce exactly
// (the simulator is deterministic in the seed).
func runSimTables(ctx context.Context, o *Options) (*Result, error) {
	res := newResult()
	sections := simSections(o.Short)
	seeds := simSeeds(o.Seed, simSubSeeds)
	scenarios := 0
	for _, s := range sections {
		scenarios += len(s.rows) * len(seeds)
	}
	var (
		reference string
		setups    []float64
	)
	for rep := 0; rep < o.setupReps(); rep++ {
		start := time.Now()
		reference, _, _ = simCycle(sections, seeds, nil, 0)
		setups = append(setups, time.Since(start).Seconds())
	}
	checkSimTables(res, sections, reference)
	if o.Seed == DefaultSeed && !o.Short {
		if got, want := digestOf(reference), strings.TrimSpace(simDigestSeed1); got != want {
			res.problem("rendered tables for seed %d hash to %s, testdata has %s", DefaultSeed, got, want)
		}
	}
	o.logf("set-up %v s, measuring %.1f s", setups, o.Seconds)

	var tr *Tracer
	if o.Trace {
		tr = NewTracer(256)
	}
	var (
		cycles   []float64
		cpuPer   []float64                     // per cycle, process CPU µs per scenario
		best     = make([]float64, len(seeds)) // per seed, the fastest round seen
		perSec   = make([][]float64, len(sections))
		deadline = time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
		m0, m1   runtime.MemStats
	)
	runtime.ReadMemStats(&m0)
	for len(cycles) == 0 || time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start := time.Now()
		cpu0, err := procCPU(os.Getpid())
		if err != nil {
			return nil, err
		}
		rendered, rounds, walls := simCycle(sections, seeds, tr, len(cycles))
		cpu1, err := procCPU(os.Getpid())
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, time.Since(start).Seconds())
		cpuPer = append(cpuPer, (cpu1-cpu0)*1e6/float64(scenarios))
		for i, r := range rounds {
			if best[i] == 0 || r < best[i] {
				best[i] = r
			}
		}
		for i, w := range walls {
			perSec[i] = append(perSec[i], w)
		}
		if rendered != reference {
			res.problem("cycle %d rendered differently from the reference cycle", len(cycles))
			res.Failed += int64(scenarios)
		}
	}
	runtime.ReadMemStats(&m1)
	rss, err := procHWM(os.Getpid())
	if err != nil {
		return nil, err
	}
	done := float64(len(cycles) * scenarios)
	res.Attempted = int64(done)
	if o.Trace {
		for i, s := range sections {
			if name := s.name + "_s"; name != "sim.table1_s" { // Table 1 is 40 ms; it has no metric of its own
				res.set(name, Undisturbed(perSec[i], false)/float64(len(seeds)), len(perSec[i]))
			}
		}
		res.set("sim.allocs_per_scenario", float64(m1.Mallocs-m0.Mallocs)/done, int(done))
		res.set("proc.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, int(m1.NumGC-m0.NumGC))
		return res, tr.WriteJSONL(filepath.Join(o.OutDir, o.Workload+".spans.jsonl"))
	}
	res.set(MSetup, Median(setups), len(setups))
	res.set(MOps, float64(scenarios)/Undisturbed(cycles, false), len(cycles))
	res.set(MLatency, Median(best)*1e6, len(cycles)*len(seeds))
	res.set(MCPU, Undisturbed(cpuPer, false), int(done))
	res.set(MRSS, rss, 1)
	return res, nil
}

// SimTablesDigest renders one cycle for seed and returns its digest; the
// package test compares it with testdata.
func SimTablesDigest(seed uint64) string {
	rendered, _, _ := simCycle(simSections(false), simSeeds(seed, simSubSeeds), nil, 0)
	return digestOf(rendered)
}
