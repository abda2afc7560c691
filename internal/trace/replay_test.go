package trace

import (
	"reflect"
	"testing"

	"dbwlm/internal/engine"
)

// replayCfg is the shared engine sizing for the divergence tests: a mid-size
// box under real but not pathological load from the synthetic mix.
func replayCfg(scale float64) ReplayConfig {
	return ReplayConfig{
		Engine:    engine.Config{Cores: 8, MemoryMB: 16384, IOMBps: 800},
		Seed:      42,
		TimeScale: scale,
	}
}

func TestReplayDeterministic(t *testing.T) {
	h, rows := Synth(5, 4000)
	src := &SliceSource{H: h, Rows: rows}
	a, err := Replay(src, replayCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	src.Reset()
	b, err := Replay(src, replayCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two replays of the same trace differ")
	}
	if a.Rows != 4000 || a.TotalWeight != 4000 {
		t.Fatalf("replay saw %d rows weight %v", a.Rows, a.TotalWeight)
	}
	var done float64
	for i := range a.Classes {
		done += a.Classes[i].Completed + a.Classes[i].Failed
	}
	if done < 3990 {
		t.Fatalf("only %v of 4000 queries finished within the drain window", done)
	}
}

// TestCompressedReplayDivergence is the core contract: compressing a trace
// and replaying it at the rate-preserving time scale must reproduce the full
// replay's per-class arrival shape and response-time histogram within the
// bound cmd/wlmbench's whatif workload also enforces on every run.
func TestCompressedReplayDivergence(t *testing.T) {
	const bound = 0.30
	h, rows := Synth(9, 8000)
	full, err := Replay(&SliceSource{H: h, Rows: rows}, replayCfg(1))
	if err != nil {
		t.Fatal(err)
	}

	comp := Compress(h, rows, CompressConfig{Ratio: 16, Strata: 6, Seed: 1})
	if ratio := TotalWeight(comp) / float64(len(comp)); ratio < 10 {
		t.Fatalf("compression ratio %.1f, want >= 10 for the what-if speedup", ratio)
	}
	// Rate-preserving scale: the compressed trace offers the engine the same
	// arrivals/sec as the original, in proportionally less virtual time.
	scale := RateScale(comp)
	cs, err := Replay(&SliceSource{H: h, Rows: comp}, replayCfg(scale))
	if err != nil {
		t.Fatal(err)
	}
	if cs.TotalWeight != full.TotalWeight {
		t.Fatalf("weight not conserved through replay: %v vs %v", cs.TotalWeight, full.TotalWeight)
	}

	div := Diverge(full, cs)
	for _, cd := range div.PerClass {
		t.Logf("class %-8s rateTV=%.3f costTV=%.3f", cd.Class, cd.RateTV, cd.CostTV)
	}
	if div.Max > bound {
		t.Fatalf("divergence %.3f exceeds bound %.2f", div.Max, bound)
	}
	if div.Max == 0 {
		t.Fatal("zero divergence from a 16x-compressed replay is implausible; metric is broken")
	}
}

func TestReplayRejectsUnsortedRows(t *testing.T) {
	h := Header{Version: Version, DurationUS: 1000, Classes: []string{"a"}}
	rows := []Row{
		{ID: 1, ArriveUS: 500, Weight: 1},
		{ID: 2, ArriveUS: 100, Weight: 1},
	}
	if _, err := Replay(&SliceSource{H: h, Rows: rows}, replayCfg(1)); err == nil {
		t.Fatal("unsorted trace replayed without error")
	}
}

// TestReplaySLOScoring pins the offline attainment semantics: response-time
// SLO kinds score against the row's recorded target, weights multiply both
// sides of the ratio, and best-effort / non-response kinds stay out of the
// denominator.
func TestReplaySLOScoring(t *testing.T) {
	h := Header{Version: Version, DurationUS: 40_000_000, Classes: []string{"a"}}
	// Arrivals 10s apart on an 8-core engine: zero contention, so response
	// time is essentially the row's own work and hit/miss is deterministic.
	rows := []Row{
		// ~0.1s of work against a 10s average-RT target: a hit.
		{ID: 1, ArriveUS: 0, Weight: 1, CPUWork: 0.1, Parallelism: 1,
			SLOKind: 1 /* avg-response-time */, SLOTarget: 10},
		// ~0.5s of work against a 10ms p95 target, standing for 3 original
		// rows: 3 weighted misses.
		{ID: 2, ArriveUS: 10_000_000, Weight: 3, CPUWork: 0.5, Parallelism: 1,
			SLOKind: 2 /* percentile-response-time */, SLOTarget: 0.010, SLOPct: 95},
		// Best-effort: never scores.
		{ID: 3, ArriveUS: 20_000_000, Weight: 1, CPUWork: 0.1, Parallelism: 1},
		// Velocity kind: has a target, but it is not a response bound.
		{ID: 4, ArriveUS: 30_000_000, Weight: 1, CPUWork: 0.1, Parallelism: 1,
			SLOKind: 3 /* velocity */, SLOTarget: 0.9},
	}
	st, err := Replay(&SliceSource{H: h, Rows: rows}, replayCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	c := &st.Classes[0]
	if c.Completed != 6 {
		t.Fatalf("completed weight %v, want 6", c.Completed)
	}
	if c.SLOTotal != 4 || c.SLOMissed != 3 {
		t.Fatalf("slo total/missed = %v/%v, want 4/3", c.SLOTotal, c.SLOMissed)
	}
	if got := c.Attainment(); got != 0.25 {
		t.Fatalf("attainment %v, want 0.25", got)
	}
	var empty ClassStats
	if empty.Attainment() != 1 {
		t.Fatal("class with no scorable rows must report attainment 1")
	}
}

// TestSynthCarriesSLOs keeps the synthetic mix scoring: both replayed and
// compressed-replayed synth traces must produce a non-degenerate attainment
// for the deadline-bearing classes.
func TestSynthCarriesSLOs(t *testing.T) {
	h, rows := Synth(5, 4000)
	st, err := Replay(&SliceSource{H: h, Rows: rows}, replayCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"oltp", "bi"} {
		found := false
		for i := range st.Classes {
			c := &st.Classes[i]
			if c.Class != want {
				continue
			}
			found = true
			if c.SLOTotal <= 0 {
				t.Errorf("class %s replayed without SLO-bearing rows", want)
			}
			if a := c.Attainment(); a < 0 || a > 1 {
				t.Errorf("class %s attainment %v outside [0,1]", want, a)
			}
		}
		if !found {
			t.Errorf("class %s missing from synth replay", want)
		}
	}
}
