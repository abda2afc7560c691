package trace_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"dbwlm"
	"dbwlm/internal/engine"
	"dbwlm/internal/sim"
	"dbwlm/internal/trace"
	"dbwlm/internal/workload"
)

// The record-mode round-trip contract (same equivalence style as
// TestBatchReplayEquivalence): running a synthetic scenario directly,
// running it with a recorder tap attached, and replaying the recorded trace
// through a fresh manager must all produce bit-identical engine results —
// same report text, same engine counters. This is what makes a trace a
// faithful capture rather than an approximation.

const (
	rtSeed    = 20260809
	rtHorizon = 30 * sim.Second
	rtDrain   = 15 * sim.Second
)

// runScenario runs the consolidated scenario (optionally wrapped by wrap)
// on a fresh manager and returns its report and engine counters.
func runScenario(wrap func([]workload.Generator) []workload.Generator) (string, engine.Stats) {
	s := sim.New(rtSeed)
	m := dbwlm.New(s, engine.Config{})
	gens := workload.Consolidated(s.RNG(), workload.ScenarioConfig{})
	if wrap != nil {
		gens = wrap(gens)
	}
	m.RunWorkload(gens, rtHorizon, rtDrain)
	return m.Report(), m.Engine().StatsNow()
}

// runReplay replays a trace source through a fresh manager.
func runReplay(src trace.Source) (string, engine.Stats, error) {
	s := sim.New(rtSeed)
	m := dbwlm.New(s, engine.Config{})
	g := trace.NewGen(src)
	m.RunWorkload([]workload.Generator{g}, rtHorizon, rtDrain)
	return m.Report(), m.Engine().StatsNow(), g.Err()
}

func TestRecordReplayEquivalence(t *testing.T) {
	directReport, directStats := runScenario(nil)

	// Recording must be transparent: the tap only observes.
	rec := trace.NewRecorder()
	recordedReport, recordedStats := runScenario(func(gens []workload.Generator) []workload.Generator {
		return workload.Record(gens, rec.Tap)
	})
	if recordedReport != directReport {
		t.Fatalf("recording perturbed the run:\ndirect:\n%s\nrecorded:\n%s", directReport, recordedReport)
	}
	if !reflect.DeepEqual(recordedStats, directStats) {
		t.Fatalf("recording perturbed engine stats: %+v vs %+v", recordedStats, directStats)
	}
	rec.DurationUS = int64(sim.Time(0).Add(rtHorizon))
	if len(rec.Rows()) < 100 {
		t.Fatalf("recorded only %d rows", len(rec.Rows()))
	}

	// In-memory replay of the recording.
	memReport, memStats, err := runReplay(&trace.SliceSource{H: rec.Header(), Rows: rec.Rows()})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if memReport != directReport {
		t.Fatalf("in-memory replay diverged:\ndirect:\n%s\nreplay:\n%s", directReport, memReport)
	}
	if !reflect.DeepEqual(memStats, directStats) {
		t.Fatalf("in-memory replay engine stats diverged: %+v vs %+v", memStats, directStats)
	}

	// Write the recording to disk and replay it from there, in both
	// encodings — the wlmsim -record / -replay-trace path.
	dir := t.TempDir()
	for _, name := range []string{"rec.trace", "rec.jsonl"} {
		path := filepath.Join(dir, name)
		if err := trace.WriteFile(path, rec.Header(), rec.Rows()); err != nil {
			t.Fatal(err)
		}
		src, f, err := trace.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		report, stats, err := runReplay(src)
		f.Close()
		if err != nil {
			t.Fatalf("%s replay: %v", name, err)
		}
		if report != directReport {
			t.Fatalf("%s replay diverged:\ndirect:\n%s\nreplay:\n%s", name, directReport, report)
		}
		if !reflect.DeepEqual(stats, directStats) {
			t.Fatalf("%s replay engine stats diverged: %+v vs %+v", name, stats, directStats)
		}
	}
}
