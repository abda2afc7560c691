package trace

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"dbwlm/internal/engine"
)

// TestReplayManyMatchesIndependent pins the pooled fan-out contract: N jobs
// through ReplayMany — warm pool, multi-worker — yield exactly the stats of
// N independent Replay calls.
func TestReplayManyMatchesIndependent(t *testing.T) {
	prev := runtime.GOMAXPROCS(4) // force real fan-out even on 1-CPU hosts
	defer runtime.GOMAXPROCS(prev)

	h, rows := Synth(7, 4000)
	comp := Compress(h, rows, CompressConfig{Ratio: 16, Seed: 11})
	sizings := []engine.Config{
		{Cores: 4, MemoryMB: 4096, IOMBps: 200},
		{Cores: 8, MemoryMB: 16384, IOMBps: 800},
		{Cores: 16, MemoryMB: 32768, IOMBps: 1600, Quantum: 0},
		{Cores: 2, MemoryMB: 2048, IOMBps: 100},
	}
	jobs := make([]ReplayJob, 0, 2*len(sizings))
	for i, ec := range sizings {
		jobs = append(jobs, ReplayJob{
			Src: &SliceSource{H: h, Rows: rows},
			Cfg: ReplayConfig{Engine: ec, Seed: uint64(i + 1)},
		})
		jobs = append(jobs, ReplayJob{
			Src: &SliceSource{H: h, Rows: comp},
			Cfg: ReplayConfig{Engine: ec, Seed: uint64(i + 1), TimeScale: RateScale(comp)},
		})
	}

	want := make([]*ReplayStats, len(jobs))
	for i, j := range jobs {
		j.Src.(*SliceSource).Reset()
		st, err := Replay(j.Src, j.Cfg)
		if err != nil {
			t.Fatalf("independent replay %d: %v", i, err)
		}
		want[i] = st
	}

	// Two rounds: the first may populate the pool from scratch, the second
	// must reuse warm pairs — both must match the independent runs.
	for round := 0; round < 2; round++ {
		for i := range jobs {
			jobs[i].Src.(*SliceSource).Reset()
		}
		got, err := ReplayMany(jobs, 0)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("round %d: job %d stats differ from independent Replay\n got: %+v\nwant: %+v",
					round, i, got[i], want[i])
			}
		}
	}
}

// TestReplayManyError pins error propagation: a bad job reports a wrapped,
// index-tagged error while good jobs still return their stats.
func TestReplayManyError(t *testing.T) {
	h, rows := Synth(3, 400)
	bad := []Row{rows[10], rows[2]} // arrivals out of order
	jobs := []ReplayJob{
		{Src: &SliceSource{H: h, Rows: rows}, Cfg: ReplayConfig{Seed: 1}},
		{Src: &SliceSource{H: h, Rows: bad}, Cfg: ReplayConfig{Seed: 1}},
		{Src: &SliceSource{H: h, Rows: rows}, Cfg: ReplayConfig{Seed: 2}},
	}
	got, err := ReplayMany(jobs, 1)
	if err == nil {
		t.Fatal("ReplayMany swallowed the unsorted-trace error")
	}
	if want := "trace: replay 1:"; len(err.Error()) < len(want) || err.Error()[:len(want)] != want {
		t.Fatalf("error not index-tagged: %v", err)
	}
	if got[0] == nil || got[2] == nil {
		t.Fatal("good jobs did not return stats alongside the error")
	}
	if got[1] != nil {
		t.Fatal("failed job returned stats")
	}
}

// TestReplayManyPooledAllocs pins both kinds of reuse a replay relies on,
// with a single worker and a parked GC, so the Mallocs deltas see only
// replay work. Across jobs, a warm ReplayMany allocates at most 0.9x of what
// the same jobs cost as independent Replay calls, each of which builds its
// sim/engine pair afresh (11 283 vs 13 410 mallocs over 16 jobs of 501 rows).
// Within a run, the engine recycles each finished query, so even a fresh
// Replay makes at most two allocations per row (1.67; 2.6 when the engine
// allocated a Query per row).
func TestReplayManyPooledAllocs(t *testing.T) {
	// Under the race detector sync.Pool drops a quarter of its Puts on
	// purpose, so pooled-allocation ratios mean nothing there.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("sync.Pool randomly drops items under -race")
			}
		}
	}
	h, rows := Synth(9, 8000)
	comp := Compress(h, rows, CompressConfig{Ratio: 16, Strata: 6, Seed: 1})
	jobs := make([]ReplayJob, 16)
	for i := range jobs {
		jobs[i] = ReplayJob{
			Src: &SliceSource{H: h, Rows: comp},
			Cfg: ReplayConfig{
				Engine: engine.Config{Cores: 8, MemoryMB: 16384, IOMBps: 800},
				Seed:   uint64(i + 1), TimeScale: RateScale(comp),
			},
		}
	}
	mallocs := func(f func()) uint64 {
		for i := range jobs {
			jobs[i].Src.(*SliceSource).Reset()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	pooledRun := func() {
		if _, err := ReplayMany(jobs, 1); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mallocs(pooledRun) // warm the pool
	pooled := mallocs(pooledRun)
	fresh := mallocs(func() {
		for i := range jobs {
			if _, err := Replay(jobs[i].Src, jobs[i].Cfg); err != nil {
				t.Fatal(err)
			}
		}
	})
	if frac := float64(pooled) / float64(fresh); frac > 0.9 {
		t.Fatalf("pooled replays allocate %.2fx of fresh (%d vs %d mallocs over %d jobs), want <= 0.90x",
			frac, pooled, fresh, len(jobs))
	}
	if perRow := float64(fresh) / float64(len(jobs)*len(comp)); perRow > 2 {
		t.Fatalf("fresh replays allocate %.2f times per row (%d mallocs over %d jobs of %d rows), want <= 2",
			perRow, fresh, len(jobs), len(comp))
	}
}
