package rt

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbwlm/internal/obsv"
	"dbwlm/internal/policy"
	"dbwlm/internal/slo"
)

// newSLORuntime builds a recorder-free runtime with an attached SLO engine
// on a shared injected clock: oltp has a 1ms deadline, batch is best-effort.
func newSLORuntime(t testing.TB, clock *int64) *Runtime {
	t.Helper()
	r, err := New([]ClassSpec{
		{Name: "oltp", Priority: policy.PriorityHigh, MaxMPL: 1 << 16},
		{Name: "batch", Priority: policy.PriorityLow, MaxMPL: 1 << 16},
	}, Options{Now: func() int64 { return *clock }})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := slo.New([]slo.Spec{
		{Class: "oltp", Target: 0.001, FastWindow: time.Second, SlowWindow: 4 * time.Second},
		{Class: "batch"},
	}, slo.Options{Now: r.NowNanos})
	if err != nil {
		t.Fatal(err)
	}
	r.SetSLO(eng)
	return r
}

// TestSLODeadlineMissAccounting: Done feeds the SLO engine and stamps the
// flight-recorder done event with the deadline-miss reason exactly when the
// elapsed service time exceeded the class target.
func TestSLODeadlineMissAccounting(t *testing.T) {
	clock := int64(0)
	r := newSLORuntime(t, &clock)
	rec := obsv.NewRecorder(256)
	r.SetRecorder(rec)

	g := r.Admit(0, 10)
	clock += 500_000 // 0.5ms: within the 1ms target
	r.Done(g, 0)

	g = r.Admit(0, 10)
	clock += 5_000_000 // 5ms: a miss
	r.Done(g, 0)

	g = r.Admit(1, 10) // best-effort batch never misses
	clock += 60_000_000_000
	r.Done(g, 0)

	f := obsv.MatchAll
	f.Kind = obsv.KindDone
	dones := rec.Tail(0, f)
	if len(dones) != 3 {
		t.Fatalf("done events %d, want 3", len(dones))
	}
	if dones[0].Reason != obsv.ReasonNone {
		t.Fatalf("fast done reason %v, want none", dones[0].Reason)
	}
	if dones[1].Reason != obsv.ReasonDeadlineMiss {
		t.Fatalf("slow done reason %v, want deadline-miss", dones[1].Reason)
	}
	if dones[2].Reason != obsv.ReasonNone {
		t.Fatalf("best-effort done reason %v, want none", dones[2].Reason)
	}

	reports := r.SLO().Evaluate()
	if reports[0].Total != 2 || reports[0].Missed != 1 {
		t.Fatalf("oltp slo = %d/%d, want 1/2 missed", reports[0].Missed, reports[0].Total)
	}
	if reports[1].Missed != 0 {
		t.Fatalf("batch slo missed = %d, want 0", reports[1].Missed)
	}
}

// TestSLOOneRecord: with the engine attached, the runtime's latency
// histogram is the only record of a completion. The done count, the engine's
// total and both exposition counters read its merged count — including a
// completion recorded by an Observe on the attached engine.
func TestSLOOneRecord(t *testing.T) {
	clock := int64(0)
	r := newSLORuntime(t, &clock)
	const n = 40
	for i := 0; i < n; i++ {
		g := r.Admit(0, 10)
		clock += 100_000
		r.Done(g, 0)
	}
	r.SLO().Observe(0, 0.0001)
	const want = n + 1
	if got := r.StatsOf(0).Done; got != want {
		t.Fatalf("StatsOf.Done = %d, want %d", got, want)
	}
	if got := r.StatsNow().Completed; got != want {
		t.Fatalf("StatsNow.Completed = %d, want %d", got, want)
	}
	if got := r.SLO().Evaluate()[0].Total; got != want {
		t.Fatalf("slo total = %d, want %d", got, want)
	}
	var buf bytes.Buffer
	r.WritePrometheus(obsv.NewPromWriter(&buf))
	for _, family := range []string{"dbwlm_done_total", "dbwlm_slo_observed_total"} {
		if sample := fmt.Sprintf("%s{class=\"oltp\"} %d\n", family, want); !strings.Contains(buf.String(), sample) {
			t.Fatalf("metrics page lacks %q", sample)
		}
	}
}

// TestSLOMissedNeverExceedsTotal: Done records a completion before the
// engine counts its miss, and an evaluation loads the miss counter before it
// merges the histogram, so no report — cumulative or windowed — shows more
// misses than completions while Done runs concurrently. Every completion of
// the "slow" class misses, which makes the bound tight there.
func TestSLOMissedNeverExceedsTotal(t *testing.T) {
	r, err := New([]ClassSpec{
		{Name: "slow", MaxMPL: 1 << 16},
		{Name: "mixed", MaxMPL: 1 << 16},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := slo.New([]slo.Spec{
		{Class: "slow", Target: 0.001, FastWindow: 4 * time.Millisecond, SlowWindow: 16 * time.Millisecond},
		{Class: "mixed", Target: 0.001, FastWindow: 4 * time.Millisecond, SlowWindow: 16 * time.Millisecond},
	}, slo.Options{Now: r.NowNanos})
	if err != nil {
		t.Fatal(err)
	}
	r.SetSLO(eng)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(class ClassID) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				g := r.Admit(class, 1)
				if class == 0 || i%2 == 0 {
					// Backdate the grant: 5ms of service time, no sleep.
					c, s, gs, start, id, _ := g.Parts()
					g, _ = r.GrantFromParts(c, s, gs, start-5_000_000, id)
				}
				r.Done(g, 0)
			}
		}(ClassID(w % 2))
	}
	var bad string
	for end := time.Now().Add(200 * time.Millisecond); bad == "" && time.Now().Before(end); {
		for _, rp := range eng.Evaluate() {
			if rp.Missed > rp.Total {
				bad = fmt.Sprintf("%s cumulative: %d missed of %d", rp.Class, rp.Missed, rp.Total)
			}
			for _, w := range rp.Windows {
				if w.Missed > w.Total {
					bad = fmt.Sprintf("%s %s window: %d missed of %d", rp.Class, w.Name, w.Missed, w.Total)
				}
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if bad != "" {
		t.Fatal(bad)
	}
	if rp := eng.Evaluate()[0]; rp.Total == 0 || rp.Missed != rp.Total {
		t.Fatalf("slow class %d missed of %d, want every completion missed", rp.Missed, rp.Total)
	}
}

// TestSLOPolicyReload: the policy document's slos section retargets the
// attached engine, errors when no engine is attached, and rendered policy
// round-trips the live objectives.
func TestSLOPolicyReload(t *testing.T) {
	clock := int64(0)
	r := newSLORuntime(t, &clock)

	p := &policy.RuntimePolicy{
		SLOs: []policy.RuntimeSLO{{Class: "oltp", TargetMS: 250, MissBudget: 0.05}},
	}
	if err := r.ApplyPolicy(p); err != nil {
		t.Fatal(err)
	}
	specs := r.SLO().Specs()
	if specs[0].Target != 0.25 || specs[0].MissBudget != 0.05 {
		t.Fatalf("reloaded spec %+v, want 250ms / 5%%", specs[0])
	}
	// The new target gates Observe immediately.
	g := r.Admit(0, 10)
	clock += 100_000_000 // 100ms: within the reloaded 250ms target
	r.Done(g, 0)
	if rp := r.SLO().Evaluate()[0]; rp.Missed != 0 || rp.Total != 1 {
		t.Fatalf("post-reload slo %d/%d, want 0/1", rp.Missed, rp.Total)
	}

	if err := r.ApplyPolicy(&policy.RuntimePolicy{
		SLOs: []policy.RuntimeSLO{{Class: "nope", TargetMS: 1}},
	}); err == nil {
		t.Fatal("unknown slo class applied without error")
	}

	rendered := r.Policy()
	if len(rendered.SLOs) != 2 || rendered.SLOs[0].Class != "oltp" || rendered.SLOs[0].TargetMS != 250 {
		t.Fatalf("rendered slos %+v", rendered.SLOs)
	}

	// A runtime without the engine refuses slo-bearing policies rather than
	// silently dropping the objectives.
	bare, err := New([]ClassSpec{{Name: "oltp", MaxMPL: 4}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.ApplyPolicy(p); err == nil {
		t.Fatal("slo policy applied with no engine attached")
	}
}

// TestSLOAdmitZeroAlloc pins the acceptance bound: with the SLO engine
// attached and no recorder, the admit+done cycle still allocates nothing —
// and with the recorder attached too, the engine adds no allocation to what
// the recorded cycle costs without it.
func TestSLOAdmitZeroAlloc(t *testing.T) {
	clock := int64(0)
	r := newSLORuntime(t, &clock)
	cycle := func() { r.Done(r.Admit(0, 10), 0.001) }
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("slo-on admit+done allocates %v allocs/op, want 0", avg)
	}
	r.SetRecorder(obsv.NewRecorder(4096))
	recorded := testing.AllocsPerRun(1000, cycle)
	r.SetSLO(nil)
	if base := testing.AllocsPerRun(1000, cycle); recorded > base {
		t.Fatalf("slo adds allocations to the recorded admit+done: %v vs %v allocs/op", recorded, base)
	}
}

// BenchmarkLiveAdmitSLO prices SLO deadline accounting on the plain admit
// hot path; compare against BenchmarkLiveAdmit for the enabled overhead
// (slo.observe_ns in cmd/wlmbench is the in-harness price).
func BenchmarkLiveAdmitSLO(b *testing.B) {
	r, err := New([]ClassSpec{
		{Name: "oltp", Priority: policy.PriorityHigh, MaxMPL: 1 << 16, MaxCostTimerons: 1e6},
	}, Options{GlobalMaxMPL: 1 << 17})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := slo.New([]slo.Spec{{Class: "oltp", Target: 0.01}}, slo.Options{Now: r.NowNanos})
	if err != nil {
		b.Fatal(err)
	}
	r.SetSLO(eng)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			g := r.Admit(0, 10)
			r.Done(g, 0.001)
		}
	})
}

// BenchmarkLiveAdmitRecordedSLO is the fully-instrumented hot path: flight
// recorder and SLO engine both on.
func BenchmarkLiveAdmitRecordedSLO(b *testing.B) {
	r, err := New([]ClassSpec{
		{Name: "oltp", Priority: policy.PriorityHigh, MaxMPL: 1 << 16, MaxCostTimerons: 1e6},
	}, Options{GlobalMaxMPL: 1 << 17})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := slo.New([]slo.Spec{{Class: "oltp", Target: 0.01}}, slo.Options{Now: r.NowNanos})
	if err != nil {
		b.Fatal(err)
	}
	r.SetSLO(eng)
	r.SetRecorder(obsv.NewRecorder(16384))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			g := r.Admit(0, 10)
			r.Done(g, 0.001)
		}
	})
}
