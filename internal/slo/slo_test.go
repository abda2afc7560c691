package slo

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"dbwlm/internal/metrics"
)

// refModel is the unsharded reference the epoch ring is checked against: one
// plain histogram and plain counters per class, cumulative snapshots in an
// unbounded map instead of a ring. It mirrors the documented windowing
// semantics (evaluation-driven epoch closing, baseline = newest epoch closed
// before the window start, clamped into the retained span) but shares no
// state or storage with the engine.
type refModel struct {
	epochNS    int64
	ringN      int64
	lastClosed int64
	tracks     []*refTrack
}

type refTrack struct {
	class                                      string
	target, missBudget, percentile, burnThresh float64
	fastNS, slowNS                             int64
	hist                                       *metrics.StripedHistogram
	missed, total                              int64
	snaps                                      map[int64]refSnap
}

type refSnap struct {
	buckets       [metrics.StripedBuckets]int64
	count         int64
	missed, total int64
}

func newRef(e *Engine, specs []Spec) *refModel {
	m := &refModel{epochNS: e.epochNS, ringN: e.ringN, lastClosed: e.lastClosed}
	for _, s := range specs {
		sp := s
		if err := sp.normalize(); err != nil {
			panic(err)
		}
		m.tracks = append(m.tracks, &refTrack{
			class: sp.Class, target: sp.Target, missBudget: sp.MissBudget,
			percentile: sp.Percentile, burnThresh: sp.BurnThreshold,
			fastNS: sp.FastWindow.Nanoseconds(), slowNS: sp.SlowWindow.Nanoseconds(),
			hist:  metrics.NewStripedHistogram(1),
			snaps: make(map[int64]refSnap),
		})
	}
	return m
}

func (m *refModel) observe(class int, v float64) {
	t := m.tracks[class]
	t.hist.Record(v)
	t.total++
	if t.target > 0 && v > t.target {
		t.missed++
	}
}

func (m *refModel) cum(t *refTrack) refSnap {
	var s refSnap
	s.count, _ = t.hist.MergeBuckets(&s.buckets)
	s.missed, s.total = t.missed, t.total
	return s
}

func (m *refModel) advance(now int64) {
	cur := now / m.epochNS
	if cur-1 <= m.lastClosed {
		return
	}
	first := m.lastClosed + 1
	if first < cur-m.ringN {
		first = cur - m.ringN
	}
	for _, t := range m.tracks {
		s := m.cum(t)
		for ep := first; ep < cur; ep++ {
			t.snaps[ep] = s
		}
	}
	m.lastClosed = cur - 1
}

func (m *refModel) eval(now int64) []Report {
	m.advance(now)
	out := make([]Report, len(m.tracks))
	for i, t := range m.tracks {
		cur := m.cum(t)
		rp := &out[i]
		*rp = Report{
			Class: t.class, TargetSeconds: t.target, MissBudget: t.missBudget,
			Percentile: t.percentile, BurnThreshold: t.burnThresh,
			Total: cur.total, Missed: cur.missed,
		}
		names := [2]string{"fast", "slow"}
		spans := [2]int64{t.fastNS, t.slowNS}
		for wi := 0; wi < 2; wi++ {
			w := &rp.Windows[wi]
			w.Name = names[wi]
			w.Seconds = float64(spans[wi]) / 1e9
			var base refSnap
			if cutoff := now - spans[wi]; cutoff >= 0 {
				b := cutoff/m.epochNS - 1
				if b > m.lastClosed {
					b = m.lastClosed
				}
				if lo := m.lastClosed - m.ringN + 1; b < lo {
					b = lo
				}
				if b >= 0 {
					if s, ok := t.snaps[b]; ok {
						base = s
					}
				}
			}
			w.Total = cur.total - base.total
			w.Missed = cur.missed - base.missed
			var diff [metrics.StripedBuckets]int64
			for j := range diff {
				diff[j] = cur.buckets[j] - base.buckets[j]
			}
			w.Latency = metrics.BucketPercentile(&diff, cur.count-base.count, t.percentile)
			if w.Total > 0 {
				w.MissRate = float64(w.Missed) / float64(w.Total)
			}
			if t.target > 0 && t.missBudget > 0 {
				w.BurnRate = w.MissRate / t.missBudget
			}
		}
		rp.BudgetRemaining = 1
		if t.target > 0 && t.missBudget > 0 && cur.total > 0 {
			rp.BudgetRemaining = 1 - float64(cur.missed)/float64(cur.total)/t.missBudget
			if rp.BudgetRemaining < 0 {
				rp.BudgetRemaining = 0
			}
		}
		rp.Burning = t.target > 0 && rp.Windows[0].BurnRate >= t.burnThresh &&
			rp.Windows[1].BurnRate >= t.burnThresh
	}
	return out
}

// TestRingVsReference drives random observe/clock-skip/evaluate sequences —
// sub-epoch skew, multi-epoch hops, idle gaps longer than the ring span, and
// clock jumps that wrap the ring many times over — and requires the engine's
// reports to equal the unsharded reference's exactly at every evaluation.
func TestRingVsReference(t *testing.T) {
	configs := []struct {
		name  string
		epoch time.Duration
		specs []Spec
	}{
		{
			// Ring comfortably covers the slow window.
			name:  "covering-ring",
			epoch: 250 * time.Millisecond,
			specs: []Spec{
				{Class: "oltp", Target: 0.05, FastWindow: time.Second, SlowWindow: 8 * time.Second},
				{Class: "batch", Target: 2, MissBudget: 0.1, FastWindow: 2 * time.Second, SlowWindow: 8 * time.Second},
				{Class: "adhoc", FastWindow: time.Second, SlowWindow: 8 * time.Second}, // best-effort
			},
		},
		{
			// Slow window exceeds the 4096-cell ring cap: slow baselines
			// clamp to the oldest retained snapshot.
			name:  "capped-ring",
			epoch: time.Millisecond,
			specs: []Spec{
				{Class: "oltp", Target: 0.05, FastWindow: 100 * time.Millisecond, SlowWindow: 10 * time.Second},
			},
		},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			var now int64
			eng, err := New(cfg.specs, Options{
				Now:   func() int64 { return now },
				epoch: cfg.epoch,
			})
			if err != nil {
				t.Fatal(err)
			}
			ref := newRef(eng, cfg.specs)
			rng := rand.New(rand.NewSource(9))
			ringSpanNS := eng.ringN * eng.epochNS
			var reports []Report
			for op := 0; op < 4000; op++ {
				switch k := rng.Intn(10); {
				case k < 5: // record a burst
					class := rng.Intn(len(cfg.specs))
					n := 1 + rng.Intn(8)
					for i := 0; i < n; i++ {
						v := rng.Float64() * 0.2
						if rng.Intn(4) == 0 {
							v = rng.Float64() * 4 // deadline misses for batch too
						}
						eng.Observe(int32(class), v)
						ref.observe(class, v)
					}
				case k < 8: // clock skew within a few epochs
					now += rng.Int63n(3 * eng.epochNS)
				case k == 8: // idle gap, sometimes past the ring span
					gap := rng.Int63n(2 * ringSpanNS)
					if rng.Intn(4) == 0 {
						gap = ringSpanNS*20 + rng.Int63n(ringSpanNS)
					}
					now += gap
				default: // evaluate and compare
					reports = eng.EvaluateInto(reports)
					want := ref.eval(now)
					if !reflect.DeepEqual(append([]Report(nil), reports...), want) {
						t.Fatalf("op %d (now=%dns): engine diverged from reference\n got: %+v\nwant: %+v",
							op, now, reports, want)
					}
				}
			}
			// Final check so every run ends on a comparison.
			got := eng.Evaluate()
			if want := ref.eval(now); !reflect.DeepEqual(got, want) {
				t.Fatalf("final: engine diverged\n got: %+v\nwant: %+v", got, want)
			}
		})
	}
}

// TestEvaluateDeterministic drives two independently-constructed engines
// (default sharding) through the same sequence and requires byte-identical
// JSON reports — the property the /slo golden test builds on.
func TestEvaluateDeterministic(t *testing.T) {
	specs := []Spec{
		{Class: "interactive", Target: 0.05},
		{Class: "batch", Target: 5, MissBudget: 0.05},
	}
	build := func(now *int64) *Engine {
		e, err := New(specs, Options{Now: func() int64 { return *now }})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	var nowA, nowB int64
	a, b := build(&nowA), build(&nowB)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		v := rng.Float64() * 0.3
		class := int32(rng.Intn(2))
		a.Observe(class, v)
		b.Observe(class, v)
		if rng.Intn(50) == 0 {
			step := rng.Int63n(int64(30 * time.Second))
			nowA += step
			nowB += step
			ja, _ := json.Marshal(a.Evaluate())
			jb, _ := json.Marshal(b.Evaluate())
			if string(ja) != string(jb) {
				t.Fatalf("engines diverged at op %d:\n%s\n%s", i, ja, jb)
			}
		}
	}
}

func TestBurnRateAndBudget(t *testing.T) {
	var now int64
	e, err := New([]Spec{{
		Class: "oltp", Target: 0.1, MissBudget: 0.01, BurnThreshold: 4,
		FastWindow: time.Second, SlowWindow: 4 * time.Second,
	}}, Options{Now: func() int64 { return now }})
	if err != nil {
		t.Fatal(err)
	}
	// 100 observations, 10 misses -> miss rate 0.1, burn 10x in both
	// windows (engine young: windows extend to start).
	for i := 0; i < 90; i++ {
		if e.Observe(0, 0.01) {
			t.Fatal("fast request flagged as miss")
		}
	}
	for i := 0; i < 10; i++ {
		if !e.Observe(0, 0.5) {
			t.Fatal("slow request not flagged as miss")
		}
	}
	now = int64(5 * time.Second)
	rs := e.Evaluate()
	r := rs[0]
	if r.Total != 100 || r.Missed != 10 {
		t.Fatalf("cumulative = %d/%d, want 10/100 missed", r.Missed, r.Total)
	}
	// All activity is older than every whole epoch before now-1s and
	// now-4s... both windows still see it only if their baselines predate
	// the records. The slow window (4s at now=5s) has baseline at epoch
	// closing 1s-ish: records happened at now=0, inside epoch 0, so the
	// slow baseline (cutoff 1s -> epoch 3) already contains them: windowed
	// totals are zero.
	if r.Windows[1].Total != 0 {
		t.Fatalf("slow window total = %d, want 0 (records aged out)", r.Windows[1].Total)
	}
	if r.Burning {
		t.Fatal("burning with aged-out records")
	}
	// Fresh misses inside both windows: 10 of 10 miss -> burn 100x.
	for i := 0; i < 10; i++ {
		e.Observe(0, 1)
	}
	now += int64(300 * time.Millisecond)
	r = e.Evaluate()[0]
	if r.Windows[0].Total != 10 || r.Windows[0].Missed != 10 {
		t.Fatalf("fast window = %d/%d, want 10/10", r.Windows[0].Missed, r.Windows[0].Total)
	}
	if got := r.Windows[0].BurnRate; got != 100 {
		t.Fatalf("fast burn = %g, want 100", got)
	}
	if !r.Burning {
		t.Fatal("not burning at 100x in both windows")
	}
	if r.BudgetRemaining != 0 {
		t.Fatalf("budget remaining = %g, want 0 (overdrawn clamps)", r.BudgetRemaining)
	}
}

func TestBestEffortNeverMisses(t *testing.T) {
	var now int64
	e, err := New([]Spec{{Class: "adhoc"}}, Options{Now: func() int64 { return now }})
	if err != nil {
		t.Fatal(err)
	}
	if e.Observe(0, 3600) {
		t.Fatal("best-effort class reported a deadline miss")
	}
	r := e.Evaluate()[0]
	if r.Missed != 0 || r.Windows[0].BurnRate != 0 || r.Burning {
		t.Fatalf("best-effort report has miss accounting: %+v", r)
	}
	if r.BudgetRemaining != 1 {
		t.Fatalf("best-effort budget = %g, want 1", r.BudgetRemaining)
	}
}

func TestSetObjectiveReload(t *testing.T) {
	var now int64
	e, err := New([]Spec{{Class: "oltp", Target: 1}}, Options{Now: func() int64 { return now }})
	if err != nil {
		t.Fatal(err)
	}
	if e.Observe(0, 0.5) {
		t.Fatal("0.5s missed a 1s deadline")
	}
	if err := e.SetObjective("oltp", 0.1, 0.05, 99, 2); err != nil {
		t.Fatal(err)
	}
	if !e.Observe(0, 0.5) {
		t.Fatal("0.5s met a reloaded 0.1s deadline")
	}
	sp := e.Specs()[0]
	if sp.Target != 0.1 || sp.MissBudget != 0.05 || sp.Percentile != 99 || sp.BurnThreshold != 2 {
		t.Fatalf("Specs after reload = %+v", sp)
	}
	if err := e.SetObjective("nosuch", 1, 0, 0, 0); err == nil {
		t.Fatal("SetObjective accepted an unknown class")
	}
	if err := e.SetObjective("oltp", 1, 2, 0, 0); err == nil {
		t.Fatal("SetObjective accepted miss budget 2")
	}
}

func TestNilEngine(t *testing.T) {
	var e *Engine
	if e.Observe(0, 1) || e.Evaluate() != nil || e.Classes() != 0 {
		t.Fatal("nil engine not inert")
	}
	if err := e.SetObjective("x", 1, 0, 0, 0); err == nil {
		t.Fatal("nil engine accepted an objective")
	}
}

func TestObserveOutOfRange(t *testing.T) {
	e, err := New([]Spec{{Class: "a", Target: 1}}, Options{Now: func() int64 { return 0 }})
	if err != nil {
		t.Fatal(err)
	}
	if e.Observe(-1, 9) || e.Observe(5, 9) {
		t.Fatal("out-of-range class observed")
	}
	if r := e.Evaluate()[0]; r.Total != 0 {
		t.Fatalf("out-of-range observes leaked into track: %+v", r)
	}
}

// TestConcurrentObserve exercises the lock-free record path against
// concurrent evaluation under the race detector.
func TestConcurrentObserve(t *testing.T) {
	var mu sync.Mutex
	var now int64
	clock := func() int64 { mu.Lock(); defer mu.Unlock(); return now }
	e, err := New([]Spec{{Class: "a", Target: 0.01, FastWindow: time.Second, SlowWindow: 2 * time.Second}},
		Options{Now: clock, epoch: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20000; i++ {
				e.Observe(0, rng.Float64()*0.02)
			}
		}(int64(g))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			mu.Lock()
			now += int64(20 * time.Millisecond)
			mu.Unlock()
			e.Evaluate()
		}
	}()
	wg.Wait()
	<-done
	r := e.Evaluate()[0]
	if r.Total != 80000 {
		t.Fatalf("total = %d, want 80000", r.Total)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := [][]Spec{
		nil,
		{{Class: ""}},
		{{Class: "a"}, {Class: "a"}},
		{{Class: "a", MissBudget: 1.5}},
		{{Class: "a", Percentile: 101}},
		{{Class: "a", BurnThreshold: 0.5}},
		{{Class: "a", FastWindow: time.Minute, SlowWindow: time.Second}},
	}
	for i, specs := range bad {
		if _, err := New(specs, Options{Now: func() int64 { return 0 }}); err == nil {
			t.Errorf("case %d: New accepted invalid specs %+v", i, specs)
		}
	}
}

// TestBurningWithBudgetLeft pins the reason the budget is charged against
// cumulative counts: a class with a long healthy history that starts missing
// hard is Burning (both windows hot) while BudgetRemaining is still
// positive — the alert fires before the budget is gone, not after.
func TestBurningWithBudgetLeft(t *testing.T) {
	var now int64
	e, err := New([]Spec{{
		Class: "oltp", Target: 0.1, MissBudget: 0.01, BurnThreshold: 4,
		FastWindow: time.Second, SlowWindow: 4 * time.Second,
	}}, Options{Now: func() int64 { return now }})
	if err != nil {
		t.Fatal(err)
	}
	// A healthy day: 10000 hits, no misses, all aged out of both windows.
	for i := 0; i < 10000; i++ {
		e.Observe(0, 0.01)
	}
	now = int64(10 * time.Second)
	e.Evaluate()
	// A fresh burst of pure misses inside both windows.
	for i := 0; i < 10; i++ {
		e.Observe(0, 1)
	}
	now += int64(300 * time.Millisecond)
	r := e.Evaluate()[0]
	if !r.Burning {
		t.Fatalf("not burning on a pure-miss burst: %+v", r)
	}
	// Cumulative: 10 misses in 10010 -> rate ~0.000999, within the 1%%
	// budget, so most of the budget remains.
	if r.BudgetRemaining <= 0.5 {
		t.Fatalf("budget remaining = %g, want > 0.5 (healthy history)", r.BudgetRemaining)
	}
	// Keep missing until the lifetime budget is gone too.
	for i := 0; i < 200; i++ {
		e.Observe(0, 1)
	}
	now += int64(300 * time.Millisecond)
	r = e.Evaluate()[0]
	if !r.Burning || r.BudgetRemaining != 0 {
		t.Fatalf("sustained misses: burning=%v remaining=%g, want burning with 0", r.Burning, r.BudgetRemaining)
	}
}
