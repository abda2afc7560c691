// Package slo measures per-class service-level-objective attainment for the
// live runtime: the continuous, cheap, deterministic observability layer
// between the flight recorder / Prometheus exposition and any SLO-driven
// planner (the ROADMAP item "Plan-ahead advisor", WiSeDB-style capacity
// planning).
//
// The paper's taxonomy states workload-management goals as performance
// objectives per service class; this package makes those objectives
// measurable at admission-path cost. Each class carries a Spec — a latency
// deadline, an allowed deadline-miss fraction (the error budget), the
// reported latency percentile, and fast/slow evaluation windows. The engine
// then answers, at any instant: what fraction of this class's requests
// missed their deadline over the last minute and the last ten, how fast is
// the error budget burning (SRE-style multi-window burn rate), and how much
// budget remains.
//
// # Windowed time series without locks on the record path
//
// The write path is the same discipline as the rest of the monitoring
// substrate (internal/metrics): a completion is one record into the class's
// striped latency histogram, whose merged count is the completion total, and
// a deadline miss is one increment of a striped miss counter — a handful of
// atomic RMWs on padded shards, zero allocations, no locks, no time
// arithmetic. Writers never touch the window structure at all. The live
// runtime binds each class to its own latency histogram (Bind), records
// there once per completion, and asks the engine only to judge (Missed);
// Observe is record-then-judge on one call, for a standalone engine.
//
// Windowing happens entirely on the cold read path. Time is divided into
// fixed epochs; every evaluation first calls advance, which closes any
// epochs that ended before now by snapshotting the *cumulative* merged state
// (miss counter, bucket array and count) into a fixed ring of cells, one
// snapshot per closed epoch. A windowed view over the last W
// nanoseconds is then a subtraction: current cumulative state minus the
// snapshot at the newest epoch that closed before now-W. Because cumulative
// state is monotone, the diff is exact over the covered span — no
// double-counting, no lost updates, regardless of how writers race the
// snapshot. Windowed percentiles walk the diffed bucket array
// (merge-on-read, like every striped reader).
//
// Two quantizations are inherent and documented rather than hidden: a
// window's true coverage is [W, W+epoch) — conservatively long by less than
// one epoch — and events recorded between an epoch's end and the advance
// call that closes it are attributed to the closing snapshot (evaluation-
// driven attribution). Under the injected clock both are fully
// deterministic: the same sequence of Observe/advance calls yields
// byte-identical reports, which is what the golden tests pin.
//
// A ring that wraps overwrites its oldest snapshots; a baseline older than
// the retained span clamps to the oldest retained cell (bounded staleness,
// never an error). Long idle gaps fill the intervening cells with identical
// cumulative snapshots, so a window spanning the gap correctly reports zero
// activity.
package slo

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"dbwlm/internal/metrics"
)

// Defaults for unset Spec fields.
const (
	// DefaultMissBudget allows 0.1% of requests to miss their deadline
	// (a 99.9% objective).
	DefaultMissBudget = 0.001
	// DefaultPercentile is the reported windowed latency percentile.
	DefaultPercentile = 95
	// DefaultBurnThreshold flags a class as burning when both windows
	// consume budget at >= 4x the sustainable rate.
	DefaultBurnThreshold = 4
	// DefaultFastWindow / DefaultSlowWindow are the SRE-style paired
	// evaluation windows: the fast window catches sudden regressions, the
	// slow window confirms they are sustained.
	DefaultFastWindow = time.Minute
	DefaultSlowWindow = 10 * time.Minute
)

// Spec is one class's service-level objective. The zero Target means
// best-effort: latency is still recorded and windowed, but nothing counts as
// a deadline miss and burn rates stay zero.
type Spec struct {
	// Class names the service class (must match the runtime class table).
	Class string
	// Target is the per-request latency deadline in seconds; a request
	// whose service time exceeds it is a deadline miss. <= 0 = best-effort.
	Target float64
	// MissBudget is the allowed miss fraction in [0, 1): the error budget.
	// 0 selects DefaultMissBudget.
	MissBudget float64
	// Percentile is the latency percentile reported per window (0 selects
	// DefaultPercentile).
	Percentile float64
	// BurnThreshold is the burn-rate multiple at or above which — in both
	// windows at once — the class is Burning (0 selects
	// DefaultBurnThreshold).
	BurnThreshold float64
	// FastWindow and SlowWindow are the two evaluation windows (0 selects
	// the defaults). FastWindow must not exceed SlowWindow. Windows are
	// fixed at construction; the objective knobs above are reloadable.
	FastWindow time.Duration
	SlowWindow time.Duration
}

// normalize fills defaults and validates.
func (s *Spec) normalize() error {
	if s.Class == "" {
		return fmt.Errorf("slo: spec with empty class")
	}
	if s.MissBudget == 0 {
		s.MissBudget = DefaultMissBudget
	}
	if s.MissBudget < 0 || s.MissBudget >= 1 {
		return fmt.Errorf("slo: class %s: miss budget %g outside [0, 1)", s.Class, s.MissBudget)
	}
	if s.Percentile == 0 {
		s.Percentile = DefaultPercentile
	}
	if s.Percentile <= 0 || s.Percentile > 100 {
		return fmt.Errorf("slo: class %s: percentile %g outside (0, 100]", s.Class, s.Percentile)
	}
	if s.BurnThreshold == 0 {
		s.BurnThreshold = DefaultBurnThreshold
	}
	if s.BurnThreshold < 1 {
		return fmt.Errorf("slo: class %s: burn threshold %g < 1", s.Class, s.BurnThreshold)
	}
	if s.FastWindow == 0 {
		s.FastWindow = DefaultFastWindow
	}
	if s.SlowWindow == 0 {
		s.SlowWindow = DefaultSlowWindow
	}
	if s.FastWindow <= 0 || s.SlowWindow <= 0 || s.FastWindow > s.SlowWindow {
		return fmt.Errorf("slo: class %s: windows fast=%s slow=%s invalid", s.Class, s.FastWindow, s.SlowWindow)
	}
	if s.Target < 0 {
		s.Target = 0
	}
	return nil
}

// Options parameterizes engine construction.
type Options struct {
	// Now is the engine clock in nanoseconds (shared with the runtime so
	// deadline misses and windows agree). nil uses a process-start
	// monotonic clock via time.
	Now func() int64
	// epoch overrides the derived epoch duration (the window-quantization
	// grain, min(fast windows)/4 clamped to >= 1ms); only this package's
	// tests set it.
	epoch time.Duration
}

// cell is one epoch's cumulative snapshot: everything ever recorded to the
// owning track at the moment the epoch was closed. epoch is -1 while unused.
type cell struct {
	epoch   int64
	count   int64
	missed  int64
	buckets [metrics.StripedBuckets]int64
}

// track is one class's accounting. The striped fields are the lock-free
// write side; ring and the objective knobs are rotated/read only while the
// owning Engine's mutex is held.
type track struct {
	class string
	// target is the deadline in seconds, read on the record hot path and
	// swapped atomically on policy reload. 0 = best-effort.
	target metrics.AtomicGauge
	// Reloadable objective knobs (engine mutex).
	missBudget float64
	percentile float64
	burnThresh float64
	// Fixed window geometry in nanoseconds.
	fastNS int64
	slowNS int64

	// hist is the class's completion record (its merged count is the
	// completion total); Bind swaps in a caller's histogram.
	hist   *metrics.StripedHistogram
	missed *metrics.StripedCounter
	ring   []cell
}

// Engine evaluates SLO attainment for a fixed set of classes. The zero
// class index corresponds to specs[0] at construction, matching the
// runtime's class-ID order. A nil *Engine is valid and records nothing.
type Engine struct {
	now     func() int64
	epochNS int64
	ringN   int64

	mu sync.Mutex
	// lastClosed is the newest epoch rotated into every ring; guarded by mu.
	lastClosed int64
	byName     map[string]int
	tracks     []track
	// reports and diff are evaluation scratch; guarded by mu.
	reports []Report
	diff    [metrics.StripedBuckets]int64
}

// New builds an engine for specs, indexed by position (class ID order).
func New(specs []Spec, opts Options) (*Engine, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("slo: no specs")
	}
	now := opts.Now
	if now == nil {
		start := time.Now()
		now = func() int64 { return int64(time.Since(start)) }
	}
	e := &Engine{
		now:    now,
		byName: make(map[string]int, len(specs)),
		tracks: make([]track, len(specs)),
	}
	minFast, maxSlow := time.Duration(0), time.Duration(0)
	for i := range specs {
		s := specs[i]
		if err := s.normalize(); err != nil {
			return nil, err
		}
		if _, dup := e.byName[s.Class]; dup {
			return nil, fmt.Errorf("slo: duplicate class %s", s.Class)
		}
		e.byName[s.Class] = i
		t := &e.tracks[i]
		t.class = s.Class
		t.target.Set(s.Target)
		t.missBudget = s.MissBudget
		t.percentile = s.Percentile
		t.burnThresh = s.BurnThreshold
		t.fastNS = s.FastWindow.Nanoseconds()
		t.slowNS = s.SlowWindow.Nanoseconds()
		t.hist = metrics.NewStripedHistogram(0)
		t.missed = metrics.NewStripedCounter(0)
		if minFast == 0 || s.FastWindow < minFast {
			minFast = s.FastWindow
		}
		if s.SlowWindow > maxSlow {
			maxSlow = s.SlowWindow
		}
	}
	epoch := opts.epoch
	if epoch <= 0 {
		epoch = minFast / 4
	}
	if epoch < time.Millisecond {
		epoch = time.Millisecond
	}
	e.epochNS = epoch.Nanoseconds()
	cells := int64(maxSlow)/e.epochNS + 2
	if cells < 4 {
		cells = 4
	}
	if cells > 4096 {
		// Ring memory cap: baselines past the retained span clamp to the
		// oldest snapshot (bounded staleness) instead of growing the ring.
		cells = 4096
	}
	e.ringN = int64(1) << bits.Len64(uint64(cells-1))
	for i := range e.tracks {
		r := make([]cell, e.ringN)
		for j := range r {
			r[j].epoch = -1
		}
		e.tracks[i].ring = r
	}
	// Epochs before construction are closed-empty: baselines before the
	// first snapshot fall back to the zero cumulative state. The engine is
	// not yet published; the lock is for the guard contract, not contention.
	e.mu.Lock()
	e.lastClosed = now()/e.epochNS - 1
	e.mu.Unlock()
	return e, nil
}

// Classes reports the number of tracked classes (0 for nil).
func (e *Engine) Classes() int {
	if e == nil {
		return 0
	}
	return len(e.tracks)
}

// EpochNS reports the window-quantization grain in nanoseconds.
func (e *Engine) EpochNS() int64 {
	if e == nil {
		return 0
	}
	return e.epochNS
}

// Bind makes h the record of class's completions in place of the track's
// own histogram: the caller records each completion into h and judges it
// with Missed. Call before the class records anything, as the runtime does
// when the engine is attached.
func (e *Engine) Bind(class int, h *metrics.StripedHistogram) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tracks[class].hist = h
}

// Observe records one completed request — seconds of service time for
// class — and judges it (Missed). Reports whether the request missed its
// class deadline. Safe on a nil receiver and for out-of-range classes
// (records nothing, reports false). Lock-free and allocation-free: one
// histogram record, one atomic gauge load, one counter increment on a miss.
//
//dbwlm:hotpath
func (e *Engine) Observe(class int32, seconds float64) bool {
	if e == nil || class < 0 || int(class) >= len(e.tracks) {
		return false
	}
	e.tracks[class].hist.Record(seconds)
	return e.Missed(class, seconds)
}

// Missed judges one completion the caller has already recorded into the
// class's histogram: it reports whether seconds exceeded the class deadline
// and, if so, counts the miss. The record must come first — evaluations load
// the miss counter before merging the histogram, which keeps Missed <= Total
// in every cumulative report. Safe on a nil receiver and for out-of-range
// classes (reports false). Lock-free and allocation-free.
//
//dbwlm:hotpath
func (e *Engine) Missed(class int32, seconds float64) bool {
	if e == nil || class < 0 || int(class) >= len(e.tracks) {
		return false
	}
	t := &e.tracks[class]
	if target := t.target.Value(); target > 0 && seconds > target {
		t.missed.Inc()
		return true
	}
	return false
}

// SetObjective reloads a class's objective knobs (deadline seconds, miss
// budget, percentile, burn threshold — zero values select defaults, target
// <= 0 means best-effort). Window geometry is fixed at construction and not
// reloadable. Unknown classes error.
func (e *Engine) SetObjective(class string, target, missBudget, percentile, burnThresh float64) error {
	if e == nil {
		return fmt.Errorf("slo: engine disabled")
	}
	s := Spec{Class: class, Target: target, MissBudget: missBudget,
		Percentile: percentile, BurnThreshold: burnThresh}
	if err := s.normalize(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	i, ok := e.byName[class]
	if !ok {
		return fmt.Errorf("slo: unknown class %q", class)
	}
	t := &e.tracks[i]
	t.target.Set(s.Target)
	t.missBudget = s.MissBudget
	t.percentile = s.Percentile
	t.burnThresh = s.BurnThreshold
	return nil
}

// Specs reports the current per-class objectives in class-ID order.
func (e *Engine) Specs() []Spec {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Spec, len(e.tracks))
	for i := range e.tracks {
		t := &e.tracks[i]
		out[i] = Spec{
			Class:         t.class,
			Target:        t.target.Value(),
			MissBudget:    t.missBudget,
			Percentile:    t.percentile,
			BurnThreshold: t.burnThresh,
			FastWindow:    time.Duration(t.fastNS),
			SlowWindow:    time.Duration(t.slowNS),
		}
	}
	return out
}

// WindowReport is one evaluation window's view of a class.
type WindowReport struct {
	// Name is "fast" or "slow"; Seconds its nominal width (true coverage
	// is quantized up by less than one epoch).
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	// Total and Missed are the windowed completion and deadline-miss
	// counts; MissRate their ratio.
	Total    int64   `json:"total"`
	Missed   int64   `json:"missed"`
	MissRate float64 `json:"miss_rate"`
	// BurnRate is MissRate over the class miss budget: 1 consumes the
	// error budget exactly at the sustainable rate, above 1 overdraws it.
	BurnRate float64 `json:"burn_rate"`
	// Latency is the windowed latency percentile (Report.Percentile) in
	// seconds.
	Latency float64 `json:"latency_seconds"`
}

// Report is one class's SLO evaluation.
type Report struct {
	Class string `json:"class"`
	// TargetSeconds is the deadline (0 = best-effort).
	TargetSeconds float64 `json:"target_seconds"`
	MissBudget    float64 `json:"miss_budget"`
	Percentile    float64 `json:"percentile"`
	BurnThreshold float64 `json:"burn_threshold"`
	// Total and Missed are the cumulative (since-start) counts.
	Total  int64 `json:"total"`
	Missed int64 `json:"missed"`
	// Windows holds the fast then the slow window.
	Windows [2]WindowReport `json:"windows"`
	// BudgetRemaining is the unconsumed fraction of the cumulative error
	// budget, clamped at 0: 1 − (Missed/Total)/MissBudget over the
	// since-start counts (1 = untouched, 0 = exhausted/overdrawn). It is
	// deliberately charged against lifetime counts rather than the slow
	// window — Burning says the class is spending budget too fast right now,
	// BudgetRemaining says how much is left to spend, and a long healthy
	// history keeps the second true after the first fires.
	BudgetRemaining float64 `json:"budget_remaining"`
	// Burning reports both windows at or above BurnThreshold — the
	// multi-window burn-rate alert condition.
	Burning bool `json:"burning"`
}

// advance closes every epoch that ended before now, rotating one cumulative
// snapshot per track per closed epoch into the ring. Caller holds e.mu.
//
//dbwlm:locked mu
func (e *Engine) advance(now int64) {
	cur := now / e.epochNS
	if cur-1 <= e.lastClosed {
		return
	}
	first := e.lastClosed + 1
	if first < cur-e.ringN {
		// Idle gap longer than the ring: only the cells that survive the
		// wrap need filling.
		first = cur - e.ringN
	}
	for i := range e.tracks {
		t := &e.tracks[i]
		c := snapshot(t)
		for ep := first; ep < cur; ep++ {
			cc := &t.ring[ep%e.ringN]
			*cc = c
			cc.epoch = ep
		}
	}
	e.lastClosed = cur - 1
}

// baseline resolves the cumulative snapshot subtracted for a window whose
// span starts at cutoff: the newest epoch fully closed before cutoff,
// clamped into the retained ring. nil means the zero state (window extends
// to engine start). Caller holds e.mu.
//
//dbwlm:locked mu
func (e *Engine) baseline(t *track, cutoff int64) *cell {
	if cutoff < 0 {
		return nil
	}
	b := cutoff/e.epochNS - 1
	if b > e.lastClosed {
		b = e.lastClosed
	}
	if lo := e.lastClosed - e.ringN + 1; b < lo {
		b = lo
	}
	if b < 0 {
		return nil
	}
	c := &t.ring[b%e.ringN]
	if c.epoch != b {
		return nil
	}
	return c
}

// snapshot reads t's cumulative state. The miss counter is loaded before
// the histogram merge: a completion's bucket is published before its miss is
// counted (Missed), so every miss loaded here has its record in the merge and
// Missed <= Total holds however writers race the read.
func snapshot(t *track) cell {
	c := cell{missed: t.missed.Value()}
	c.count, _ = t.hist.MergeBuckets(&c.buckets)
	return c
}

// evalTrack fills rp with t's evaluation at now. Caller holds e.mu and has
// already advanced to now.
//
//dbwlm:locked mu
func (e *Engine) evalTrack(t *track, now int64, rp *Report) {
	cur := snapshot(t)
	*rp = Report{
		Class:         t.class,
		TargetSeconds: t.target.Value(),
		MissBudget:    t.missBudget,
		Percentile:    t.percentile,
		BurnThreshold: t.burnThresh,
		Total:         cur.count,
		Missed:        cur.missed,
	}
	names := [2]string{"fast", "slow"}
	spans := [2]int64{t.fastNS, t.slowNS}
	for wi := 0; wi < 2; wi++ {
		w := &rp.Windows[wi]
		w.Name = names[wi]
		w.Seconds = float64(spans[wi]) / 1e9
		w.Total, w.Missed = cur.count, cur.missed
		e.diff = cur.buckets
		if base := e.baseline(t, now-spans[wi]); base != nil {
			w.Total -= base.count
			// A completion recorded before the baseline's merge but judged
			// after its miss load carries its miss into the window without
			// its record; the clamp keeps windowed Missed <= Total too.
			w.Missed = min(w.Missed-base.missed, w.Total)
			for i := range e.diff {
				e.diff[i] -= base.buckets[i]
			}
		}
		w.Latency = metrics.BucketPercentile(&e.diff, w.Total, t.percentile)
		if w.Total > 0 {
			w.MissRate = float64(w.Missed) / float64(w.Total)
		}
		if rp.TargetSeconds > 0 && t.missBudget > 0 {
			w.BurnRate = w.MissRate / t.missBudget
		}
	}
	rp.BudgetRemaining = 1
	if rp.TargetSeconds > 0 && t.missBudget > 0 && cur.count > 0 {
		rp.BudgetRemaining = 1 - float64(cur.missed)/float64(cur.count)/t.missBudget
		if rp.BudgetRemaining < 0 {
			rp.BudgetRemaining = 0
		}
	}
	rp.Burning = rp.TargetSeconds > 0 &&
		rp.Windows[0].BurnRate >= t.burnThresh &&
		rp.Windows[1].BurnRate >= t.burnThresh
}

// evalInto advances to now and evaluates every track into e.reports.
// Caller holds e.mu.
//
//dbwlm:locked mu
func (e *Engine) evalInto(now int64) []Report {
	e.advance(now)
	if cap(e.reports) < len(e.tracks) {
		e.reports = make([]Report, len(e.tracks))
	}
	e.reports = e.reports[:len(e.tracks)]
	for i := range e.tracks {
		e.evalTrack(&e.tracks[i], now, &e.reports[i])
	}
	return e.reports
}

// Evaluate reports every class's SLO state at the engine clock's now. The
// returned slice is freshly allocated; nil receiver reports nil.
func (e *Engine) Evaluate() []Report {
	if e == nil {
		return nil
	}
	now := e.now()
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Report, len(e.tracks))
	copy(out, e.evalInto(now))
	return out
}

// EvaluateInto is Evaluate reusing dst (grown as needed) — the MAPE loop's
// per-cycle call, allocation-free once dst has capacity.
func (e *Engine) EvaluateInto(dst []Report) []Report {
	if e == nil {
		return dst[:0]
	}
	now := e.now()
	e.mu.Lock()
	defer e.mu.Unlock()
	rs := e.evalInto(now)
	if cap(dst) < len(rs) {
		dst = make([]Report, len(rs))
	}
	dst = dst[:len(rs)]
	copy(dst, rs)
	return dst
}
