package trace

import (
	"errors"
	"fmt"
	"io"
	"math"

	"dbwlm/internal/engine"
	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
)

// Engine-direct trace replay and the divergence metric between two replays.
//
// Replay streams a trace straight into a fresh deterministic sim/engine pair
// — no admission control, no queueing — and measures what the workload
// itself does to the engine: per-class arrival rates over time and the
// distribution of response times. That is the measurement the compressor is
// judged against: a compressed trace is acceptable only if replaying it
// produces nearly the same per-class arrival shape and response-time
// histogram as replaying the original (Deep et al.'s representativity
// criterion, evaluated by execution rather than by cluster geometry).

// HistBuckets is the number of log2 response-time buckets in a class
// histogram. Bucket 0 holds responses <= histBase seconds; each later bucket
// doubles the bound; the last bucket is open-ended.
const HistBuckets = 24

// histBase is the upper bound of histogram bucket 0, in seconds.
const histBase = 0.001

// histBucket maps a response time in seconds to its bucket.
func histBucket(s float64) int {
	if !(s > histBase) { // also catches NaN
		return 0
	}
	l := math.Log2(s / histBase)
	if l >= HistBuckets-1 { // also bounds the int conversion below
		return HistBuckets - 1
	}
	return 1 + int(l)
}

// replayDrain is how long past the last arrival a replay's engine runs to let
// in-flight queries finish.
const replayDrain = 120 * sim.Second

// ReplayConfig parameterizes an engine-direct replay.
type ReplayConfig struct {
	// Engine is the engine sizing; zero fields take engine defaults.
	Engine engine.Config
	// Seed seeds the simulator RNG.
	Seed uint64
	// TimeScale multiplies arrival offsets: 0.5 replays twice as fast as
	// recorded, 2 twice as slow, 0 (or 1) in recorded time. A compressed
	// trace replayed at TimeScale = rows/totalWeight offers the engine the
	// same arrival *rate* as the original while finishing in a fraction of
	// the virtual (and wall) time.
	TimeScale float64
}

// rateWindows is the number of equal time slices a replay's arrival-rate
// curve is split into: 6, the compressor's default strata, so a stratified
// compression's weight conservation shows up as near-zero rate divergence.
const rateWindows = 6

// ClassStats is one class's replay measurement. All counts are weighted: a
// compressed row with Weight 37 contributes 37 to every bucket it lands in,
// which is what makes full and compressed replays directly comparable.
type ClassStats struct {
	Class string
	// Arrivals and Completed are weighted totals; Failed counts kills and
	// deadlocks.
	Arrivals  float64
	Completed float64
	Failed    float64
	// RespSum is the weighted sum of response seconds over completions.
	RespSum float64
	// Windows is the weighted arrival count per time slice of the replayed
	// duration — the arrival-rate curve.
	Windows []float64
	// Hist is the weighted response-time histogram (log2 buckets).
	Hist [HistBuckets]float64
	// SLOTotal and SLOMissed score the trace's recorded response-time
	// objectives offline: every finished row carrying an avg- or
	// percentile-response-time SLO adds its weight to SLOTotal, and to
	// SLOMissed when the response exceeded the row's target (kills and
	// deadlocks always miss). Best-effort, velocity, and throughput-floor
	// rows do not score. Compressed replays score the same way — a weight-37
	// representative that misses charges 37 misses — so full and compressed
	// attainment are directly comparable, like every other column here.
	SLOTotal  float64
	SLOMissed float64
}

// MeanResp reports the weighted mean response time in seconds.
func (c *ClassStats) MeanResp() float64 {
	if c.Completed <= 0 {
		return 0
	}
	return c.RespSum / c.Completed
}

// Attainment reports the weighted fraction of SLO-bearing rows that met
// their recorded objective, in [0, 1]. Classes with no scorable rows report
// 1 (nothing asked for, nothing missed).
func (c *ClassStats) Attainment() float64 {
	if c.SLOTotal <= 0 {
		return 1
	}
	return 1 - c.SLOMissed/c.SLOTotal
}

// SLODeadline extracts the row's response-time objective in seconds; 0 means
// the row does not score (best-effort rows, and the velocity and
// throughput-floor kinds, whose targets are not response bounds). Replay and
// the wlmload trace driver share this so offline and live scoring agree on
// which rows carry a deadline.
func (r *Row) SLODeadline() float64 {
	k := policy.SLOKind(r.SLOKind)
	if (k == policy.SLOAvgResponseTime || k == policy.SLOPercentileResponseTime) && r.SLOTarget > 0 {
		return r.SLOTarget
	}
	return 0
}

// ReplayStats is the result of one engine-direct replay.
type ReplayStats struct {
	// DurationUS is the replayed duration in scaled virtual microseconds.
	DurationUS int64
	// Rows is the number of trace rows submitted; TotalWeight their
	// weighted total.
	Rows        int64
	TotalWeight float64
	Classes     []ClassStats
}

// Replay streams src through a fresh engine and measures it. The run is
// fully deterministic for a given (trace, config).
func Replay(src Source, cfg ReplayConfig) (*ReplayStats, error) {
	s := sim.New(cfg.Seed)
	return replayWith(src, cfg, s, engine.New(s, cfg.Engine))
}

// replayWith is Replay's body over a caller-supplied sim/engine pair. The
// pair must be freshly constructed or freshly Reset with (cfg.Seed,
// cfg.Engine) — ReplayMany relies on Reset-equals-fresh to reuse pooled
// pairs across runs with bit-identical results.
func replayWith(src Source, cfg ReplayConfig, s *sim.Simulator, eng *engine.Engine) (*ReplayStats, error) {
	h := src.Header()
	scale := cfg.TimeScale
	if scale <= 0 {
		scale = 1
	}
	durUS := int64(float64(h.DurationUS) * scale)
	st := &ReplayStats{DurationUS: durUS}
	classAt := func(idx uint16) *ClassStats {
		for int(idx) >= len(st.Classes) {
			c := ClassStats{Class: h.ClassName(uint16(len(st.Classes)))}
			c.Windows = make([]float64, rateWindows)
			st.Classes = append(st.Classes, c)
		}
		return &st.Classes[idx]
	}
	// The class table is known up front; rows may still reference indexes
	// beyond it (classAt grows on demand).
	for i := range h.Classes {
		classAt(uint16(i))
	}

	var row Row
	var last sim.Time
	for {
		if err := src.Next(&row); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, err
		}
		var at sim.Time
		if scale != 1 {
			at = sim.Time(float64(row.ArriveUS) * scale)
		} else {
			at = sim.Time(row.ArriveUS)
		}
		if at > s.Now() {
			s.Run(at)
		}
		if at < last {
			return nil, fmt.Errorf("trace: rows not sorted: arrival %dus after %dus", row.ArriveUS, int64(last))
		}
		last = at
		w := row.Weight
		if w <= 0 {
			w = 1
		}
		c := classAt(row.Class)
		c.Arrivals += w
		wi := 0
		if durUS > 0 {
			wi = int(int64(at) * int64(rateWindows) / durUS)
			if wi >= rateWindows {
				wi = rateWindows - 1
			}
			if wi < 0 {
				wi = 0
			}
		}
		c.Windows[wi] += w
		st.Rows++
		st.TotalWeight += w
		arrive := at
		weight := w
		ci := row.Class
		deadline := row.SLODeadline()
		eng.Submit(row.Spec(), 1, func(q *engine.Query, oc engine.Outcome) {
			cs := classAt(ci)
			if oc == engine.OutcomeCompleted {
				resp := s.Now().Sub(arrive).Seconds()
				cs.Completed += weight
				cs.RespSum += weight * resp
				cs.Hist[histBucket(resp)] += weight
				if deadline > 0 {
					cs.SLOTotal += weight
					if resp > deadline {
						cs.SLOMissed += weight
					}
				}
			} else {
				cs.Failed += weight
				if deadline > 0 {
					cs.SLOTotal += weight
					cs.SLOMissed += weight
				}
			}
		})
	}
	s.Run(last.Add(replayDrain))
	return st, nil
}

// Divergence quantifies how far apart two replays are. Every component is a
// total-variation distance in [0, 1]: 0 means identical normalized shapes,
// 1 means disjoint.
type Divergence struct {
	PerClass []ClassDivergence
	// RateTV and CostTV are the worst per-class arrival-rate and response-
	// histogram distances; Max is the worst of everything.
	RateTV float64
	CostTV float64
	Max    float64
}

// ClassDivergence is the per-class breakdown.
type ClassDivergence struct {
	Class string
	// RateTV compares the arrival-rate curves (weighted arrivals per time
	// window); CostTV compares the response-time histograms.
	RateTV float64
	CostTV float64
}

// smoothHist convolves a histogram with a narrow triangular kernel
// ([1/4, 1/2, 1/4], edges renormalized by clamping into range). Both sides of
// a divergence comparison are smoothed identically, so the metric stays an
// honest total-variation distance — a shifted or reshaped distribution still
// registers — but a compressed replay whose few weighted atoms land one log2
// bucket away from the full replay's spread is no longer charged as if it
// were disjoint. Without this, the metric punishes finite-sample
// discreteness, which is inherent to any compression, rather than
// infidelity, which is not.
func smoothHist(h []float64) []float64 {
	out := make([]float64, len(h))
	for i, v := range h {
		if v == 0 {
			continue
		}
		lo, hi := i-1, i+1
		if lo < 0 {
			lo = 0
		}
		if hi > len(h)-1 {
			hi = len(h) - 1
		}
		// At the edges the clamped share stacks onto the edge bucket itself,
		// conserving total mass.
		out[lo] += v / 4
		out[i] += v / 2
		out[hi] += v / 4
	}
	return out
}

// tvDist is the total-variation distance between two non-negative vectors
// after normalizing each to sum 1. Two empty vectors are identical; one
// empty vector against a non-empty one is maximally distant.
func tvDist(p, q []float64) float64 {
	var sp, sq float64
	for _, v := range p {
		sp += v
	}
	for _, v := range q {
		sq += v
	}
	if sp <= 0 && sq <= 0 {
		return 0
	}
	if sp <= 0 || sq <= 0 {
		return 1
	}
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	var d float64
	for i := 0; i < n; i++ {
		var a, b float64
		if i < len(p) {
			a = p[i] / sp
		}
		if i < len(q) {
			b = q[i] / sq
		}
		d += math.Abs(a - b)
	}
	return d / 2
}

// Diverge compares two replays class by class (aligned by class name).
func Diverge(full, comp *ReplayStats) Divergence {
	byName := make(map[string]*ClassStats, len(comp.Classes))
	for i := range comp.Classes {
		byName[comp.Classes[i].Class] = &comp.Classes[i]
	}
	var div Divergence
	var empty ClassStats
	seen := make(map[string]bool, len(full.Classes))
	add := func(name string, f, c *ClassStats) {
		cd := ClassDivergence{
			Class:  name,
			RateTV: tvDist(f.Windows, c.Windows),
			CostTV: tvDist(smoothHist(f.Hist[:]), smoothHist(c.Hist[:])),
		}
		div.PerClass = append(div.PerClass, cd)
		if cd.RateTV > div.RateTV {
			div.RateTV = cd.RateTV
		}
		if cd.CostTV > div.CostTV {
			div.CostTV = cd.CostTV
		}
	}
	for i := range full.Classes {
		f := &full.Classes[i]
		seen[f.Class] = true
		c := byName[f.Class]
		if c == nil {
			c = &empty
		}
		add(f.Class, f, c)
	}
	for i := range comp.Classes {
		c := &comp.Classes[i]
		if !seen[c.Class] {
			add(c.Class, &empty, c)
		}
	}
	if div.RateTV > div.CostTV {
		div.Max = div.RateTV
	} else {
		div.Max = div.CostTV
	}
	return div
}
