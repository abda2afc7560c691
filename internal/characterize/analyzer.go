package characterize

import (
	"fmt"
	"math"
	"sort"

	"dbwlm/internal/learn"
	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
	"dbwlm/internal/sqlmini"
	"dbwlm/internal/workload"
)

// This file implements a workload analyzer in the mould of Teradata Workload
// Analyzer (Section 4.1.3.A of the paper): it mines a query log (DBQL),
// groups queries into candidate workloads along the "who" and "what"
// dimensions, supports merging and splitting candidates, and recommends
// workload definitions with service-level goals derived from the observed
// response-time distribution.

// CandidateWorkload is one recommended grouping of logged queries.
type CandidateWorkload struct {
	Name string
	// App is the "who" dimension shared by the group ("" if mixed).
	App string
	// Type is the "what" dimension (statement type) of the group.
	Type sqlmini.StatementType
	// CostBand is the log10 bucket of estimated timerons.
	CostBand int
	// Count is the number of logged queries in the group.
	Count int
	// MeanTimerons and P95Seconds summarize the group.
	MeanTimerons float64
	P95Seconds   float64
	// RecommendedPriority follows cost and origin heuristics: cheap
	// transactional work is ranked higher than expensive analytics.
	RecommendedPriority policy.Priority
	// RecommendedSLG is the service-level goal suggestion: the observed p95
	// with 50% headroom.
	RecommendedSLG policy.SLO
}

// LogRecord is one query-log entry the analyzer consumes: a request plus its
// observed response time (the DBQL view).
type LogRecord struct {
	Req             *workload.Request
	ResponseSeconds float64
}

// Analyzer mines query logs into workload recommendations.
type Analyzer struct {
	// MinGroupSize drops candidate groups smaller than this (default 5).
	MinGroupSize int
}

type groupKey struct {
	app      string
	typ      sqlmini.StatementType
	costBand int
}

func costBand(timerons float64) int {
	if timerons < 1 {
		return 0
	}
	return int(math.Log10(timerons))
}

// Analyze groups the log along (app, statement type, cost band) and returns
// candidate workloads ordered by descending count.
func (a *Analyzer) Analyze(log []LogRecord) []CandidateWorkload {
	minSize := a.MinGroupSize
	if minSize <= 0 {
		minSize = 5
	}
	groups := make(map[groupKey][]LogRecord)
	for _, rec := range log {
		if rec.Req == nil {
			continue
		}
		k := groupKey{
			app:      rec.Req.Origin.App,
			typ:      rec.Req.Type,
			costBand: costBand(rec.Req.Est.Timerons),
		}
		groups[k] = append(groups[k], rec)
	}
	var out []CandidateWorkload
	for k, recs := range groups {
		if len(recs) < minSize {
			continue
		}
		out = append(out, a.summarize(k, recs))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func (a *Analyzer) summarize(k groupKey, recs []LogRecord) CandidateWorkload {
	var costSum float64
	times := make([]float64, 0, len(recs))
	for _, r := range recs {
		costSum += r.Req.Est.Timerons
		times = append(times, r.ResponseSeconds)
	}
	sort.Float64s(times)
	p95 := times[int(0.95*float64(len(times)-1))]
	mean := costSum / float64(len(recs))

	pri := policy.PriorityLow
	switch {
	case k.typ == sqlmini.StmtWrite && mean < 1000:
		pri = policy.PriorityHigh // cheap transactional writes
	case mean < 1000:
		pri = policy.PriorityMedium
	case mean < 100000:
		pri = policy.PriorityLow
	}
	cw := CandidateWorkload{
		Name:                fmt.Sprintf("%s-%v-band%d", orDefault(k.app, "any"), k.typ, k.costBand),
		App:                 k.app,
		Type:                k.typ,
		CostBand:            k.costBand,
		Count:               len(recs),
		MeanTimerons:        mean,
		P95Seconds:          p95,
		RecommendedPriority: pri,
		RecommendedSLG: policy.PercentileResponseTime(95,
			sim.DurationFromSeconds(p95*1.5)),
	}
	return cw
}

func orDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

// Merge combines two candidates into one (the analyst's refinement step).
// The merged candidate keeps the weaker (higher) SLG and the lower priority.
func Merge(a, b CandidateWorkload, name string) CandidateWorkload {
	out := a
	out.Name = name
	out.Count = a.Count + b.Count
	out.MeanTimerons = (a.MeanTimerons*float64(a.Count) + b.MeanTimerons*float64(b.Count)) / float64(out.Count)
	if b.P95Seconds > out.P95Seconds {
		out.P95Seconds = b.P95Seconds
	}
	if b.RecommendedPriority < out.RecommendedPriority {
		out.RecommendedPriority = b.RecommendedPriority
	}
	if a.App != b.App {
		out.App = ""
	}
	out.RecommendedSLG = policy.PercentileResponseTime(95,
		sim.DurationFromSeconds(out.P95Seconds*1.5))
	return out
}

// Split divides a candidate along a timeron threshold into a cheap and an
// expensive sub-candidate, re-analyzing the underlying records.
func (a *Analyzer) Split(cand CandidateWorkload, log []LogRecord, timerons float64) (cheap, costly CandidateWorkload) {
	var lo, hi []LogRecord
	for _, rec := range log {
		if rec.Req == nil || rec.Req.Origin.App != cand.App || rec.Req.Type != cand.Type ||
			costBand(rec.Req.Est.Timerons) != cand.CostBand {
			continue
		}
		if rec.Req.Est.Timerons <= timerons {
			lo = append(lo, rec)
		} else {
			hi = append(hi, rec)
		}
	}
	k := groupKey{app: cand.App, typ: cand.Type, costBand: cand.CostBand}
	if len(lo) > 0 {
		cheap = a.summarize(k, lo)
		cheap.Name = cand.Name + "-cheap"
	}
	if len(hi) > 0 {
		costly = a.summarize(k, hi)
		costly.Name = cand.Name + "-costly"
	}
	return cheap, costly
}

// ToDefinition converts a candidate into a workload definition + service
// class pair ready to install in a Router.
func (c CandidateWorkload) ToDefinition() (*WorkloadDef, *ServiceClass) {
	var match Matcher
	band := c.CostBand
	lo := math.Pow(10, float64(band))
	hi := math.Pow(10, float64(band+1))
	tm := TypeMatcher{Types: []sqlmini.StatementType{c.Type}, MinTimerons: lo, MaxTimerons: hi}
	if c.App != "" {
		match = All{OriginMatcher{App: c.App}, tm}
	} else {
		match = tm
	}
	class := &ServiceClass{
		Name:     "SC-" + c.Name,
		Priority: c.RecommendedPriority,
		SLO:      c.RecommendedSLG,
	}
	def := &WorkloadDef{
		Name:         c.Name,
		Match:        match,
		ServiceClass: class.Name,
		Priority:     c.RecommendedPriority,
		HasPriority:  true,
	}
	return def, class
}

// InstallRecommendations builds a router from candidates (most numerous
// first, as earlier definitions win ties).
func InstallRecommendations(cands []CandidateWorkload, deflt *ServiceClass) *Router {
	r := NewRouter(deflt)
	for _, c := range cands {
		def, class := c.ToDefinition()
		r.AddClass(class)
		r.AddDef(def)
	}
	return r
}

// AnalyzeClustered discovers candidate workloads by k-means clustering over
// (log-cost, log-response-time) instead of discrete cost bands — the
// data-driven grouping alternative for logs whose cost structure does not
// fall on decade boundaries. Clusters are further keyed by statement type
// (a READ and a WRITE never share a candidate).
func (a *Analyzer) AnalyzeClustered(log []LogRecord, k int, rng *sim.RNG) []CandidateWorkload {
	minSize := a.MinGroupSize
	if minSize <= 0 {
		minSize = 5
	}
	const dims = 2
	var recs []LogRecord
	var points []float64 // row-major, dims per record
	for _, rec := range log {
		if rec.Req == nil {
			continue
		}
		recs = append(recs, rec)
		points = append(points,
			math.Log1p(rec.Req.Est.Timerons),
			math.Log1p(rec.ResponseSeconds))
	}
	if len(recs) == 0 {
		return nil
	}
	res := learn.KMeansFlat(learn.NormalizeFlat(points, len(recs), dims), len(recs), dims, k, 50, rng)

	type ckey struct {
		cluster int
		typ     sqlmini.StatementType
	}
	groups := make(map[ckey][]LogRecord)
	for i, rec := range recs {
		groups[ckey{res.Assignments[i], rec.Req.Type}] = append(
			groups[ckey{res.Assignments[i], rec.Req.Type}], rec)
	}
	var out []CandidateWorkload
	for key, grp := range groups {
		if len(grp) < minSize {
			continue
		}
		// Summarize with the banded summarizer keyed on the dominant app.
		apps := map[string]int{}
		var costSum float64
		for _, rec := range grp {
			apps[rec.Req.Origin.App]++
			costSum += rec.Req.Est.Timerons
		}
		app, appN := "", 0
		for name, n := range apps {
			if n > appN {
				app, appN = name, n
			}
		}
		if appN*2 < len(grp) {
			app = "" // no dominant app: wildcard
		}
		gk := groupKey{app: app, typ: key.typ, costBand: costBand(costSum / float64(len(grp)))}
		cand := a.summarize(gk, grp)
		cand.Name = fmt.Sprintf("cluster%d-%v", key.cluster, key.typ)
		out = append(out, cand)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Name < out[j].Name
	})
	return out
}
