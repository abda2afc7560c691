package characterize

import (
	"fmt"
	"math"
	"sort"

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
