package progress

import (
	"dbwlm/internal/sqlmini"
)

// PlanProgress maps a query's overall progress fraction onto its physical
// plan — the cost-based, per-operator progress indication of GSLPI (Li et
// al. [43]) and SQL Server Live Query Statistics (Lee et al. [41]): which
// operator is running, how far along each operator is, and a cost-weighted
// remaining-work estimate. The engine charges work in plan post-order, so
// cumulative estimated CPU positions the execution point.
type PlanProgress struct {
	plan   *sqlmini.Plan
	ops    []*sqlmini.Operator
	cumCPU []float64 // cumulative CPU cost up to and including op i
	total  float64
}

// NewPlanProgress prepares per-operator cost positions for a plan.
//
//dbwlm:nolint deadcode -- registry row "query progress indicators" runs only under tests; the ROADMAP item "Every registry row runs in a binary, or is deleted" wires it in or deletes it
func NewPlanProgress(plan *sqlmini.Plan) *PlanProgress {
	ops := plan.Operators()
	p := &PlanProgress{plan: plan, ops: ops, cumCPU: make([]float64, len(ops))}
	var cum float64
	for i, op := range ops {
		cum += op.EstCPU
		p.cumCPU[i] = cum
	}
	p.total = cum
	return p
}

// Operators returns the plan's operators in execution (post-) order.
//
//dbwlm:nolint deadcode -- registry row "query progress indicators" runs only under tests; the ROADMAP item "Every registry row runs in a binary, or is deleted" wires it in or deletes it
func (p *PlanProgress) Operators() []*sqlmini.Operator { return p.ops }

// OperatorFractions reports each operator's completion fraction at overall
// progress f in [0, 1].
func (p *PlanProgress) OperatorFractions(f float64) []float64 {
	out := make([]float64, len(p.ops))
	if p.total <= 0 {
		return out
	}
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	done := f * p.total
	var start float64
	for i, op := range p.ops {
		end := p.cumCPU[i]
		switch {
		case done >= end:
			out[i] = 1
		case done <= start:
			out[i] = 0
		default:
			if op.EstCPU > 0 {
				out[i] = (done - start) / op.EstCPU
			}
		}
		start = end
	}
	return out
}

// CurrentOperator reports the index of the operator executing at overall
// progress f (the last operator when f >= 1, 0 for an empty plan).
func (p *PlanProgress) CurrentOperator(f float64) int {
	if len(p.ops) == 0 {
		return 0
	}
	if p.total <= 0 || f >= 1 {
		return len(p.ops) - 1
	}
	if f < 0 {
		f = 0
	}
	done := f * p.total
	for i := range p.ops {
		if done < p.cumCPU[i] {
			return i
		}
	}
	return len(p.ops) - 1
}

// RemainingCPUSeconds reports the estimated CPU work left at progress f.
//
//dbwlm:nolint deadcode -- registry row "query progress indicators" runs only under tests; the ROADMAP item "Every registry row runs in a binary, or is deleted" wires it in or deletes it
func (p *PlanProgress) RemainingCPUSeconds(f float64) float64 {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return (1 - f) * p.total
}

// RemainingWallSeconds combines the cost model with an observed execution
// speed (progress fraction per second, from an Estimator): cost-based
// remaining work over measured speed — the hybrid GSLPI formulation.
//
//dbwlm:nolint deadcode -- registry row "query progress indicators" runs only under tests; the ROADMAP item "Every registry row runs in a binary, or is deleted" wires it in or deletes it
func (p *PlanProgress) RemainingWallSeconds(f, progressPerSecond float64) float64 {
	if progressPerSecond <= 0 {
		return -1 // unknown
	}
	if f >= 1 {
		return 0
	}
	return (1 - f) / progressPerSecond
}

// Describe renders a live per-operator progress view.
//
//dbwlm:nolint deadcode -- registry row "query progress indicators" runs only under tests; the ROADMAP item "Every registry row runs in a binary, or is deleted" wires it in or deletes it
func (p *PlanProgress) Describe(f float64) string {
	fr := p.OperatorFractions(f)
	cur := p.CurrentOperator(f)
	var b []byte
	for i, op := range p.ops {
		marker := "  "
		if i == cur && f < 1 {
			marker = "->"
		}
		b = append(b, []byte(
			marker+" "+op.Kind.String()+opTable(op)+": "+percent(fr[i])+"\n")...)
	}
	return string(b)
}

func opTable(op *sqlmini.Operator) string {
	if op.Table == "" {
		return ""
	}
	return "(" + op.Table + ")"
}

func percent(f float64) string {
	switch {
	case f >= 1:
		return "100%"
	case f <= 0:
		return "0%"
	default:
		return string(rune('0'+int(f*10))) + "0%" // coarse deciles for display
	}
}
