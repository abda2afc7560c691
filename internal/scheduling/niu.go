package scheduling

import "math"

// This file implements the utility-function cost-limit planner of Niu et
// al. [60] ("Workload Adaptation in Autonomic DBMSs"): periodically choose
// per-class cost limits that maximize total utility, where each class's
// utility is a function of its predicted SLO attainment under a candidate
// allocation and its business importance, and the prediction comes from an
// analytic (M/M/1-PS) performance model.

// ClassGoal describes one service class to the planner.
type ClassGoal struct {
	Name string
	// Importance scales the class's utility (business importance).
	Importance float64
	// TargetRT is the class's response-time goal in seconds.
	TargetRT float64
}

// ClassLoad is the planner's view of a class's recent demand.
type ClassLoad struct {
	// ArrivalRate in requests/second.
	ArrivalRate float64
	// MeanServiceSeconds is the mean demand per request in SERVER-seconds
	// (stand-alone runtime × the fraction of the server the query uses):
	// ArrivalRate × MeanServiceSeconds is then the class's utilization of
	// the whole server, which is what the M/M/1-PS model reasons over.
	MeanServiceSeconds float64
	// MeanTimerons is the mean estimated cost per request.
	MeanTimerons float64
}

// Utility maps predicted attainment (targetRT / predictedRT) to [0, 1] with
// a sigmoid centred at attainment 1 — the utility-function shape of Kephart
// & Das [34] used by Niu's objective function.
func Utility(attainment float64) float64 {
	if math.IsInf(attainment, 1) {
		return 1
	}
	// Logistic in log-attainment: 0.5 at attainment 1, saturating smoothly.
	x := math.Log(math.Max(attainment, 1e-9)) * 3
	return 1 / (1 + math.Exp(-x))
}

// Planner computes per-class capacity fractions and cost limits.
type Planner struct {
	Goals []ClassGoal
	// Granularity is the capacity increment used by the hill climb
	// (default 0.05 = 5% of the server).
	Granularity float64
	// ServerTimeronsPerSecond converts capacity fractions into running
	// cost limits.
	ServerTimeronsPerSecond float64
	// Slack scales the cost limits above the bare in-flight demand so the
	// class can keep its pipeline full (mean residence exceeds mean service
	// under queueing; default 3).
	Slack float64
}

// Plan allocates capacity fractions to classes to maximize total
// importance-weighted utility, greedily in Granularity increments, and
// converts them into per-class running-cost limits:
//
//	limit_c = fraction_c × ServerTimeronsPerSecond × meanServiceSeconds_c
//
// (a class may keep limit/meanCost requests in flight at once).
func (p *Planner) Plan(loads map[string]ClassLoad) map[string]float64 {
	gran := p.Granularity
	if gran <= 0 {
		gran = 0.05
	}
	frac := make(map[string]float64, len(p.Goals))
	steps := int(math.Round(1 / gran))
	// Greedy marginal-utility allocation.
	for s := 0; s < steps; s++ {
		bestGain := 0.0
		bestClass := ""
		for _, g := range p.Goals {
			l, ok := loads[g.Name]
			if !ok || l.ArrivalRate <= 0 {
				continue
			}
			cur := p.classUtility(g, l, frac[g.Name])
			next := p.classUtility(g, l, frac[g.Name]+gran)
			gain := next - cur
			if gain > bestGain+1e-12 {
				bestGain = gain
				bestClass = g.Name
			}
		}
		if bestClass == "" {
			break // no class benefits from more capacity
		}
		frac[bestClass] += gran
	}
	// Convert to cost limits.
	limits := make(map[string]float64, len(frac))
	for _, g := range p.Goals {
		l := loads[g.Name]
		f := frac[g.Name]
		if f <= 0 {
			// Minimum trickle so no class is fully starved.
			f = gran / 2
		}
		slack := p.Slack
		if slack <= 0 {
			slack = 3
		}
		limits[g.Name] = f * p.ServerTimeronsPerSecond * math.Max(l.MeanServiceSeconds, 0.001) * slack
	}
	return limits
}

// classUtility predicts the class's utility if given capacity fraction f.
// While the class is unstable under f (offered load exceeds the fraction) a
// small linear term keeps the utility strictly increasing in f, so the greedy
// climb has a gradient to follow toward stability.
func (p *Planner) classUtility(g ClassGoal, l ClassLoad, f float64) float64 {
	if f <= 0 || l.MeanServiceSeconds <= 0 {
		return 0
	}
	rho := l.ArrivalRate * l.MeanServiceSeconds / f
	if rho >= 1 {
		return g.Importance * 0.001 / rho // unstable: tiny but increasing in f
	}
	rt := PSResponseTime(l.ArrivalRate, l.MeanServiceSeconds, f)
	att := g.TargetRT / rt
	return g.Importance * (Utility(att) + 0.001)
}
