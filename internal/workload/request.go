// Package workload defines database requests and the synthetic workload
// generators used throughout the experiments: OLTP transaction streams, BI
// query mixes, report-generation batches, ad-hoc queries, and on-line
// database utilities — the workload types the paper's consolidation scenario
// (Section 1) places on one shared server.
package workload

import (
	"fmt"
	"slices"
	"sync"

	"dbwlm/internal/engine"
	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
	"dbwlm/internal/sqlmini"
)

// Origin identifies "who" issued a request (Section 2.2): the connection
// attributes DB2 workloads and Teradata classification criteria match on.
type Origin struct {
	App       string
	User      string
	ClientIP  string
	SessionID int64
}

// Estimates are the optimizer's predictions for a request — the only
// information admission control has before execution (Section 3.2). They may
// be wrong; the engine runs the true QuerySpec.
type Estimates struct {
	CPUSeconds float64
	IOMB       float64
	MemMB      float64
	Rows       float64
	// Timerons is the composite optimizer cost in DB2-style units.
	Timerons float64
}

// TimeronsOf computes the composite cost from CPU and IO components.
//
//dbwlm:hotpath
func TimeronsOf(cpuSeconds, ioMB float64) float64 {
	return cpuSeconds*1000 + ioMB*10
}

// Request is one unit of work flowing through the workload manager.
//
// Generators draw requests from NewRequest's pool. A request handed to the
// workload manager (dbwlm.Manager.Submit) belongs to it: the manager returns
// it to the pool once its run is over, so code that needs a request after
// that keeps a Clone.
type Request struct {
	ID int64
	// SQL is the statement text. The request owns the array: FreeRequest
	// keeps it for the next request, and Clone copies it.
	SQL  []byte
	Type sqlmini.StatementType

	Origin   Origin
	Workload string // generator-assigned workload name (ground truth label)
	Priority policy.Priority
	SLO      policy.SLO

	Arrive sim.Time
	Est    Estimates
	True   engine.QuerySpec

	// Resubmit counts kill-and-resubmit cycles.
	Resubmit int
}

// requestPool recycles requests from their owner (FreeRequest) to the
// generators (NewRequest).
var requestPool = sync.Pool{New: func() any { return new(Request) }}

// NewRequest returns a zero request for a generator to fill in. Its SQL and
// True.Locks are empty but may keep the arrays of a request freed before: a
// generator appends its text and locks to them rather than allocating its
// own.
func NewRequest() *Request { return requestPool.Get().(*Request) }

// FreeRequest returns r to NewRequest's pool, keeping its SQL and lock
// arrays. Only r's owner calls it, once nothing will read r again; in this
// repository that is the workload manager. r's arrays must be its own,
// shared with no other request or spec.
func FreeRequest(r *Request) {
	sql, locks := r.SQL[:0], r.True.Locks[:0]
	*r = Request{}
	r.SQL, r.True.Locks = sql, locks
	requestPool.Put(r)
}

// Clone returns a copy of r that shares no SQL or lock array with r: what an
// observer keeps of a request past the point its owner frees it.
func (r *Request) Clone() *Request {
	c := *r
	c.SQL = slices.Clone(r.SQL)
	c.True.Locks = slices.Clone(r.True.Locks)
	return &c
}

// String renders a short identification of the request.
func (r *Request) String() string {
	return fmt.Sprintf("req %d [%s/%s %v est=%.0f timerons]",
		r.ID, r.Workload, r.Type, r.Priority, r.Est.Timerons)
}

// EstimateModel derives optimizer estimates and true engine work from a
// sqlmini plan, applying multiplicative lognormal error to the true values —
// the "query costs estimated by the optimizer may be inaccurate" premise of
// Section 2.3 that motivates execution control.
type EstimateModel struct {
	rng *sim.RNG
	// Sigma is the lognormal error shape; 0 makes estimates exact.
	Sigma float64
}

// NewEstimateModel returns an estimate model with error shape sigma over rng.
func NewEstimateModel(rng *sim.RNG, sigma float64) *EstimateModel {
	return &EstimateModel{rng: rng, Sigma: sigma}
}

// FromPlan converts a plan into (estimates, true spec). The plan totals are
// the estimate; the truth is the estimate perturbed by unbiased noise.
func (m *EstimateModel) FromPlan(p *sqlmini.Plan, parallelism float64) (Estimates, engine.QuerySpec) {
	cost := sqlmini.CostOf(p)
	est := Estimates{
		CPUSeconds: cost.CPUSeconds,
		IOMB:       cost.IOMB,
		MemMB:      cost.MemMB,
		Rows:       cost.Rows,
	}
	est.Timerons = TimeronsOf(est.CPUSeconds, est.IOMB)
	noise := func() float64 { return m.rng.UnbiasedLogNormal(m.Sigma) }
	spec := engine.QuerySpec{
		CPUWork:     est.CPUSeconds * noise(),
		IOWork:      est.IOMB * noise(),
		MemMB:       est.MemMB,
		Parallelism: parallelism,
		Rows:        int64(est.Rows * noise()),
		StateMB:     cost.StateMB,
	}
	return est, spec
}

// FromSpec derives estimates from a known true spec by perturbing it — the
// inverse direction, used when a generator constructs work directly.
func (m *EstimateModel) FromSpec(spec engine.QuerySpec) Estimates {
	noise := func() float64 { return m.rng.UnbiasedLogNormal(m.Sigma) }
	est := Estimates{
		CPUSeconds: spec.CPUWork * noise(),
		IOMB:       spec.IOWork * noise(),
		MemMB:      spec.MemMB,
		Rows:       float64(spec.Rows) * noise(),
	}
	est.Timerons = TimeronsOf(est.CPUSeconds, est.IOMB)
	return est
}
