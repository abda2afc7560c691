package workload

import (
	"fmt"
	"strconv"

	"dbwlm/internal/engine"
	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
	"dbwlm/internal/sqlmini"
)

// SubmitFunc receives generated requests as they arrive.
type SubmitFunc func(*Request)

// Generator produces a stream of requests on the simulator.
type Generator interface {
	// Name is the workload name the generator labels its requests with.
	Name() string
	// Start schedules the generator's arrivals up to the horizon.
	Start(s *sim.Simulator, horizon sim.Time, submit SubmitFunc)
}

// Sequence allocates request IDs shared across generators.
type Sequence struct{ n int64 }

// Next returns the next ID.
func (s *Sequence) Next() int64 {
	s.n++
	return s.n
}

// PoissonArrivals calls fire at exponential interarrival times with the given
// rate until the horizon. The two closures are built once per stream and the
// events are detached (nobody cancels an arrival), so an arrival allocates
// nothing here.
func PoissonArrivals(s *sim.Simulator, rng *sim.RNG, rate float64, horizon sim.Time, fire func()) {
	if rate <= 0 {
		return
	}
	var arrive func()
	arm := func() {
		gap := sim.DurationFromSeconds(rng.ExpFloat64(rate))
		at := s.Now().Add(gap)
		if at > horizon {
			return
		}
		s.AtDetached(at, arrive)
	}
	arrive = func() {
		fire()
		arm()
	}
	arm()
}

// OLTPGen generates a stream of short transactional requests: point reads,
// payments (update), and order inserts, with exclusive locks drawn from a
// Zipfian key space so that contention grows with concurrency.
type OLTPGen struct {
	WorkloadName string
	Rate         float64 // arrivals per second
	Priority     policy.Priority
	SLO          policy.SLO
	LockKeys     int     // key space size (default 200)
	LockSkew     float64 // zipf skew (default 0.8)
	Seq          *Sequence
	Est          *EstimateModel
	rng          *sim.RNG
	zipf         *sim.ZipfGen
	sqlBuf       []byte // statement text is rendered here, then copied out once
}

// Name implements Generator.
func (g *OLTPGen) Name() string { return g.WorkloadName }

// Start implements Generator.
func (g *OLTPGen) Start(s *sim.Simulator, horizon sim.Time, submit SubmitFunc) {
	g.rng = s.RNG().Fork(hashLabel(g.WorkloadName))
	keys := g.LockKeys
	if keys <= 0 {
		keys = 200
	}
	skew := g.LockSkew
	if skew <= 0 {
		skew = 0.8
	}
	g.zipf = sim.NewZipfGen(g.rng.Fork(1), keys, skew)
	PoissonArrivals(s, g.rng, g.Rate, horizon, func() {
		submit(g.makeRequest(s.Now()))
	})
}

func (g *OLTPGen) makeRequest(now sim.Time) *Request {
	kind := g.rng.Intn(3)
	// The literals are drawn before the spec's, in statement order: the RNG
	// stream, and so every table, depends on it.
	sql := g.sqlBuf[:0]
	var typ sqlmini.StatementType
	var spec engine.QuerySpec
	switch kind {
	case 0: // point read
		typ = sqlmini.StmtRead
		sql = append(sql, "SELECT balance FROM accounts WHERE id = "...)
		sql = strconv.AppendInt(sql, int64(g.rng.Intn(1000000)), 10)
		spec = engine.QuerySpec{
			CPUWork: 0.008 + g.rng.Float64()*0.012,
			IOWork:  0.2 + g.rng.Float64()*0.3,
			MemMB:   2,
			Rows:    1,
			Locks:   []engine.LockReq{{Key: g.zipf.Next(), Exclusive: false, AtProgress: 0}},
		}
	case 1: // payment update
		typ = sqlmini.StmtWrite
		sql = append(sql, "UPDATE accounts SET balance = balance - "...)
		sql = strconv.AppendInt(sql, int64(1+g.rng.Intn(100)), 10)
		sql = append(sql, " WHERE id = "...)
		sql = strconv.AppendInt(sql, int64(g.rng.Intn(1000000)), 10)
		spec = engine.QuerySpec{
			CPUWork: 0.015 + g.rng.Float64()*0.025,
			IOWork:  0.4 + g.rng.Float64()*0.6,
			MemMB:   4,
			Rows:    1,
			Locks: []engine.LockReq{
				{Key: g.zipf.Next(), Exclusive: true, AtProgress: 0},
				{Key: g.zipf.Next(), Exclusive: true, AtProgress: 0.5},
			},
		}
	default: // order insert
		typ = sqlmini.StmtWrite
		sql = append(sql, "INSERT INTO orders VALUES ("...)
		sql = strconv.AppendInt(sql, int64(g.rng.Intn(1000000)), 10)
		sql = append(sql, ", "...)
		sql = strconv.AppendInt(sql, int64(g.rng.Intn(100000)), 10)
		sql = append(sql, ", "...)
		sql = strconv.AppendInt(sql, int64(1+g.rng.Intn(500)), 10)
		sql = append(sql, ')')
		spec = engine.QuerySpec{
			CPUWork: 0.01 + g.rng.Float64()*0.02,
			IOWork:  0.4 + g.rng.Float64()*0.8,
			MemMB:   4,
			Rows:    1,
			Locks:   []engine.LockReq{{Key: g.zipf.Next(), Exclusive: true, AtProgress: 0}},
		}
	}
	g.sqlBuf = sql
	var est Estimates
	if g.Est != nil {
		est = g.Est.FromSpec(spec)
	} else {
		est = Estimates{CPUSeconds: spec.CPUWork, IOMB: spec.IOWork, MemMB: spec.MemMB,
			Rows: float64(spec.Rows), Timerons: TimeronsOf(spec.CPUWork, spec.IOWork)}
	}
	return &Request{
		ID:       g.Seq.Next(),
		SQL:      string(sql),
		Type:     typ,
		Origin:   Origin{App: "pos-terminal", User: "cashier", ClientIP: "10.0.1.15"},
		Workload: g.WorkloadName,
		Priority: g.Priority,
		SLO:      g.SLO,
		Arrive:   now,
		Est:      est,
		True:     spec,
	}
}

// BITemplate is one analytical query shape with its plan-derived costs.
type BITemplate struct {
	SQL         string
	Parallelism float64
}

// DefaultBITemplates returns analytical query shapes over the default
// catalog, spanning roughly two orders of magnitude in cost.
func DefaultBITemplates() []BITemplate {
	return []BITemplate{
		{SQL: `SELECT store_id, SUM(amount) FROM sales_fact JOIN store_dim ON sales_fact.store_id = store_dim.id GROUP BY store_id`, Parallelism: 4},
		{SQL: `SELECT product_id, COUNT(*) FROM sales_fact WHERE amount > 100 GROUP BY product_id ORDER BY product_id`, Parallelism: 4},
		{SQL: `SELECT region, SUM(qty) FROM inventory_fact JOIN store_dim ON inventory_fact.store_id = store_dim.id GROUP BY region`, Parallelism: 2},
		{SQL: `SELECT d.year, SUM(f.amount) FROM sales_fact f JOIN date_dim d ON f.date_id = d.id WHERE d.year >= 2015 GROUP BY d.year`, Parallelism: 4},
		{SQL: `SELECT COUNT(*) FROM inventory_fact WHERE qty < 10`, Parallelism: 2},
	}
}

// BIGen generates long-running analytical queries from SQL templates planned
// through the cost model.
type BIGen struct {
	WorkloadName string
	Rate         float64
	Priority     policy.Priority
	SLO          policy.SLO
	Templates    []BITemplate
	Catalog      *sqlmini.Catalog
	Seq          *Sequence
	Est          *EstimateModel
	Origin       Origin

	rng   *sim.RNG
	model *sqlmini.CostModel
	plans []*sqlmini.Plan
}

// Name implements Generator.
func (g *BIGen) Name() string { return g.WorkloadName }

// Start implements Generator.
func (g *BIGen) Start(s *sim.Simulator, horizon sim.Time, submit SubmitFunc) {
	g.rng = s.RNG().Fork(hashLabel(g.WorkloadName))
	if g.Catalog == nil {
		g.Catalog = sqlmini.DefaultCatalog()
	}
	if len(g.Templates) == 0 {
		g.Templates = DefaultBITemplates()
	}
	g.model = sqlmini.NewCostModel(g.Catalog)
	g.plans = make([]*sqlmini.Plan, len(g.Templates))
	for i, tpl := range g.Templates {
		p, err := g.model.PlanSQL(tpl.SQL)
		if err != nil {
			panic(fmt.Sprintf("workload: bad BI template %q: %v", tpl.SQL, err))
		}
		g.plans[i] = p
	}
	PoissonArrivals(s, g.rng, g.Rate, horizon, func() {
		submit(g.MakeRequest(s.Now()))
	})
}

// MakeRequest builds one BI request; exported so batch generators and tests
// can draw from the same distribution.
func (g *BIGen) MakeRequest(now sim.Time) *Request {
	i := g.rng.Intn(len(g.plans))
	tpl, plan := g.Templates[i], g.plans[i]
	est, spec := g.Est.FromPlan(plan, tpl.Parallelism)
	origin := g.Origin
	if origin.App == "" {
		origin = Origin{App: "bi-dashboard", User: "analyst", ClientIP: "10.0.2.20"}
	}
	return &Request{
		ID:       g.Seq.Next(),
		SQL:      tpl.SQL,
		Type:     plan.Stmt.Type,
		Origin:   origin,
		Workload: g.WorkloadName,
		Priority: g.Priority,
		SLO:      g.SLO,
		Arrive:   now,
		Est:      est,
		True:     spec,
	}
}

// BatchGen submits a burst of requests at a fixed time — the
// report-generation batch workload of Section 2.2 ("may be done in any idle
// time window during the day").
type BatchGen struct {
	WorkloadName string
	At           sim.Time
	Count        int
	Priority     policy.Priority
	SLO          policy.SLO
	// Draw produces the i-th request of the batch.
	Draw func(i int, now sim.Time) *Request
}

// Name implements Generator.
func (g *BatchGen) Name() string { return g.WorkloadName }

// Start implements Generator.
func (g *BatchGen) Start(s *sim.Simulator, horizon sim.Time, submit SubmitFunc) {
	if g.At > horizon {
		return
	}
	s.At(g.At, func() {
		for i := 0; i < g.Count; i++ {
			r := g.Draw(i, s.Now())
			r.Workload = g.WorkloadName
			r.Priority = g.Priority
			r.SLO = g.SLO
			submit(r)
		}
	})
}

// UtilityGen submits on-line database utilities (backup, reorg, stats
// update) at fixed times — the production-impacting maintenance work of
// Parekh et al. (Section 4.2.2.A).
type UtilityGen struct {
	WorkloadName string
	Times        []sim.Time
	Priority     policy.Priority
	Seq          *Sequence
	// Kind selects the utility: "backup", "reorg", or "runstats".
	Kind string
}

// Name implements Generator.
func (g *UtilityGen) Name() string { return g.WorkloadName }

// Start implements Generator.
func (g *UtilityGen) Start(s *sim.Simulator, horizon sim.Time, submit SubmitFunc) {
	for _, at := range g.Times {
		if at > horizon {
			continue
		}
		at := at
		s.At(at, func() { submit(g.makeUtility(s.Now())) })
	}
}

func (g *UtilityGen) makeUtility(now sim.Time) *Request {
	var sql string
	var spec engine.QuerySpec
	switch g.Kind {
	case "reorg":
		sql = "CALL reorg(orders)"
		spec = engine.QuerySpec{CPUWork: 30, IOWork: 1500, MemMB: 256, Parallelism: 2, StateMB: 128}
	case "runstats":
		sql = "CALL runstats(sales_fact)"
		spec = engine.QuerySpec{CPUWork: 20, IOWork: 800, MemMB: 128, Parallelism: 2, StateMB: 64}
	default:
		sql = "CALL backup(full)"
		spec = engine.QuerySpec{CPUWork: 10, IOWork: 4000, MemMB: 128, Parallelism: 1, StateMB: 16}
	}
	return &Request{
		ID:       g.Seq.Next(),
		SQL:      sql,
		Type:     sqlmini.StmtCall,
		Origin:   Origin{App: "dba-tools", User: "dba", ClientIP: "10.0.0.2"},
		Workload: g.WorkloadName,
		Priority: g.Priority,
		SLO:      policy.BestEffort(),
		Arrive:   now,
		Est: Estimates{CPUSeconds: spec.CPUWork, IOMB: spec.IOWork, MemMB: spec.MemMB,
			Timerons: TimeronsOf(spec.CPUWork, spec.IOWork)},
		True: spec,
	}
}

// AdHocGen generates occasional unpredictable queries, including rare
// "problematic" monsters whose estimates are badly wrong — the queries
// execution control exists for (Section 2.3).
type AdHocGen struct {
	WorkloadName string
	Rate         float64
	Priority     policy.Priority
	SLO          policy.SLO
	// MonsterProb is the probability an arrival is a monster scan
	// (default 0.15).
	MonsterProb float64
	// UnderestimateFactor is how badly monster costs are underestimated
	// (default 8: the optimizer sees 1/8th of the true cost).
	UnderestimateFactor float64
	Seq                 *Sequence
	rng                 *sim.RNG
	sqlBuf              []byte
}

// Name implements Generator.
func (g *AdHocGen) Name() string { return g.WorkloadName }

// Start implements Generator.
func (g *AdHocGen) Start(s *sim.Simulator, horizon sim.Time, submit SubmitFunc) {
	g.rng = s.RNG().Fork(hashLabel(g.WorkloadName))
	PoissonArrivals(s, g.rng, g.Rate, horizon, func() {
		submit(g.makeRequest(s.Now()))
	})
}

func (g *AdHocGen) makeRequest(now sim.Time) *Request {
	monsterProb := g.MonsterProb
	if monsterProb == 0 {
		monsterProb = 0.15
	}
	under := g.UnderestimateFactor
	if under == 0 {
		under = 8
	}
	var sql string
	var spec engine.QuerySpec
	var est Estimates
	if g.rng.Bool(monsterProb) {
		sql = "SELECT * FROM sales_fact WHERE amount > 0"
		spec = engine.QuerySpec{
			CPUWork:     60 + g.rng.Float64()*40,
			IOWork:      1500 + g.rng.Float64()*1000,
			MemMB:       1200 + g.rng.Float64()*600,
			Parallelism: 4,
			Rows:        5_000_000,
			StateMB:     300,
		}
		est = Estimates{
			CPUSeconds: spec.CPUWork / under,
			IOMB:       spec.IOWork / under,
			MemMB:      spec.MemMB / 2,
			Rows:       float64(spec.Rows) / under,
		}
	} else {
		g.sqlBuf = append(g.sqlBuf[:0], "SELECT COUNT(*) FROM orders WHERE total > "...)
		g.sqlBuf = strconv.AppendInt(g.sqlBuf, int64(g.rng.Intn(1000)), 10)
		sql = string(g.sqlBuf)
		spec = engine.QuerySpec{
			CPUWork:     0.5 + g.rng.Float64()*2,
			IOWork:      50 + g.rng.Float64()*200,
			MemMB:       32 + g.rng.Float64()*64,
			Parallelism: 2,
			Rows:        int64(g.rng.Intn(10000)),
			StateMB:     8,
		}
		est = Estimates{CPUSeconds: spec.CPUWork, IOMB: spec.IOWork, MemMB: spec.MemMB, Rows: float64(spec.Rows)}
	}
	est.Timerons = TimeronsOf(est.CPUSeconds, est.IOMB)
	return &Request{
		ID:       g.Seq.Next(),
		SQL:      sql,
		Type:     sqlmini.StmtRead,
		Origin:   Origin{App: "sql-workbench", User: "analyst2", ClientIP: "10.0.3.7"},
		Workload: g.WorkloadName,
		Priority: g.Priority,
		SLO:      g.SLO,
		Arrive:   now,
		Est:      est,
		True:     spec,
	}
}

// hashLabel derives a stable RNG fork label from a string.
func hashLabel(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
