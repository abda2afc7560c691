package experiments

import (
	"fmt"

	"dbwlm"
	"dbwlm/internal/autonomic"
	"dbwlm/internal/characterize"
	"dbwlm/internal/engine"
	"dbwlm/internal/execctl"
	"dbwlm/internal/policy"
	"dbwlm/internal/scheduling"
	"dbwlm/internal/sim"
	"dbwlm/internal/workload"
)

// ---------- Table 5, row 1: Niu et al. query scheduler ----------

// mediumQueryGen emits analytical queries of a few seconds each, the
// multi-class scheduling workload of Niu et al.
type mediumQueryGen struct {
	name     string
	rate     float64
	priority policy.Priority
	slo      policy.SLO
	seq      *workload.Sequence
}

func (g *mediumQueryGen) Name() string { return g.name }

func (g *mediumQueryGen) Start(s *sim.Simulator, horizon sim.Time, submit workload.SubmitFunc) {
	rng := s.RNG().Fork(uint64(len(g.name)) * 31)
	var next func()
	next = func() {
		gap := sim.DurationFromSeconds(rng.ExpFloat64(g.rate))
		at := s.Now().Add(gap)
		if at > horizon {
			return
		}
		s.At(at, func() {
			cpu := 2 + rng.Float64()*4
			io := 100 + rng.Float64()*200
			spec := engine.QuerySpec{CPUWork: cpu, IOWork: io, MemMB: 64, Parallelism: 2}
			r := workload.NewRequest()
			*r = workload.Request{
				ID:       g.seq.Next(),
				Workload: g.name,
				Priority: g.priority,
				SLO:      g.slo,
				Arrive:   s.Now(),
				True:     spec,
				Est: workload.Estimates{CPUSeconds: cpu, IOMB: io, MemMB: 64,
					Timerons: workload.TimeronsOf(cpu, io)},
			}
			submit(r)
			next()
		})
	}
	next()
}

// RunNiuScheduler compares the utility-function cost-limit scheduler of Niu
// et al. [60] against FCFS dispatch on a two-class workload with unequal
// SLOs and importance. Shape: under the scheduler the important class meets
// its goal at the expense of the best-effort class.
func RunNiuScheduler(variant string, seed uint64) Row {
	s, m := NewManager(seed)
	// Service classes match the two query classes by name, so the
	// cost-limit dispatcher budgets each class separately.
	m.Router = characterize.NewRouter(&characterize.ServiceClass{Name: "other", Weight: 1}).
		AddClass(&characterize.ServiceClass{Name: "gold", Priority: policy.PriorityHigh, Weight: 1}).
		AddClass(&characterize.ServiceClass{Name: "bronze", Priority: policy.PriorityLow, Weight: 1}).
		AddDef(&characterize.WorkloadDef{Name: "gold", ServiceClass: "gold",
			Match: characterize.CriteriaFunc{Name: "is-gold",
				Fn: func(r *workload.Request) bool { return r.Workload == "gold" }}}).
		AddDef(&characterize.WorkloadDef{Name: "bronze", ServiceClass: "bronze",
			Match: characterize.CriteriaFunc{Name: "is-bronze",
				Fn: func(r *workload.Request) bool { return r.Workload == "bronze" }}})
	seq := &workload.Sequence{}

	const serverTimeronsPerSec = 8*1000 + 800*10 // CPU + IO capacity in timeron units

	switch variant {
	case "fcfs":
		m.Scheduler = scheduling.NewScheduler(scheduling.NewFCFS(), &scheduling.MPL{Max: 6})
	case "niu-utility":
		dispatcher := scheduling.NewCostLimit(map[string]float64{})
		m.Scheduler = scheduling.NewScheduler(scheduling.NewPriority(), dispatcher)
		planner := &scheduling.Planner{
			Goals: []scheduling.ClassGoal{
				{Name: "gold", Importance: 10, TargetRT: 8},
				{Name: "bronze", Importance: 1, TargetRT: 120},
			},
			ServerTimeronsPerSecond: serverTimeronsPerSec,
		}
		// The planner's inputs: offered rates (monitored by the DBMS; here
		// the generator's known rates) and per-request demand in
		// server-seconds (mean cpu 4s across mean parallelism over 8 cores
		// = 0.5 server-seconds), timerons from the templates' means.
		loads := map[string]scheduling.ClassLoad{
			"gold":   {ArrivalRate: 0.8, MeanServiceSeconds: 0.5},
			"bronze": {ArrivalRate: 1.0, MeanServiceSeconds: 0.5},
		}
		s.Every(10*sim.Second, func() bool {
			limits := planner.Plan(loads)
			// Each class's limit is set independently; order cannot matter.
			//dbwlm:sorted
			for class, lim := range limits {
				dispatcher.SetLimit(class, lim)
			}
			return true
		})
	}

	gens := []workload.Generator{
		&mediumQueryGen{name: "gold", rate: 0.8, priority: policy.PriorityHigh,
			slo: policy.AvgResponseTime(8 * sim.Second), seq: seq},
		&mediumQueryGen{name: "bronze", rate: 2.2, priority: policy.PriorityLow,
			slo: policy.AvgResponseTime(120 * sim.Second), seq: seq},
	}
	m.RunWorkload(gens, 300*sim.Second, 120*sim.Second)

	gold := m.Stats().Workload("gold")
	bronze := m.Stats().Workload("bronze")
	return Row{
		Name: variant,
		Metrics: map[string]float64{
			"gold_mean_s":   gold.Response.Mean(),
			"gold_p95_s":    gold.Response.Percentile(95),
			"gold_met":      boolMetric(m.Attainment("gold").Met),
			"bronze_mean_s": bronze.Response.Mean(),
			"gold_done":     float64(gold.Completed.Value()),
			"bronze_done":   float64(bronze.Completed.Value()),
		},
		Order: []string{"gold_mean_s", "gold_p95_s", "gold_met", "bronze_mean_s", "gold_done", "bronze_done"},
	}
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ---------- Table 5, row 2: Parekh et al. utility throttling ----------

// RunParekhThrottling runs a production OLTP stream alongside an aggressive
// on-line backup utility (utilities perform sequential physical IO the
// engine cannot deprioritize by itself, modeled as a high resource weight),
// with and without PI-controlled utility throttling. The controller's input
// is the production class's performance ratio against its own baseline, as
// in the paper. Shape: unthrottled, production response times degrade
// sharply while the backup finishes fast; the PI controller holds production
// near 95% of baseline and the backup pays with a longer run.
func RunParekhThrottling(variant string, seed uint64) Row {
	_, m := NewManager(seed)
	m.Router = UniformRouter()
	seq := &workload.Sequence{}

	const oltpRate = 120.0
	const utilityWeight = 25.0
	sig := newPerfSignal(500, 200)
	var throttler *execctl.Throttler
	if variant == "pi-throttling" {
		throttler = execctl.NewThrottler(m.Engine(), sig.ratio,
			&execctl.PIController{}, execctl.MethodConstant)
	}
	m.OnDispatch = func(rr *dbwlm.Running) {
		if rr.Req.Workload == "utility" {
			_ = m.Engine().SetWeight(rr.Query.ID, utilityWeight)
			if throttler != nil {
				throttler.Manage(rr.Query.ID)
			}
		}
	}

	var utilDone sim.Time
	var duringSum float64
	var duringN int
	m.OnFinish = func(rr *dbwlm.Running, oc engine.Outcome) {
		if oc != engine.OutcomeCompleted {
			return
		}
		switch rr.Req.Workload {
		case "oltp":
			rt := m.Now().Sub(rr.Req.Arrive).Seconds()
			sig.observe(rt)
			// Production degradation window: while the utility runs.
			if rr.Req.Arrive >= sim.Time(30*sim.Second) && (utilDone == 0 || rr.Req.Arrive < utilDone) {
				duringSum += rt
				duringN++
			}
		case "utility":
			utilDone = m.Now()
		}
	}

	gens := []workload.Generator{
		&workload.OLTPGen{WorkloadName: "oltp", Rate: oltpRate,
			Priority: policy.PriorityHigh,
			SLO:      policy.AvgResponseTime(300 * sim.Millisecond), Seq: seq},
		&workload.UtilityGen{WorkloadName: "utility",
			Times:    []sim.Time{sim.Time(30 * sim.Second)},
			Priority: policy.PriorityLow, Seq: seq, Kind: "backup"},
	}
	m.RunWorkload(gens, 300*sim.Second, 300*sim.Second)

	during := 0.0
	if duringN > 0 {
		during = duringSum / float64(duringN)
	}
	oltp := m.Stats().Workload("oltp")
	row := Row{
		Name: variant,
		Metrics: map[string]float64{
			"oltp_during_s":  during,
			"oltp_p95_s":     oltp.Response.Percentile(95),
			"util_done_at_s": utilDone.Seconds(),
		},
		Order: []string{"oltp_during_s", "oltp_p95_s", "util_done_at_s"},
	}
	if throttler != nil {
		row.Metrics["final_throttle"] = throttler.Amount()
		row.Order = append(row.Order, "final_throttle")
	}
	return row
}

// ---------- Table 5, row 3: Powley et al. query throttling ----------

// RunPowleyThrottling compares the step and black-box controllers, each
// applied with the constant and interrupt throttle methods, on a scenario
// where aggressive large queries must be slowed until the high-priority
// stream recovers its baseline performance. Shape: both controllers protect
// the goal; the black-box model jumps to its model solution; interrupt
// throttling produces burstier production latency at the same average amount.
func RunPowleyThrottling(controller string, method execctl.ThrottleMethod, seed uint64) Row {
	s, m := NewManager(seed)
	m.Router = UniformRouter()
	seq := &workload.Sequence{}

	const oltpRate = 80.0
	var ctrl execctl.AmountController
	switch controller {
	case "step":
		ctrl = &execctl.StepController{}
	case "black-box":
		ctrl = &execctl.BlackBoxController{}
	}
	sig := newPerfSignal(400, 160)
	throttler := execctl.NewThrottler(m.Engine(), sig.ratio, ctrl, method)
	m.OnDispatch = func(rr *dbwlm.Running) {
		if rr.Req.Workload == "large" {
			_ = m.Engine().SetWeight(rr.Query.ID, 10)
			throttler.Manage(rr.Query.ID)
		}
	}
	m.OnFinish = func(rr *dbwlm.Running, oc engine.Outcome) {
		if rr.Req.Workload == "oltp" && oc == engine.OutcomeCompleted {
			sig.observe(m.Now().Sub(rr.Req.Arrive).Seconds())
		}
	}

	rng := s.RNG().Fork(77)
	gens := []workload.Generator{
		&workload.OLTPGen{WorkloadName: "oltp", Rate: oltpRate,
			Priority: policy.PriorityHigh,
			SLO:      policy.AvgResponseTime(300 * sim.Millisecond), Seq: seq},
		&workload.BatchGen{WorkloadName: "large", At: sim.Time(30 * sim.Second), Count: 3,
			Priority: policy.PriorityLow, SLO: policy.BestEffort(),
			Draw: func(i int, now sim.Time) *workload.Request {
				spec := engine.QuerySpec{
					CPUWork: 150 + rng.Float64()*50, IOWork: 2500 + rng.Float64()*500,
					MemMB: 600, Parallelism: 4, StateMB: 200,
				}
				r := workload.NewRequest()
				*r = workload.Request{ID: seq.Next(), Workload: "large", True: spec,
					Est: workload.Estimates{CPUSeconds: spec.CPUWork, IOMB: spec.IOWork,
						Timerons: workload.TimeronsOf(spec.CPUWork, spec.IOWork)},
					Arrive: now}
				return r
			}},
	}
	m.RunWorkload(gens, 240*sim.Second, 120*sim.Second)

	oltp := m.Stats().Workload("oltp")
	large := m.Stats().Workload("large")
	return Row{
		Name: fmt.Sprintf("%s/%s", controller, method),
		Metrics: map[string]float64{
			"oltp_mean_s":  oltp.Response.Mean(),
			"oltp_p95_s":   oltp.Response.Percentile(95),
			"oltp_max_s":   oltp.Response.Max(),
			"large_done":   float64(large.Completed.Value()),
			"large_mean_s": large.Response.Mean(),
			"amount":       throttler.Amount(),
		},
		Order: []string{"oltp_mean_s", "oltp_p95_s", "oltp_max_s", "large_done", "large_mean_s", "amount"},
	}
}

// ---------- Table 5, row 4: Chandramouli et al. suspend & resume ----------

// RunSuspendResume measures suspend latency (time until the query's
// resources are free) and total run-time overhead for the DumpState and
// GoBack strategies on a checkpointed analytical query suspended mid-run.
// Shape: GoBack suspends orders of magnitude faster; DumpState resumes with
// less redone work; total overhead depends on state size vs checkpoint gap.
func RunSuspendResume(strategy engine.SuspendStrategy, seed uint64) Row {
	s := sim.New(seed)
	e := engine.New(s, ServerConfig())
	spec := engine.QuerySpec{
		CPUWork: 60, IOWork: 800, MemMB: 800, Parallelism: 4,
		StateMB: 400, CheckpointEvery: 0.1,
	}
	// Baseline: the query's uninterrupted solo runtime.
	s2 := sim.New(seed + 1)
	e2 := engine.New(s2, ServerConfig())
	var solo float64
	e2.Submit(spec, 1, func(q *engine.Query, _ engine.Outcome) {
		solo = s2.Now().Seconds()
	})
	s2.Run(sim.Time(30 * sim.Minute))

	var done float64
	q := e.Submit(spec, 1, func(_ *engine.Query, _ engine.Outcome) {
		done = e.Sim().Now().Seconds()
	})
	var suspendIssued, resourcesFree float64
	s.Schedule(10*sim.Second, func() {
		suspendIssued = s.Now().Seconds()
		_ = e.Suspend(q.ID, strategy)
		// Poll for release.
		var poll func()
		poll = func() {
			if q.State() == engine.StateSuspended {
				resourcesFree = s.Now().Seconds()
				return
			}
			s.Schedule(50*sim.Millisecond, poll)
		}
		poll()
	})
	// Resume 30s later.
	s.Schedule(40*sim.Second, func() { _ = e.Resume(q.ID) })
	s.Run(sim.Time(30 * sim.Minute))

	suspendLatency := resourcesFree - suspendIssued
	overhead := (done - 30) - solo // subtract the 30s parked interval
	return Row{
		Name: strategy.String(),
		Metrics: map[string]float64{
			"suspend_latency_s": suspendLatency,
			"total_runtime_s":   done,
			"solo_runtime_s":    solo,
			"overhead_s":        overhead,
		},
		Order: []string{"suspend_latency_s", "solo_runtime_s", "total_runtime_s", "overhead_s"},
	}
}

// RunSuspendPlanComparison compares all-DumpState, all-GoBack, and the
// optimal mixed suspend plan on a synthetic operator set under a suspend
// budget — the optimization study of Chandramouli et al.
func RunSuspendPlanComparison(budgetSeconds float64) ResultTable {
	ops := []execctl.OpSuspendCost{
		{StateMB: 600, RedoSeconds: 2}, // big hash table, recent checkpoint
		{StateMB: 50, RedoSeconds: 20}, // small state, expensive redo
		{StateMB: 200, RedoSeconds: 6}, // middling
		{StateMB: 400, RedoSeconds: 1}, // big sort run, cheap redo
		{StateMB: 20, RedoSeconds: 12}, // tiny state, costly redo
	}
	const ioMBps = 800.0
	t := ResultTable{Title: fmt.Sprintf("Suspend-plan comparison (budget %.2gs)", budgetSeconds)}
	var dumpSus, dumpRes, goRes float64
	for _, op := range ops {
		dumpSus += op.StateMB / ioMBps
		dumpRes += op.StateMB / ioMBps
		goRes += op.RedoSeconds
	}
	t.Rows = append(t.Rows,
		Row{Name: "all-DumpState", Metrics: map[string]float64{
			"suspend_s": dumpSus, "resume_s": dumpRes, "total_s": dumpSus + dumpRes,
			"feasible": boolMetric(dumpSus <= budgetSeconds)},
			Order: []string{"suspend_s", "resume_s", "total_s", "feasible"}},
		Row{Name: "all-GoBack", Metrics: map[string]float64{
			"suspend_s": 0, "resume_s": goRes, "total_s": goRes, "feasible": 1},
			Order: []string{"suspend_s", "resume_s", "total_s", "feasible"}},
	)
	plan := execctl.OptimalSuspendPlan(ops, ioMBps, budgetSeconds)
	t.Rows = append(t.Rows, Row{Name: "optimal-mixed", Metrics: map[string]float64{
		"suspend_s": plan.SuspendSeconds, "resume_s": plan.ResumeSeconds,
		"total_s": plan.Total(), "feasible": boolMetric(plan.SuspendSeconds <= budgetSeconds)},
		Order: []string{"suspend_s", "resume_s", "total_s", "feasible"}})
	return t
}

// ---------- Table 5, row 5: Krompass et al. fuzzy execution control ----------

// RunKrompassFuzzy runs a BI mix with problematic queries under the
// fuzzy-logic execution controller (vs no control). The controller kills or
// reprioritizes problematic queries based on priority, progress, contention,
// and prior cancellations. Shape: high-priority p95 improves; killed queries
// are resubmitted and most work eventually completes.
func RunKrompassFuzzy(variant string, seed uint64) Row {
	s, m := NewManager(seed)
	m.Router = UniformRouter()
	m.MaxResubmits = 2
	seq := &workload.Sequence{}

	fuzzy := &autonomic.FuzzyController{Rules: autonomic.KrompassRules()}
	cancels := map[int64]float64{} // request ID -> prior cancellations

	if variant == "fuzzy-control" {
		s.Every(2*sim.Second, func() bool {
			st := m.Engine().StatsNow()
			// Contention: memory overcommit and lock blocking — NOT raw CPU
			// utilization (a fully busy server is healthy, not contended).
			contention := (st.MemPressure - 0.9) / 0.6
			if st.InEngine > 0 {
				if b := 2 * float64(st.Blocked) / float64(st.InEngine); b > contention {
					contention = b
				}
			}
			if contention < 0 {
				contention = 0
			}
			if contention > 1 {
				contention = 1
			}
			for _, rr := range m.RunningAll() {
				if rr.Req.Workload == "oltp" || rr.Query.State() != engine.StateRunning {
					continue
				}
				in := autonomic.Inputs{
					Priority:      float64(rr.Req.Priority) / 3,
					Progress:      rr.Query.Progress(),
					Contention:    contention,
					Cancellations: cancels[rr.Req.ID] / 2,
				}
				action, _ := fuzzy.Decide(in)
				switch action {
				case autonomic.ActKill:
					_ = m.Engine().Kill(rr.Query.ID)
				case autonomic.ActKillResubmit:
					cancels[rr.Req.ID]++
					_ = m.Engine().Kill(rr.Query.ID)
					// Resubmission is handled by OnFinish below.
				case autonomic.ActReprioritize:
					_ = m.Engine().SetWeight(rr.Query.ID, 0.25)
				}
			}
			return true
		})
		// Kill-and-resubmit queues the victim for LATER execution (Krompass:
		// "the query is queued again for subsequent execution") — parked
		// until resource contention clears, not re-executed immediately.
		var parked []*dbwlm.Running
		m.OnFinish = func(rr *dbwlm.Running, oc engine.Outcome) {
			if oc == engine.OutcomeKilled && cancels[rr.Req.ID] > 0 {
				// The Manager reuses rr and its request once this hook
				// returns: park a copy for the later Resubmit.
				kept := &dbwlm.Running{Class: rr.Class}
				kept.Req = rr.Req.Clone()
				parked = append(parked, kept)
			}
		}
		s.Every(5*sim.Second, func() bool {
			if len(parked) == 0 || m.Engine().StatsNow().MemPressure > 0.8 {
				return true
			}
			rr := parked[0]
			parked = parked[1:]
			m.Resubmit(rr)
			return true
		})
	}

	rng := s.RNG().Fork(55)
	gens := []workload.Generator{
		&workload.OLTPGen{WorkloadName: "oltp", Rate: 50,
			Priority: policy.PriorityHigh,
			SLO:      policy.AvgResponseTime(300 * sim.Millisecond), Seq: seq},
		// Unpredictable BI stream: a mix of fine and problematic queries.
		&funcGen{name: "bi", rate: 0.12, start: func(now sim.Time) *workload.Request {
			problematic := rng.Bool(0.4)
			var spec engine.QuerySpec
			pri := policy.PriorityMedium
			if problematic {
				spec = engine.QuerySpec{CPUWork: 100 + rng.Float64()*50,
					IOWork: 1500 + rng.Float64()*500, MemMB: 1500, Parallelism: 4, StateMB: 200}
				pri = policy.PriorityLow
			} else {
				spec = engine.QuerySpec{CPUWork: 4 + rng.Float64()*6,
					IOWork: 150 + rng.Float64()*150, MemMB: 128, Parallelism: 2}
			}
			r := workload.NewRequest()
			*r = workload.Request{ID: seq.Next(), Workload: "bi", Priority: pri,
				SLO: policy.BestEffort(), True: spec, Arrive: now,
				Est: workload.Estimates{CPUSeconds: spec.CPUWork / 4, IOMB: spec.IOWork / 4,
					Timerons: workload.TimeronsOf(spec.CPUWork/4, spec.IOWork/4)}}
			return r
		}},
	}
	m.RunWorkload(gens, 120*sim.Second, 60*sim.Second)

	oltp := m.Stats().Workload("oltp")
	bi := m.Stats().Workload("bi")
	return Row{
		Name: variant,
		Metrics: map[string]float64{
			"oltp_p95_s":  oltp.Response.Percentile(95),
			"oltp_mean_s": oltp.Response.Mean(),
			"bi_done":     float64(bi.Completed.Value()),
			"bi_killed":   float64(bi.Killed.Value()),
			"bi_resub":    float64(bi.Resubmits.Value()),
		},
		Order: []string{"oltp_mean_s", "oltp_p95_s", "bi_done", "bi_killed", "bi_resub"},
	}
}

// funcGen is a Poisson generator with a custom draw function.
type funcGen struct {
	name  string
	rate  float64
	start func(now sim.Time) *workload.Request
}

func (g *funcGen) Name() string { return g.name }

func (g *funcGen) Start(s *sim.Simulator, horizon sim.Time, submit workload.SubmitFunc) {
	rng := s.RNG().Fork(uint64(len(g.name)) * 131)
	workload.PoissonArrivals(s, rng, g.rate, horizon, func() { submit(g.start(s.Now())) })
}

// RunTable5 runs every research-technique experiment. All rows across the
// five sub-tables share one worker-pool fan-out (each row is an independent
// simulation); the plan-comparison table runs alongside them.
func RunTable5(seed uint64) []ResultTable {
	type t5job struct {
		table int
		run   func() Row
	}
	var jobs []t5job
	add := func(table int, run func() Row) { jobs = append(jobs, t5job{table, run}) }
	for _, v := range []string{"fcfs", "niu-utility"} {
		add(0, func() Row { return RunNiuScheduler(v, seed) })
	}
	for _, v := range []string{"no-throttling", "pi-throttling"} {
		add(1, func() Row { return RunParekhThrottling(v, seed) })
	}
	for _, c := range []string{"step", "black-box"} {
		for _, meth := range []execctl.ThrottleMethod{execctl.MethodConstant, execctl.MethodInterrupt} {
			add(2, func() Row { return RunPowleyThrottling(c, meth, seed) })
		}
	}
	for _, st := range []engine.SuspendStrategy{engine.SuspendDumpState, engine.SuspendGoBack} {
		add(3, func() Row { return RunSuspendResume(st, seed) })
	}
	for _, v := range []string{"no-control", "fuzzy-control"} {
		add(4, func() Row { return RunKrompassFuzzy(v, seed) })
	}

	planCh := make(chan ResultTable, 1)
	go func() { planCh <- RunSuspendPlanComparison(0.5) }()
	rows := RunRows(len(jobs), func(i int) Row { return jobs[i].run() })

	tables := []ResultTable{
		{Title: "Table 5a: Niu et al. utility cost-limit scheduler"},
		{Title: "Table 5b: Parekh et al. utility throttling"},
		{Title: "Table 5c: Powley et al. query throttling"},
		{Title: "Table 5d: Chandramouli et al. suspend & resume"},
		{Title: "Table 5e: Krompass et al. fuzzy execution control"},
	}
	for i, j := range jobs {
		tables[j.table].Rows = append(tables[j.table].Rows, rows[i])
	}
	return append(tables, <-planCh)
}
