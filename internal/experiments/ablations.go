package experiments

import (
	"fmt"

	"dbwlm"
	"dbwlm/internal/admission"
	"dbwlm/internal/engine"
	"dbwlm/internal/execctl"
	"dbwlm/internal/policy"
	"dbwlm/internal/scheduling"
	"dbwlm/internal/sim"
	"dbwlm/internal/workload"
)

type fixedAmount struct{ v float64 }

func (f fixedAmount) Name() string           { return "fixed" }
func (f fixedAmount) Update(float64) float64 { return f.v }

// RunAblationThrottleMethods (A1) compares constant vs interrupt throttling
// at a fixed amount on a production stream sharing the server with one
// large query: both deliver the same average slowdown to the large query,
// but interrupt throttling's long pauses make production latency bursty
// (low during the pause, high during the free run).
func RunAblationThrottleMethods(seed uint64) ResultTable {
	methods := []execctl.ThrottleMethod{execctl.MethodConstant, execctl.MethodInterrupt}
	t := ResultTable{Title: "A1: constant vs interrupt throttling at fixed amount 0.6"}
	t.Rows = RunRows(len(methods), func(i int) Row { return runThrottleMethodPoint(methods[i], seed) })
	return t
}

func runThrottleMethodPoint(method execctl.ThrottleMethod, seed uint64) Row {
	_, m := NewManager(seed)
	m.Router = UniformRouter()
	seq := &workload.Sequence{}
	th := execctl.NewThrottler(m.Engine(), func() float64 { return 0 }, fixedAmount{0.6}, method)
	var largeDone float64
	m.OnDispatch = func(rr *dbwlm.Running) {
		if rr.Req.Workload == "large" {
			// The large query is aggressive (high resource weight): without
			// throttling it would dominate the IO bandwidth.
			_ = m.Engine().SetWeight(rr.Query.ID, 20)
			th.Manage(rr.Query.ID)
		}
	}
	m.OnFinish = func(rr *dbwlm.Running, oc engine.Outcome) {
		if rr.Req.Workload == "large" && oc == engine.OutcomeCompleted {
			largeDone = m.Now().Seconds()
		}
	}
	gens := []workload.Generator{
		&workload.OLTPGen{WorkloadName: "oltp", Rate: 80, Priority: policy.PriorityHigh,
			SLO: policy.AvgResponseTime(300 * sim.Millisecond), Seq: seq},
		&workload.BatchGen{WorkloadName: "large", At: sim.Time(5 * sim.Second), Count: 1,
			Priority: policy.PriorityLow, SLO: policy.BestEffort(),
			Draw: func(i int, now sim.Time) *workload.Request {
				spec := engine.QuerySpec{CPUWork: 120, IOWork: 2500, MemMB: 600, Parallelism: 4}
				r := workload.NewRequest()
				*r = workload.Request{ID: seq.Next(), Workload: "large", True: spec, Arrive: now,
					Est: workload.Estimates{CPUSeconds: spec.CPUWork, IOMB: spec.IOWork,
						Timerons: workload.TimeronsOf(spec.CPUWork, spec.IOWork)}}
				return r
			}},
	}
	m.RunWorkload(gens, 300*sim.Second, 300*sim.Second)
	oltp := m.Stats().Workload("oltp")
	return Row{
		Name: method.String(),
		Metrics: map[string]float64{
			"oltp_mean_s":     oltp.Response.Mean(),
			"oltp_p99_s":      oltp.Response.Percentile(99),
			"oltp_max_s":      oltp.Response.Max(),
			"large_done_at_s": largeDone,
		},
		Order: []string{"oltp_mean_s", "oltp_p99_s", "oltp_max_s", "large_done_at_s"},
	}
}

// RunAblationEstimateError (A3) sweeps optimizer-estimate error and compares
// cost-threshold admission (which trusts estimates) against the learned k-NN
// predictor (which learns from observed runtimes). Shape: the threshold's
// protection of OLTP decays as estimate error grows — monsters sneak under
// the limit — while the predictor stays effective.
func RunAblationEstimateError(underFactors []float64, seed uint64) ResultTable {
	variants := []string{"cost-threshold", "predict-knn"}
	t := ResultTable{Title: "A3: admission quality vs optimizer-estimate error"}
	t.Rows = RunRows(len(underFactors)*len(variants), func(i int) Row {
		return runEstimateErrorPoint(variants[i%len(variants)], underFactors[i/len(variants)], seed)
	})
	return t
}

func runEstimateErrorPoint(variant string, underFactor float64, seed uint64) Row {
	_, m := NewManager(seed)
	m.Router = UniformRouter()
	switch variant {
	case "cost-threshold":
		m.Admission = &admission.CostThreshold{Limits: map[policy.Priority]float64{
			policy.PriorityLow: 30_000, // sized against TRUE monster cost
		}}
	case "predict-knn":
		p := &admission.KNNPredictor{MaxSeconds: 15, MinTraining: 30}
		// Pre-train from a historical query log recorded under the SAME
		// estimate-error regime (the predictor learns est->runtime mappings,
		// so it is robust to systematic estimate error).
		for _, h := range monsterHistoryWithUnder(seed, 150, underFactor) {
			p.ObserveCompletion(h.req, h.seconds, 0)
		}
		m.Admission = p
	}
	gens := []workload.Generator{
		&workload.OLTPGen{WorkloadName: "oltp", Rate: 100, Priority: policy.PriorityHigh,
			SLO: policy.AvgResponseTime(300 * sim.Millisecond), Seq: &workload.Sequence{}},
		&workload.AdHocGen{WorkloadName: "adhoc", Rate: 0.15, Priority: policy.PriorityLow,
			SLO: policy.BestEffort(), MonsterProb: 0.7,
			UnderestimateFactor: underFactor, Seq: &workload.Sequence{}},
	}
	m.RunWorkload(gens, 120*sim.Second, 60*sim.Second)
	oltp := m.Stats().Workload("oltp")
	adhoc := m.Stats().Workload("adhoc")
	return Row{
		Name: fmt.Sprintf("%s under=%gx", variant, underFactor),
		Metrics: map[string]float64{
			"under":      underFactor,
			"oltp_p95_s": oltp.Response.Percentile(95),
			"oltp_thr":   oltp.OverallThroughput(),
			"gated":      float64(adhoc.Rejected.Value()),
			"adhoc_done": float64(adhoc.Completed.Value()),
		},
		Order: []string{"under", "oltp_p95_s", "oltp_thr", "gated", "adhoc_done"},
	}
}

// RunAblationSchedulers (A4) compares FCFS, SJF, priority, and rank queues
// on a mixed batch released through a fixed MPL. Shape: SJF minimizes mean
// wait; priority and rank give high-priority items the shortest waits; rank
// additionally ages the monsters SJF would leave for last.
func RunAblationSchedulers(seed uint64) ResultTable {
	t := ResultTable{Title: "A4: wait-queue disciplines on a mixed batch (MPL 4)"}
	type mk struct {
		name string
		q    scheduling.Queue
	}
	variants := []mk{
		{"fcfs", scheduling.NewFCFS()},
		{"sjf", scheduling.NewSJF()},
		{"priority", scheduling.NewPriority()},
		{"rank", scheduling.NewRank()},
	}
	t.Rows = RunRows(len(variants), func(i int) Row {
		return runSchedulerBatch(variants[i].name, variants[i].q, seed)
	})
	return t
}

func runSchedulerBatch(name string, q scheduling.Queue, seed uint64) Row {
	_, m := NewManager(seed)
	m.Router = UniformRouter()
	m.Scheduler = scheduling.NewScheduler(q, &scheduling.MPL{Max: 4})
	seq := &workload.Sequence{}
	rng := sim.NewRNG(seed * 31)

	var highWaitSum, allWaitSum float64
	var highN, allN int
	m.OnFinish = func(rr *dbwlm.Running, oc engine.Outcome) {
		if oc != engine.OutcomeCompleted {
			return
		}
		wait := rr.DispatchedAt.Sub(rr.Req.Arrive).Seconds()
		allWaitSum += wait
		allN++
		if rr.Req.Priority == policy.PriorityHigh {
			highWaitSum += wait
			highN++
		}
	}
	batch := &workload.BatchGen{
		WorkloadName: "batch", At: sim.Time(sim.Second), Count: 40,
		Priority: policy.PriorityLow, SLO: policy.BestEffort(),
		Draw: func(i int, now sim.Time) *workload.Request {
			cpu := 1 + rng.Float64()*2
			io := 30 + rng.Float64()*50
			pri := policy.PriorityLow
			if i%4 == 0 {
				pri = policy.PriorityHigh
			}
			if i%10 == 0 {
				cpu, io = 40+rng.Float64()*20, 800+rng.Float64()*400
			}
			spec := engine.QuerySpec{CPUWork: cpu, IOWork: io, MemMB: 64, Parallelism: 2}
			r := workload.NewRequest()
			*r = workload.Request{ID: seq.Next(), Workload: "batch", Priority: pri,
				SLO: policy.BestEffort(), True: spec, Arrive: now,
				Est: workload.Estimates{CPUSeconds: cpu, IOMB: io,
					Timerons: workload.TimeronsOf(cpu, io)}}
			return r
		},
	}
	// BatchGen would overwrite priorities with its own; draw sets them, so
	// clear the batch-level priority application by submitting directly.
	m.Sim().At(batch.At, func() {
		for i := 0; i < batch.Count; i++ {
			r := batch.Draw(i, m.Sim().Now())
			m.Submit(r)
		}
	})
	m.Sim().Run(sim.Time(30 * sim.Minute))

	ws := m.Stats().Workload("batch")
	meanHigh := 0.0
	if highN > 0 {
		meanHigh = highWaitSum / float64(highN)
	}
	meanAll := 0.0
	if allN > 0 {
		meanAll = allWaitSum / float64(allN)
	}
	return Row{
		Name: name,
		Metrics: map[string]float64{
			"mean_wait_s":     meanAll,
			"high_pri_wait_s": meanHigh,
			"max_response_s":  ws.Response.Max(),
			"done":            float64(ws.Completed.Value()),
		},
		Order: []string{"mean_wait_s", "high_pri_wait_s", "max_response_s", "done"},
	}
}

// RunAblationRestructuring (A2-bis) compares running one monster plan whole
// vs sliced into sub-plans, alongside a latency-sensitive stream: slicing
// bounds the monster's continuous residency, letting short queries through
// between slices (Section 3.3, query restructuring).
func RunAblationRestructuring(seed uint64) ResultTable {
	variants := []string{"whole", "sliced"}
	t := ResultTable{Title: "A2-bis: whole plan vs sliced sub-plans"}
	t.Rows = RunRows(len(variants), func(i int) Row { return runRestructurePoint(variants[i], seed) })
	return t
}

func runRestructurePoint(variant string, seed uint64) Row {
	s := sim.New(seed)
	e := engine.New(s, ServerConfig())
	// Latency-sensitive short queries arriving throughout.
	rng := s.RNG().Fork(3)
	var shortRTs []float64
	var submitShort func()
	submitShort = func() {
		at := s.Now().Add(sim.DurationFromSeconds(rng.ExpFloat64(2)))
		if at > sim.Time(300*sim.Second) {
			return
		}
		s.At(at, func() {
			start := s.Now()
			e.Submit(engine.QuerySpec{CPUWork: 0.2, IOWork: 5, MemMB: 32, Parallelism: 1}, 1,
				func(_ *engine.Query, _ engine.Outcome) {
					shortRTs = append(shortRTs, s.Now().Sub(start).Seconds())
				})
			submitShort()
		})
	}
	submitShort()

	// The monster: one big memory-heavy plan.
	monster := engine.QuerySpec{CPUWork: 90, IOWork: 1200, MemMB: 6000, Parallelism: 4, StateMB: 300}
	var monsterDone float64
	switch variant {
	case "whole":
		e.Submit(monster, 1, func(_ *engine.Query, _ engine.Outcome) {
			monsterDone = s.Now().Seconds()
		})
	case "sliced":
		slices := make([]engine.QuerySpec, 6)
		for i := range slices {
			slices[i] = engine.QuerySpec{
				CPUWork: monster.CPUWork / 6, IOWork: monster.IOWork / 6,
				MemMB: monster.MemMB / 6, StateMB: monster.StateMB / 6,
			}
		}
		scheduling.RunSliced(e, slices, 1, monster.Parallelism, func(engine.Outcome) {
			monsterDone = s.Now().Seconds()
		})
	}
	s.Run(sim.Time(400 * sim.Second))

	mean, p95 := summarize(shortRTs)
	return Row{
		Name: variant,
		Metrics: map[string]float64{
			"short_mean_s":      mean,
			"short_p95_s":       p95,
			"monster_done_at_s": monsterDone,
		},
		Order: []string{"short_mean_s", "short_p95_s", "monster_done_at_s"},
	}
}

func summarize(xs []float64) (mean, p95 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var sum float64
	sorted := append([]float64(nil), xs...)
	for _, v := range sorted {
		sum += v
	}
	// Insertion-free percentile via sort.
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	idx := int(0.95 * float64(len(sorted)-1))
	return sum / float64(len(sorted)), sorted[idx]
}

// RunAblationBatchOrdering (A5) compares executing a report batch in naive
// arrival order vs the interaction-aware order of Ahmad et al. [2] through
// an MPL-2 release valve: the planner separates memory-hungry reports whose
// co-residence would overcommit the server, so the planned order avoids the
// thrash windows the naive order hits.
func RunAblationBatchOrdering(seed uint64) ResultTable {
	variants := []string{"naive-order", "interaction-aware"}
	t := ResultTable{Title: "A5: naive vs interaction-aware batch ordering (MPL 2)"}
	t.Rows = RunRows(len(variants), func(i int) Row { return runBatchOrderPoint(variants[i], seed) })
	return t
}

func runBatchOrderPoint(variant string, seed uint64) Row {
	s := sim.New(seed)
	e := engine.New(s, ServerConfig())
	rng := s.RNG().Fork(9)

	// A report batch submitted heavies-first (the natural order of a report
	// template list): at MPL 2 the naive order co-runs heavy pairs whose
	// combined working sets overcommit the server.
	var batch []scheduling.BatchQuery
	for i := 0; i < 12; i++ {
		mem := 100.0
		if i < 6 {
			mem = 2600
		}
		spec := engine.QuerySpec{
			CPUWork: 6 + rng.Float64()*2, IOWork: 200 + rng.Float64()*100,
			MemMB: mem, Parallelism: 2,
		}
		batch = append(batch, scheduling.BatchQuery{
			Req: &workload.Request{ID: int64(i + 1), True: spec,
				Est: workload.Estimates{MemMB: mem, Timerons: workload.TimeronsOf(spec.CPUWork, spec.IOWork)}},
			Tables: []string{"sales_fact"},
		})
	}
	order := batch
	if variant == "interaction-aware" {
		order = scheduling.PlanBatch(batch, scheduling.InteractionModel{MemoryMB: ServerConfig().MemoryMB})
	}

	// Release through MPL 2 in the chosen order.
	var makespan float64
	inFlight := 0
	next := 0
	var release func()
	release = func() {
		for inFlight < 2 && next < len(order) {
			spec := order[next].Req.True
			next++
			inFlight++
			e.Submit(spec, 1, func(_ *engine.Query, _ engine.Outcome) {
				inFlight--
				makespan = s.Now().Seconds()
				release()
			})
		}
	}
	release()
	s.Run(sim.Time(30 * sim.Minute))

	return Row{
		Name: variant,
		Metrics: map[string]float64{
			"makespan_s": makespan,
		},
		Order: []string{"makespan_s"},
	}
}
