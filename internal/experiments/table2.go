package experiments

import (
	"fmt"

	"dbwlm"
	"dbwlm/internal/admission"
	"dbwlm/internal/engine"
	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
	"dbwlm/internal/workload"
)

// Table2Variant names an admission-control approach (a Table 2 row).
type Table2Variant string

// Table 2 variants: the no-control baseline, the five threshold rows of the
// paper, and the two prediction-based techniques of Section 3.2.
const (
	T2None               Table2Variant = "no-control"
	T2QueryCost          Table2Variant = "query-cost"
	T2MPL                Table2Variant = "mpl"
	T2ConflictRatio      Table2Variant = "conflict-ratio"
	T2ThroughputFeedback Table2Variant = "throughput-feedback"
	T2Indicators         Table2Variant = "indicators"
	T2PredictTree        Table2Variant = "predict-tree"
	T2PredictKNN         Table2Variant = "predict-knn"
)

// Table2Scenario parameterizes the admission experiments.
type Table2Scenario struct {
	Horizon sim.Duration // default 60s
	Drain   sim.Duration // default 60s
	Seed    uint64
	// OnQuantum, when set, observes every quantum of a transaction run
	// (which then runs without fast-forward, bit for bit the same).
	OnQuantum func(*engine.Engine)
}

func (c Table2Scenario) withDefaults() Table2Scenario {
	if c.Horizon == 0 {
		c.Horizon = 60 * sim.Second
	}
	if c.Drain == 0 {
		c.Drain = 60 * sim.Second
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// buildController constructs the admission controller for a variant over m's
// engine. gateAll makes the indicator controller gate every priority (used
// in the single-class transaction-overload scenario, where there is no
// low-priority traffic to shed). For the prediction-based variants,
// historical observations (yesterday's query log, the training source
// Ganapathi and Gupta use) are fed before the run starts.
func buildController(v Table2Variant, m *managerHandle, history []historicalRun, gateAll bool) admission.Controller {
	switch v {
	case T2QueryCost:
		return &admission.CostThreshold{Limits: map[policy.Priority]float64{
			policy.PriorityLow: 8_000,
		}}
	case T2MPL:
		return &admission.MPLThreshold{Engine: m.eng, Max: 16}
	case T2ConflictRatio:
		return &admission.ConflictRatio{Engine: m.eng, Critical: 1.3}
	case T2ThroughputFeedback:
		tf := &admission.ThroughputFeedback{Engine: m.eng}
		tf.Start()
		return tf
	case T2Indicators:
		ind := &admission.Indicators{Engine: m.eng}
		if gateAll {
			ind.GatePriorityBelow = policy.PriorityCritical + 1
		}
		return ind
	case T2PredictTree:
		p := &admission.TreePredictor{MaxBucket: admission.BucketMedium, MinTraining: 30}
		for _, h := range history {
			p.ObserveCompletion(h.req, h.seconds, 0)
		}
		return p
	case T2PredictKNN:
		p := &admission.KNNPredictor{MaxSeconds: 10, MinTraining: 30}
		for _, h := range history {
			p.ObserveCompletion(h.req, h.seconds, 0)
		}
		return p
	default:
		return admission.AdmitAll{}
	}
}

type managerHandle struct{ eng *engine.Engine }

type historicalRun struct {
	req     *workload.Request
	seconds float64
}

// monsterHistory synthesizes a historical query log for predictor training:
// the solo runtimes of requests drawn from the same distributions the live
// run uses — the "training set of queries" of Gupta et al.
func monsterHistory(seed uint64, n int) []historicalRun {
	return monsterHistoryWithUnder(seed, n, 0)
}

// monsterHistoryWithUnder lets the A3 ablation match the live run's
// estimate-error factor in the training log.
func monsterHistoryWithUnder(seed uint64, n int, underFactor float64) []historicalRun {
	s := sim.New(seed + 7777)
	e := engine.New(s, ServerConfig())
	var out []historicalRun
	seq := &workload.Sequence{}
	oltp := &workload.OLTPGen{WorkloadName: "oltp", Rate: 50,
		Priority: policy.PriorityHigh, SLO: policy.BestEffort(), Seq: seq}
	adhoc := &workload.AdHocGen{WorkloadName: "adhoc", Rate: 5,
		Priority: policy.PriorityLow, SLO: policy.BestEffort(), MonsterProb: 0.3,
		UnderestimateFactor: underFactor, Seq: seq}
	collect := func(r *workload.Request) {
		// Historical observed time approximates the solo runtime with mild
		// multiprogramming inflation.
		out = append(out, historicalRun{req: r, seconds: e.IdealSeconds(r.True) * 1.5})
	}
	oltp.Start(s, sim.Time(sim.DurationFromSeconds(float64(n)/55)), collect)
	adhoc.Start(s, sim.Time(sim.DurationFromSeconds(float64(n)/55)), collect)
	s.RunAll(1 << 22)
	return out
}

// RunTable2TxnVariant runs the pure transaction-overload scenario (lock
// thrashing, the Moenkeberg/Heiss setting): an open-loop OLTP stream with a
// skewed lock pattern at an offered rate past the server's lock/memory knee.
// Concurrency-oriented rows (MPL, conflict ratio, throughput feedback,
// indicators) shine here; baseline convoys and collapses.
func RunTable2TxnVariant(v Table2Variant, sc Table2Scenario) Row {
	sc = sc.withDefaults()
	s, m := NewManager(sc.Seed)
	m.Router = UniformRouter()
	m.AdmissionRetry = 100 * sim.Millisecond
	m.RetryBatch = 8
	m.Admission = buildController(v, &managerHandle{eng: m.Engine()}, nil, true)
	m.Engine().OnQuantum = sc.OnQuantum

	// Payment-heavy transactions: two exclusive locks each over a small
	// skewed key space, modest memory footprints — the data-contention
	// thrashing setting of Moenkeberg & Weikum [56].
	rng := s.RNG().Fork(4242)
	zipf := sim.NewZipfGen(rng.Fork(1), 40, 1.0)
	seq := &workload.Sequence{}
	payments := &funcGen{name: "oltp", rate: 150, start: func(now sim.Time) *workload.Request {
		r := workload.NewRequest()
		spec := engine.QuerySpec{
			CPUWork:     0.02 + rng.Float64()*0.03,
			IOWork:      0.4 + rng.Float64()*0.6,
			MemMB:       2,
			Parallelism: 1,
			Rows:        1,
			Locks: append(r.True.Locks,
				engine.LockReq{Key: zipf.Next(), Exclusive: true, AtProgress: 0},
				engine.LockReq{Key: zipf.Next(), Exclusive: true, AtProgress: 0.5},
			),
		}
		*r = workload.Request{ID: seq.Next(), Workload: "oltp",
			Priority: policy.PriorityHigh,
			SLO:      policy.AvgResponseTime(300 * sim.Millisecond),
			True:     spec, Arrive: now,
			Est: workload.Estimates{CPUSeconds: spec.CPUWork, IOMB: spec.IOWork,
				Timerons: workload.TimeronsOf(spec.CPUWork, spec.IOWork)}}
		return r
	}}
	m.RunWorkload([]workload.Generator{payments}, sc.Horizon, sc.Drain)
	return table2Row(v, m)
}

// RunTable2MonsterVariant runs the monster-mix scenario (the Section 2.3
// setting: resource-intensive queries whose estimated costs are wrong): a
// healthy OLTP stream plus a stream of badly underestimated monster scans.
// Cost- and prediction-oriented rows shine here.
func RunTable2MonsterVariant(v Table2Variant, sc Table2Scenario) Row {
	sc = sc.withDefaults()
	_, m := NewManager(sc.Seed)
	m.Router = UniformRouter()
	var history []historicalRun
	if v == T2PredictTree || v == T2PredictKNN {
		history = monsterHistory(sc.Seed, 150)
	}
	m.Admission = buildController(v, &managerHandle{eng: m.Engine()}, history, false)

	gens := []workload.Generator{
		&workload.OLTPGen{
			WorkloadName: "oltp",
			Rate:         100,
			Priority:     policy.PriorityHigh,
			SLO:          policy.AvgResponseTime(300 * sim.Millisecond),
			Seq:          &workload.Sequence{},
			LockKeys:     200,
			LockSkew:     0.8,
		},
		&workload.AdHocGen{
			WorkloadName: "adhoc",
			Rate:         0.1,
			Priority:     policy.PriorityLow,
			SLO:          policy.BestEffort(),
			MonsterProb:  1.0,
			Seq:          &workload.Sequence{},
		},
	}
	m.RunWorkload(gens, sc.Horizon, sc.Drain)
	return table2Row(v, m)
}

func table2Row(v Table2Variant, m *dbwlm.Manager) Row {
	oltp := m.Stats().Workload("oltp")
	adhoc := m.Stats().Workload("adhoc")
	st := m.Engine().StatsNow()
	return Row{
		Name: string(v),
		Metrics: map[string]float64{
			"oltp_thr":    oltp.OverallThroughput(),
			"oltp_mean_s": oltp.Response.Mean(),
			"oltp_p95_s":  oltp.Response.Percentile(95),
			"adhoc_done":  float64(adhoc.Completed.Value()),
			"rejected":    float64(oltp.Rejected.Value() + adhoc.Rejected.Value()),
			"deadlocks":   float64(m.Stats().System.Deadlocks.Value() + st.Deadlocks),
			"in_engine":   float64(st.InEngine),
		},
		Order: []string{"oltp_thr", "oltp_mean_s", "oltp_p95_s", "adhoc_done", "rejected", "deadlocks", "in_engine"},
	}
}

// RunTable2 runs both admission scenarios with the rows relevant to each.
// Rows fan out across the worker pool; each builds its own simulator.
func RunTable2(sc Table2Scenario) ResultTable {
	txn := []Table2Variant{T2None, T2MPL, T2ConflictRatio, T2ThroughputFeedback, T2Indicators}
	mix := []Table2Variant{T2None, T2QueryCost, T2Indicators, T2PredictTree, T2PredictKNN}
	t := ResultTable{Title: "Table 2: admission control — txn overload (top) and monster mix (bottom)"}
	t.Rows = RunRows(len(txn)+len(mix), func(i int) Row {
		if i < len(txn) {
			r := RunTable2TxnVariant(txn[i], sc)
			r.Name = "txn/" + r.Name
			return r
		}
		r := RunTable2MonsterVariant(mix[i-len(txn)], sc)
		r.Name = "mix/" + r.Name
		return r
	})
	return t
}

// RunMPLKnee sweeps a closed-loop transactional workload across
// multiprogramming levels, producing the throughput-vs-MPL curve whose
// rise-knee-collapse shape motivates admission control (Section 3.2, refs
// [7][16][27]).
func RunMPLKnee(mpls []int, seed uint64) ResultTable {
	t := ResultTable{Title: "Figure E2b: throughput vs multiprogramming level"}
	t.Rows = RunRows(len(mpls), func(i int) Row { return kneePoint(mpls[i], seed) })
	return t
}

func kneePoint(mpl int, seed uint64) Row {
	s := sim.New(seed)
	e := engine.New(s, ServerConfig())
	rng := s.RNG().Fork(uint64(mpl) * 7919)
	zipf := sim.NewZipfGen(rng.Fork(1), 120, 0.9)
	const horizon = 150.0
	completed := 0
	makeSpec := func() engine.QuerySpec {
		return engine.QuerySpec{
			CPUWork:     0.15 + rng.Float64()*0.2,
			IOWork:      8 + rng.Float64()*12,
			MemMB:       160,
			Parallelism: 1,
			Locks: []engine.LockReq{
				{Key: zipf.Next(), Exclusive: true, AtProgress: 0.1},
				{Key: zipf.Next(), Exclusive: true, AtProgress: 0.5},
			},
		}
	}
	var launch func()
	launch = func() {
		if s.Now().Seconds() >= horizon {
			return
		}
		e.Submit(makeSpec(), 1, func(_ *engine.Query, oc engine.Outcome) {
			if oc == engine.OutcomeCompleted {
				completed++
			}
			launch()
		})
	}
	for i := 0; i < mpl; i++ {
		launch()
	}
	s.Run(sim.Time(sim.DurationFromSeconds(horizon)))
	st := e.StatsNow()
	return Row{
		Name: fmt.Sprintf("mpl=%d", mpl),
		Metrics: map[string]float64{
			"mpl":       float64(mpl),
			"thr":       float64(completed) / horizon,
			"deadlocks": float64(st.Deadlocks),
		},
		Order: []string{"mpl", "thr", "deadlocks"},
	}
}
