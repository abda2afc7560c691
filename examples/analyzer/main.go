// Analyzer: the Teradata Workload Analyzer flow (Section 4.1.3.A) — mine a
// query log into candidate workload definitions with recommended priorities
// and service-level goals, install the recommendations, and re-run the same
// workload under them. Zero-to-WLM from a DBQL-style log. Along the way a
// decision-tree classifier labels the log's windows by workload type
// (dynamic characterization, Section 3.1).
//
//	go run ./examples/analyzer
package main

import (
	"fmt"
	"slices"

	"dbwlm"
	"dbwlm/internal/characterize"
	"dbwlm/internal/engine"
	"dbwlm/internal/sim"
	"dbwlm/internal/workload"
)

func scenario(rng *sim.RNG) []workload.Generator {
	return workload.Consolidated(rng, workload.ScenarioConfig{
		OLTPRate: 40, BIRate: 0.05, AdHocRate: 0.15, MonsterProb: 0.4,
	})
}

// issued collects the requests the scenario's generator i issues over a
// horizon, with nothing run.
func issued(i int, seed uint64, horizon sim.Duration) []*workload.Request {
	s := sim.New(seed)
	var reqs []*workload.Request
	scenario(s.RNG().Fork(1))[i].Start(s, sim.Time(horizon), func(r *workload.Request) { reqs = append(reqs, r) })
	s.RunAll(1 << 22)
	return reqs
}

func main() {
	// Phase 1: run unmanaged and record the query log (request + observed
	// response time), as a production DBMS's query log would.
	s1 := sim.New(21)
	m1 := dbwlm.New(s1, engine.Config{Cores: 8, MemoryMB: 4096, IOMBps: 800})
	m1.Router = characterize.NewRouter(&characterize.ServiceClass{Name: "flat", Weight: 1})
	var log []characterize.LogRecord
	m1.OnFinish = func(rr *dbwlm.Running, oc engine.Outcome) {
		if oc == engine.OutcomeCompleted {
			log = append(log, characterize.LogRecord{
				Req:             rr.Req.Clone(), // the manager reuses rr.Req
				ResponseSeconds: m1.Now().Sub(rr.Req.Arrive).Seconds(),
			})
		}
	}
	m1.RunWorkload(scenario(s1.RNG().Fork(1)), 120*sim.Second, 60*sim.Second)
	fmt.Printf("phase 1: unmanaged run logged %d completed queries\n\n", len(log))

	// Dynamic characterization: learn pure-OLTP, pure-BI and mixed windows
	// from the scenario's own generators, then label the log window by window.
	var train []characterize.LabeledWindow
	for seed := uint64(100); seed < 108; seed++ {
		oltp, bi := issued(0, seed, 5*sim.Second), issued(1, seed, 1200*sim.Second)
		half := slices.Clip(oltp[:len(oltp)/2])
		train = append(train,
			characterize.LabeledWindow{Requests: oltp, Label: characterize.TypeOLTP},
			characterize.LabeledWindow{Requests: bi, Label: characterize.TypeOLAP},
			characterize.LabeledWindow{Requests: append(half, bi...), Label: characterize.TypeMixed})
	}
	classifier := characterize.TrainDynamicClassifier(train)
	const window = 250
	var labels []characterize.WorkloadType
	for i := 0; i+window <= len(log); i += window {
		reqs := make([]*workload.Request, window)
		for j := range reqs {
			reqs[j] = log[i+j].Req
		}
		labels = append(labels, classifier.Classify(reqs))
	}
	fmt.Printf("dynamic characterization, %d-query windows of the log: %v\n\n", window, labels)

	// Phase 2: analyze the log into candidate workloads.
	analyzer := &characterize.Analyzer{MinGroupSize: 10}
	cands := analyzer.Analyze(log)
	fmt.Println("workload recommendations:")
	for _, c := range cands {
		fmt.Printf("  %-28s n=%-5d meanCost=%-10.0f p95=%-8.3fs -> priority=%v, SLG %v\n",
			c.Name, c.Count, c.MeanTimerons, c.P95Seconds, c.RecommendedPriority, c.RecommendedSLG)
	}

	// Phase 3: install the recommendations and re-run the same workload.
	s2 := sim.New(21)
	m2 := dbwlm.New(s2, engine.Config{Cores: 8, MemoryMB: 4096, IOMBps: 800})
	m2.Router = characterize.InstallRecommendations(cands, nil)
	m2.RunWorkload(scenario(s2.RNG().Fork(1)), 120*sim.Second, 60*sim.Second)

	fmt.Println("\nphase 3: managed by recommended definitions:")
	fmt.Print(m2.Report())

	// Compare the transactional class across the runs.
	before := m1.Stats().Workload("oltp").Response.Mean()
	var after float64
	for _, name := range m2.Stats().Names() {
		// The OLTP stream lands in the pos-terminal WRITE/READ candidates.
		if m2.Stats().Workload(name).Completed.Value() > 1000 {
			after = m2.Stats().Workload(name).Response.Mean()
			break
		}
	}
	if after > 0 {
		fmt.Printf("\ntransactional mean RT: %.4fs unmanaged -> %.4fs under recommendations\n", before, after)
	}
}
