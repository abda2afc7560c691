// Command wlmd runs the live workload-management runtime as an HTTP daemon:
// a workload-management layer in front of a database engine, in the spirit of
// the taxonomy's admission-control systems. Clients ask /admit before running
// work and report /done after; limits reload at runtime through /policy;
// GET /metrics serves Prometheus text format and GET /trace drains the
// flight recorder.
//
//	wlmd -addr :8628                    # serve
//	wlmd -trace 16384 -pprof            # serve with flight recorder + pprof
//	wlmd -selftest -workers 64          # closed-loop in-process load generator
//	wlmd -selftest -trace-dump          # ... and print the decision trace
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"dbwlm"
	"dbwlm/internal/admission"
	"dbwlm/internal/obsv"
	"dbwlm/internal/policy"
	"dbwlm/internal/rt"
	"dbwlm/internal/rthttp"
	"dbwlm/internal/sim"
	"dbwlm/internal/slo"
	"dbwlm/internal/sqlmini"
)

// defaultClasses is the built-in three-tier service-class table: interactive
// traffic flows freely, reporting is cost-capped, batch is throttled hard and
// sheds load after five seconds of queueing.
func defaultClasses() []rt.ClassSpec {
	return []rt.ClassSpec{
		{Name: "interactive", Priority: policy.PriorityHigh, MaxMPL: 32},
		{Name: "reporting", Priority: policy.PriorityMedium, MaxMPL: 8, MaxCostTimerons: 50000},
		{Name: "batch", Priority: policy.PriorityLow, MaxMPL: 4,
			MaxQueueDelay: 5 * time.Second, RetryBatch: 8},
	}
}

// defaultSLOs is the built-in objective table matching defaultClasses:
// interactive answers in 50ms, reporting in 500ms, batch in 5s, each with
// the engine's default 0.1% miss budget. Targets reload via the policy
// document's slos section; windows come from the -slo-fast/-slo-slow flags.
func defaultSLOs(fast, slow time.Duration) []slo.Spec {
	return []slo.Spec{
		{Class: "interactive", Target: 0.050, FastWindow: fast, SlowWindow: slow},
		{Class: "reporting", Target: 0.500, FastWindow: fast, SlowWindow: slow},
		{Class: "batch", Target: 5, FastWindow: fast, SlowWindow: slow},
	}
}

func main() {
	var (
		addr       = flag.String("addr", ":8628", "HTTP listen address")
		wireAddr   = flag.String("wire-addr", "", "binary wire-protocol TCP listen address (empty = off)")
		policyPath = flag.String("policy", "", "JSON runtime policy applied at startup")
		globalMPL  = flag.Int("global-mpl", 48, "global concurrent-admission cap (0 = unlimited)")
		selftest   = flag.Bool("selftest", false, "run the closed-loop load generator and exit (non-zero on zero admits)")
		workers    = flag.Int("workers", 64, "selftest: concurrent closed-loop workers")
		perWorker  = flag.Int("per-worker", 200, "selftest: requests per worker")
		seed       = flag.Uint64("seed", 1, "selftest: RNG seed")

		sloOn   = flag.Bool("slo", false, "enable the SLO engine: deadline accounting at Done, GET /slo, dbwlm_slo_* metrics, burn-rate MAPE symptoms")
		sloFast = flag.Duration("slo-fast", time.Minute, "slo: fast burn-rate evaluation window")
		sloSlow = flag.Duration("slo-slow", 10*time.Minute, "slo: slow burn-rate evaluation window")

		traceCap  = flag.Int("trace", 0, "flight-recorder capacity in events (0 = off; served at /trace)")
		traceDump = flag.Int("trace-dump", 0, "selftest: print the last N flight-recorder events after the run (implies -trace)")
		pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

		predict    = flag.Bool("predict", false, "enable prediction-based admission: /admit accepts raw SQL via the sql= form field")
		maxBucket  = flag.String("predict-max-bucket", "monster", "predict: largest admissible predicted runtime bucket (short|medium|long|monster)")
		planCache  = flag.Int("plan-cache", 4096, "predict: fingerprinted plan-cache capacity (entries)")
		minObserve = flag.Int("predict-min-train", 30, "predict: completions observed before the model starts gating")
	)
	flag.Parse()

	r, err := rt.New(defaultClasses(), rt.Options{GlobalMaxMPL: *globalMPL})
	if err != nil {
		log.Fatal(err)
	}
	if *sloOn {
		// Attached before the startup policy so its slos section can reload
		// the default objectives; shares the runtime clock so deadlines and
		// windows agree with grant timestamps.
		eng, err := slo.New(defaultSLOs(*sloFast, *sloSlow), slo.Options{Now: r.NowNanos})
		if err != nil {
			log.Fatal(err)
		}
		r.SetSLO(eng)
	}
	if *policyPath != "" {
		data, err := os.ReadFile(*policyPath)
		if err != nil {
			log.Fatal(err)
		}
		p, err := policy.ParseRuntimePolicy(data)
		if err != nil {
			log.Fatal(err)
		}
		if err := r.ApplyPolicy(p); err != nil {
			log.Fatal(err)
		}
	}

	if *traceDump > 0 && *traceCap == 0 {
		*traceCap = 16384
	}
	if *traceCap > 0 {
		r.SetRecorder(obsv.NewRecorder(*traceCap))
	}

	if *selftest {
		out, totals := runSelfTest(r, *workers, *perWorker, *seed)
		fmt.Print(out)
		if eng := r.SLO(); eng != nil {
			fmt.Print("slo:\n" + dbwlm.SLOPanel(eng.Evaluate()))
		}
		if *traceDump > 0 {
			fmt.Print(dbwlm.TraceTail(r.Recorder(), *traceDump,
				func(id int32) string { return r.ClassName(rt.ClassID(id)) }))
		}
		fmt.Println(totals.line())
		if totals.admits == 0 {
			os.Exit(1)
		}
		return
	}

	srv := rthttp.NewServer(r)
	if *predict {
		bucket, ok := admission.BucketFromName(*maxBucket)
		if !ok {
			log.Fatalf("wlmd: unknown -predict-max-bucket %q", *maxBucket)
		}
		cache := sqlmini.NewPlanCache(sqlmini.NewCostModel(sqlmini.DefaultCatalog()), *planCache, 0)
		knn := &admission.KNNPredictor{
			MaxSeconds:  60,
			MinTraining: *minObserve,
			Background:  true, // retrain off the admit path; models swap in atomically
			Indexed:     true,
		}
		srv.EnablePredict(rt.NewPredictGate(r, cache, knn, bucket))
		log.Printf("wlmd: prediction gate on (max bucket %s, plan cache %d)", bucket, *planCache)
	}
	if *pprofOn {
		srv.EnablePprof()
		log.Printf("wlmd: pprof on at /debug/pprof/")
	}

	r.Start()
	defer r.Stop()
	if *wireAddr != "" {
		// The batched binary wire protocol: persistent TCP connections of
		// length-prefixed frames into the HTTP server's dispatcher, so both
		// fronts decide in one place and hand out interchangeable grants.
		l, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			log.Fatal(err)
		}
		ws := srv.EnableWire()
		defer ws.Close()
		go func() {
			if err := ws.Serve(l); err != nil {
				log.Fatal(err)
			}
		}()
		log.Printf("wlmd: wire protocol listening on %s", l.Addr())
	}
	// The live autonomic manager: monitor load, diagnose congestion, work the
	// low-priority gate. Every iteration lands in the flight recorder when
	// one is attached.
	stopLoop := rt.StartMAPELoop(rt.NewMAPELoop(r), 250*time.Millisecond)
	defer stopLoop()
	if eng := r.SLO(); eng != nil {
		log.Printf("wlmd: slo engine on (%d classes, fast %s, slow %s; GET /slo)",
			eng.Classes(), *sloFast, *sloSlow)
	}
	log.Printf("wlmd: %d classes, global MPL %d, trace %d events, listening on %s",
		r.NumClasses(), *globalMPL, *traceCap, *addr)
	// No write timeout: /admit parks with its request while the op is queued.
	hs := &http.Server{Addr: *addr, Handler: srv, ReadHeaderTimeout: readHeaderTimeout}
	log.Fatal(hs.ListenAndServe())
}

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a stalled connection cannot hold a server goroutine forever.
const readHeaderTimeout = 10 * time.Second

// selfTotals is the selftest outcome ledger across all classes.
type selfTotals struct {
	admits, rejects, timeouts int64
}

func (t selfTotals) line() string {
	return fmt.Sprintf("selftest: %d admits, %d rejects, %d timeouts", t.admits, t.rejects, t.timeouts)
}

// runSelfTest drives the runtime with a closed-loop in-process generator:
// workers spread across the class table admit, hold their slot for a
// lognormal service time, and release — the live analogue of the simulated
// experiments. It returns a per-class summary table plus the outcome totals
// (main exits non-zero when nothing was admitted).
func runSelfTest(r *rt.Runtime, workers, perWorker int, seed uint64) (string, selfTotals) {
	r.Start()
	defer r.Stop()
	if r.Recorder() != nil {
		// With a recorder attached, drive one overload and one recovery MAPE
		// cycle before the workers start so the trace shows the autonomic
		// loop acting — and the gate ends open, so no waiter can hang on it.
		loop := rt.NewMAPELoop(r)
		r.SetLoad(1.5, 0, 0.9)
		loop.RunOnce() // overload symptom -> throttle action: gate closes
		r.SetLoad(0.2, 0, 0.2)
		loop.RunOnce() // underload symptom -> resume action: gate reopens
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := sim.NewRNG(seed + uint64(w))
			class := rt.ClassID(w % r.NumClasses())
			for i := 0; i < perWorker; i++ {
				cost := 1000 * rng.LogNormal(0, 1)
				g := r.Admit(class, cost)
				if !g.Admitted() {
					continue // rejected: closed loop issues the next request
				}
				service := time.Duration(rng.LogNormal(0, 0.5) * float64(100*time.Microsecond))
				time.Sleep(service)
				r.Done(g, service.Seconds())
			}
		}(w)
	}
	wg.Wait()

	out := fmt.Sprintf("%-12s %9s %9s %9s %9s %9s %12s\n",
		"class", "admitted", "queued", "rejected", "timeouts", "done", "p95 lat ms")
	var totals selfTotals
	for _, st := range r.Snapshot() {
		out += fmt.Sprintf("%-12s %9d %9d %9d %9d %9d %12.3f\n",
			st.Class, st.Admitted, st.Queued, st.Rejected, st.Timeouts, st.Done,
			1000*st.Latency.P95)
		totals.admits += st.Admitted
		totals.rejects += st.Rejected
		totals.timeouts += st.Timeouts
	}
	return out, totals
}
