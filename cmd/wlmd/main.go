// Command wlmd runs the live workload-management runtime as an HTTP daemon:
// a workload-management layer in front of a database engine, in the spirit of
// the taxonomy's admission-control systems. Clients ask /admit before running
// work and report /done after; limits reload at runtime through /policy;
// GET /metrics serves Prometheus text format and GET /trace drains the
// flight recorder.
//
//	wlmd -addr :8628                    # serve
//	wlmd -trace 16384 -pprof            # serve with flight recorder + pprof
package main

import (
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"dbwlm/internal/admission"
	"dbwlm/internal/obsv"
	"dbwlm/internal/policy"
	"dbwlm/internal/rt"
	"dbwlm/internal/rthttp"
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

		sloOn   = flag.Bool("slo", false, "enable the SLO engine: deadline accounting at Done, GET /slo, dbwlm_slo_* metrics, burn-rate MAPE symptoms")
		sloFast = flag.Duration("slo-fast", time.Minute, "slo: fast burn-rate evaluation window")
		sloSlow = flag.Duration("slo-slow", 10*time.Minute, "slo: slow burn-rate evaluation window")

		traceCap = flag.Int("trace", 0, "flight-recorder capacity in events (0 = off; served at /trace)")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

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

	if *traceCap > 0 {
		r.SetRecorder(obsv.NewRecorder(*traceCap))
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
	log.Fatal(newHTTPServer(*addr, srv, idleTimeout).ListenAndServe())
}

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so a stalled connection cannot hold a server goroutine forever.
const readHeaderTimeout = 10 * time.Second

// idleTimeout bounds how long a keep-alive connection may sit between
// requests before the server closes it, so a client that stops talking does
// not keep a goroutine and a socket forever.
const idleTimeout = 2 * time.Minute

// newHTTPServer is wlmd's HTTP server. It has no write timeout: /admit parks
// with its request while the op is queued.
func newHTTPServer(addr string, h http.Handler, idle time.Duration) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idle}
}
