// Package rthttp serves the live workload-management runtime over HTTP: the
// admission-control layer of the taxonomy as a daemon API. cmd/wlmd wraps it
// with a class table and flags; examples/wlmd drives it end to end.
package rthttp

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dbwlm/internal/admission"
	"dbwlm/internal/autonomic"
	"dbwlm/internal/obsv"
	"dbwlm/internal/policy"
	"dbwlm/internal/rt"
	"dbwlm/internal/sim"
	"dbwlm/internal/slo"
	"dbwlm/internal/wire"
)

// Server is the wlmd HTTP front-end over a live runtime. Clients call
// POST /admit before running work against the database and POST /done after;
// the admission verdict — and any queueing — happens here, in front of the
// engine, exactly as the taxonomy's admission-control layer prescribes.
// GET /metrics exposes the striped statistics in Prometheus text format and
// GET /trace drains the flight recorder. Every response — including 400/404/
// 405 errors — is JSON with Content-Type set, except the Prometheus page.
type Server struct {
	rt      *rt.Runtime
	predict *rt.PredictGate
	mux     *http.ServeMux

	// dispatch executes /batch frames — the same transport-independent
	// dispatcher the TCP wire listener runs, so both paths produce identical
	// verdicts and recorder events for one op stream.
	dispatch wire.Dispatcher

	// statsBuf recycles snapshot scratch buffers across /stats requests so
	// the monitoring read does not allocate a fresh per-class slice each poll.
	statsBuf sync.Pool
	// respPool recycles the hand-built JSON reply buffers of the single-op
	// hot endpoints (/admit, /done), keeping their per-request response cost
	// to a pool round-trip instead of an encoder allocation.
	respPool sync.Pool
	// batchPool recycles /batch scratch (body, decoded ops, results, encoded
	// response) across requests.
	batchPool sync.Pool
}

// NewServer wires the endpoints over a runtime.
func NewServer(r *rt.Runtime) *Server {
	s := &Server{rt: r, mux: http.NewServeMux()}
	s.dispatch.RT = r
	s.handle("/admit", methods{http.MethodPost: s.handleAdmit})
	s.handle("/done", methods{http.MethodPost: s.handleDone})
	s.handle("/batch", methods{http.MethodPost: s.handleBatch})
	s.handle("/stats", methods{http.MethodGet: s.handleStats})
	s.handle("/trace", methods{http.MethodGet: s.handleTrace})
	s.handle("/slo", methods{http.MethodGet: s.handleSLO})
	s.handle("/metrics", methods{http.MethodGet: s.handleMetrics})
	s.handle("/policy", methods{
		http.MethodGet:  s.handlePolicyGet,
		http.MethodPost: s.handlePolicySet,
	})
	s.handle("/load", methods{http.MethodPost: s.handleLoad})
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusNotFound, "no such endpoint %q", r.URL.Path)
	})
	return s
}

// methods maps HTTP methods to their handler for one path.
type methods map[string]http.HandlerFunc

// handle registers a path with per-method dispatch: an unsupported method
// gets a 405 JSON body plus the Allow header, instead of the mux's implicit
// plain-text reply.
func (s *Server) handle(path string, m methods) {
	allowed := make([]string, 0, len(m))
	for method := range m {
		allowed = append(allowed, method)
	}
	// Deterministic Allow header (map order is random).
	for i := 1; i < len(allowed); i++ {
		for j := i; j > 0 && allowed[j] < allowed[j-1]; j-- {
			allowed[j], allowed[j-1] = allowed[j-1], allowed[j]
		}
	}
	allow := strings.Join(allowed, ", ")
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		h, ok := m[r.Method]
		if !ok {
			w.Header().Set("Allow", allow)
			httpError(w, http.StatusMethodNotAllowed,
				"method %s not allowed on %s (allow: %s)", r.Method, path, allow)
			return
		}
		h(w, r)
	})
}

// EnablePredict attaches a prediction gate: /admit accepts a raw `sql` form
// field (fingerprinted, planned, and runtime-predicted before admission) and
// /done with the same `sql` feeds the observed service time back into the
// model. Call before serving traffic.
func (s *Server) EnablePredict(g *rt.PredictGate) {
	s.predict = g
	s.dispatch.Predict = g
}

// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/ on the
// server's own mux (the wlmd -pprof flag), so profiling needs no second
// listener and stays off unless asked for.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// AdmitResponse is the /admit reply. Token is present only when admitted and
// must be returned verbatim to /done. The prediction fields are populated
// only on the raw-SQL path of a predict-enabled server.
type AdmitResponse struct {
	Verdict string `json:"verdict"`
	Token   string `json:"token,omitempty"`

	Cost             float64 `json:"cost,omitempty"`
	PredictedSeconds float64 `json:"predicted_seconds,omitempty"`
	PredictedBucket  string  `json:"predicted_bucket,omitempty"`
	Modeled          bool    `json:"modeled,omitempty"`
	CacheHit         bool    `json:"cache_hit,omitempty"`
}

func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	class, ok := s.rt.Class(r.FormValue("class"))
	if !ok {
		httpError(w, http.StatusBadRequest, "unknown class %q", r.FormValue("class"))
		return
	}
	var (
		g    rt.Grant
		resp AdmitResponse
	)
	if sql := r.FormValue("sql"); sql != "" && s.predict != nil {
		// Wire-speed path: the statement itself is the cost estimate.
		grant, pred, err := s.predict.AdmitSQL(class, sql)
		if err != nil {
			httpError(w, http.StatusBadRequest, "sql: %v", err)
			return
		}
		g = grant
		resp.Cost = pred.Timerons
		resp.Modeled = pred.Modeled
		resp.CacheHit = pred.CacheHit
		if pred.Modeled {
			resp.PredictedSeconds = pred.Seconds
			resp.PredictedBucket = pred.Bucket.String()
		}
	} else {
		cost := 0.0
		if v := r.FormValue("cost"); v != "" {
			var err error
			if cost, err = strconv.ParseFloat(v, 64); err != nil {
				httpError(w, http.StatusBadRequest, "bad cost %q", v)
				return
			}
		}
		// Admit blocks while the request is queued; the client's HTTP request
		// parks with it, which is the wait queue made visible to the client.
		g = s.rt.Admit(class, cost)
	}
	resp.Verdict = g.Verdict().String()
	resp.Token = g.Token()
	status := http.StatusOK
	if !g.Admitted() {
		status = http.StatusTooManyRequests
	}
	s.writeAdmit(w, status, &resp)
}

// writeAdmit renders an AdmitResponse through a pooled scratch buffer —
// byte-identical in shape to what encoding/json produces for the struct
// (same fields, same omitempty rules) without the per-request encoder state.
// The hot verdict strings and tokens are plain ASCII, so appendJSONString's
// fast path runs a single copy.
func (s *Server) writeAdmit(w http.ResponseWriter, status int, resp *AdmitResponse) {
	bp, _ := s.respPool.Get().(*[]byte)
	if bp == nil {
		b := make([]byte, 0, 256)
		bp = &b
	}
	b := (*bp)[:0]
	b = append(b, `{"verdict":`...)
	b = appendJSONString(b, resp.Verdict)
	if resp.Token != "" {
		b = append(b, `,"token":`...)
		b = appendJSONString(b, resp.Token)
	}
	if resp.Cost != 0 {
		b = append(b, `,"cost":`...)
		b = appendJSONFloat(b, resp.Cost)
	}
	if resp.PredictedSeconds != 0 {
		b = append(b, `,"predicted_seconds":`...)
		b = appendJSONFloat(b, resp.PredictedSeconds)
	}
	if resp.PredictedBucket != "" {
		b = append(b, `,"predicted_bucket":`...)
		b = appendJSONString(b, resp.PredictedBucket)
	}
	if resp.Modeled {
		b = append(b, `,"modeled":true`...)
	}
	if resp.CacheHit {
		b = append(b, `,"cache_hit":true`...)
	}
	b = append(b, '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
	*bp = b
	s.respPool.Put(bp)
}

// appendJSONString appends s as a JSON string literal. The fast path — every
// string this server emits on its hot endpoints — is ASCII with nothing to
// escape; anything else falls back to the stdlib encoder's rules via
// strconv.AppendQuote, which escapes quotes, backslashes, and controls.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			return strconv.AppendQuote(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends v using encoding/json's format selection: fixed
// notation inside the range JSON numbers read naturally, exponent outside it
// (with the stdlib's e-07 -> e-7 exponent cleanup, so output stays
// byte-identical to json.Marshal).
func appendJSONFloat(b []byte, v float64) []byte {
	abs := math.Abs(v)
	f := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		f = 'e'
	}
	b = strconv.AppendFloat(b, v, f, -1, 64)
	if f == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

func (s *Server) handleDone(w http.ResponseWriter, r *http.Request) {
	g, err := s.rt.ParseToken(r.FormValue("token"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ideal := 0.0
	if v := r.FormValue("ideal"); v != "" {
		if ideal, err = strconv.ParseFloat(v, 64); err != nil {
			httpError(w, http.StatusBadRequest, "bad ideal %q", v)
			return
		}
	}
	if sql := r.FormValue("sql"); sql != "" && s.predict != nil {
		// Stateless feedback: the client echoes the statement and the server
		// re-resolves its features through the plan cache (a guaranteed hit
		// for anything recently admitted), then trains on the elapsed time.
		elapsed := s.rt.ElapsedSeconds(g)
		s.rt.Done(g, ideal)
		s.predict.Observe(sql, elapsed)
	} else {
		s.rt.Done(g, ideal)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(releasedJSON)
}

// releasedJSON is the constant /done success body; the hot release path never
// builds it per request.
var releasedJSON = []byte("{\"status\":\"released\"}\n")

// batchState is one /batch request's reusable scratch: request body, decoded
// ops, dispatch results, and the encoded response payload.
type batchState struct {
	body []byte
	req  wire.BatchReq
	res  []wire.Result
	out  []byte
}

// handleBatch serves the binary batched admission protocol over HTTP: the
// request body is one wire request payload (no length prefix — HTTP frames
// the body), the response body one wire response payload. It shares the
// dispatcher with the TCP listener, so a batch admits, releases, and records
// exactly as it would on the raw socket; HTTP supplies framing, routing, and
// middleware at the cost of per-request header overhead.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	st, _ := s.batchPool.Get().(*batchState)
	if st == nil {
		st = &batchState{}
	}
	defer s.batchPool.Put(st)
	if r.ContentLength > wire.MaxFrame {
		httpError(w, http.StatusRequestEntityTooLarge,
			"batch body %d exceeds %d", r.ContentLength, wire.MaxFrame)
		return
	}
	var err error
	st.body, err = readBody(st.body[:0], http.MaxBytesReader(w, r.Body, wire.MaxFrame))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if err := wire.DecodeRequest(st.body, &st.req); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	st.res = s.dispatch.Dispatch(st.req.Ops, st.res)
	out, err := wire.EncodeResponse(st.out, st.res[:len(st.req.Ops)])
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if cap(out) > cap(st.out) {
		st.out = out
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(out)
}

// readBody reads r to EOF into buf, reusing its capacity (io.ReadAll always
// allocates; the batch path must not once warm).
func readBody(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// StatsResponse is the /stats reply: the merged-shard monitoring view.
// Predict is present only on a predict-enabled server.
type StatsResponse struct {
	InEngine        int  `json:"in_engine"`
	LowPriorityGate bool `json:"low_priority_gate"`
	// NumCPU and GOMAXPROCS describe the host the daemon runs on, so every
	// scrape — and every benchmark built on one — carries its own hardware
	// provenance (a GOMAXPROCS=8 run on a single-CPU box measures scheduling
	// overhead, not parallel speedup; the stats say which one you got).
	NumCPU     int              `json:"num_cpu"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Classes    []rt.ClassStats  `json:"classes"`
	Predict    *rt.PredictStats `json:"predict,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	buf, _ := s.statsBuf.Get().([]rt.ClassStats)
	classes := s.rt.SnapshotInto(buf)
	resp := StatsResponse{
		InEngine:        s.rt.InEngine(),
		LowPriorityGate: s.rt.LowPriorityGate(),
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Classes:         classes,
	}
	if s.predict != nil {
		st := s.predict.Stats()
		resp.Predict = &st
	}
	writeJSON(w, http.StatusOK, resp)
	s.statsBuf.Put(classes[:0])
}

// TraceEvent is one flight-recorder event rendered for the /trace reply.
type TraceEvent struct {
	AtSeconds   float64 `json:"at_seconds"`
	Kind        string  `json:"kind"`
	Reason      string  `json:"reason,omitempty"`
	Class       string  `json:"class,omitempty"`
	Verdict     string  `json:"verdict,omitempty"`
	QID         int64   `json:"qid,omitempty"`
	Fingerprint string  `json:"fp,omitempty"`
	Value       float64 `json:"value"`
	Aux         float64 `json:"aux,omitempty"`
}

// TraceResponse is the /trace reply: ring accounting plus the drained tail,
// oldest first.
type TraceResponse struct {
	Recorded    uint64       `json:"recorded"`
	Overwritten uint64       `json:"overwritten"`
	Capacity    int          `json:"capacity"`
	Events      []TraceEvent `json:"events"`
}

// handleTrace drains the flight recorder: GET /trace?n=&class=&verdict=&
// kind=&qid=&since=. n defaults to 100 (n=0 returns every retained match);
// since is a Go duration ("30s", "5m") keeping only events newer than that
// on the runtime clock.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	rec := s.rt.Recorder()
	if rec == nil {
		httpError(w, http.StatusNotFound, "flight recorder disabled (start wlmd with -trace)")
		return
	}
	n := 100
	if v := r.FormValue("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 {
			httpError(w, http.StatusBadRequest, "bad n %q", v)
			return
		}
		n = parsed
	}
	f := obsv.MatchAll
	if v := r.FormValue("class"); v != "" {
		id, ok := s.rt.Class(v)
		if !ok {
			httpError(w, http.StatusBadRequest, "unknown class %q", v)
			return
		}
		f.Class = int32(id)
	}
	if v := r.FormValue("verdict"); v != "" {
		verdict, ok := rt.VerdictFromName(v)
		if !ok {
			httpError(w, http.StatusBadRequest, "unknown verdict %q", v)
			return
		}
		f.Verdict = int16(verdict)
	}
	if v := r.FormValue("kind"); v != "" {
		kind, ok := obsv.KindFromName(v)
		if !ok {
			httpError(w, http.StatusBadRequest, "unknown kind %q", v)
			return
		}
		f.Kind = kind
	}
	if v := r.FormValue("qid"); v != "" {
		qid, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad qid %q", v)
			return
		}
		f.QID = qid
	}
	if v := r.FormValue("since"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			httpError(w, http.StatusBadRequest, "bad since %q (want a duration like 30s)", v)
			return
		}
		if minAt := s.rt.NowNanos() - d.Nanoseconds(); minAt > 0 {
			f.MinAt = minAt
		}
	}
	events := rec.Tail(n, f)
	resp := TraceResponse{
		Recorded:    rec.Recorded(),
		Overwritten: rec.Overwritten(),
		Capacity:    rec.Cap(),
		Events:      make([]TraceEvent, len(events)),
	}
	for i, e := range events {
		te := TraceEvent{
			AtSeconds: float64(e.At) / 1e9,
			Kind:      e.Kind.String(),
			Reason:    e.Reason.String(),
			QID:       e.QID,
			Value:     e.Value,
			Aux:       e.Aux,
		}
		if e.Class != obsv.NoClass {
			te.Class = s.rt.ClassName(rt.ClassID(e.Class))
		}
		if e.Verdict != obsv.NoVerdict {
			te.Verdict = rt.Verdict(e.Verdict).String()
		}
		if e.FP != 0 {
			te.Fingerprint = fmt.Sprintf("%016x", e.FP)
		}
		resp.Events[i] = te
	}
	writeJSON(w, http.StatusOK, resp)
}

// SLOResponse is the /slo reply: every class's objective, windowed burn
// rates, and error-budget state at the runtime clock's now.
type SLOResponse struct {
	NowSeconds float64 `json:"now_seconds"`
	// EpochSeconds is the window-quantization grain: windowed numbers cover
	// their nominal span rounded up by less than one epoch.
	EpochSeconds float64      `json:"epoch_seconds"`
	Classes      []slo.Report `json:"classes"`
}

// handleSLO reports SLO attainment: GET /slo on a daemon started with -slo.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	e := s.rt.SLO()
	if e == nil {
		httpError(w, http.StatusNotFound, "slo engine disabled (start wlmd with -slo)")
		return
	}
	writeJSON(w, http.StatusOK, SLOResponse{
		NowSeconds:   float64(s.rt.NowNanos()) / 1e9,
		EpochSeconds: float64(e.EpochNS()) / 1e9,
		Classes:      e.Evaluate(),
	})
}

// handleMetrics renders the Prometheus text-format exposition (the one
// non-JSON page the daemon serves).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obsv.NewPromWriter(w)
	s.rt.WritePrometheus(p)
	if s.predict != nil {
		s.predict.WritePrometheus(p)
	}
	// A write error here means the scraper hung up; nothing to do.
	_ = p.Err()
}

func (s *Server) handlePolicyGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.rt.Policy())
}

func (s *Server) handlePolicySet(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	p, err := policy.ParseRuntimePolicy(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.rt.ApplyPolicy(p); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.rt.Policy())
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	mem, err1 := formFloat(r, "mem")
	conflict, err2 := formFloat(r, "conflict")
	cpu, err3 := formFloat(r, "cpu")
	for _, err := range []error{err1, err2, err3} {
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	s.rt.SetLoad(mem, conflict, cpu)
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func formFloat(r *http.Request, key string) (float64, error) {
	v := r.FormValue(key)
	if v == "" {
		return 0, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", key, v)
	}
	return f, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// NewMAPELoop builds the live autonomic manager (Section 5.3) over the
// runtime: the monitor snapshots the merged-shard view, the analyzer applies
// the indicator thresholds (Zhang et al.) to diagnose overload — or
// underload once the congestion gate is closed and the indicators have
// cleared — the planner picks the gate action, and the executor flips the
// low-priority gate. When the runtime carries an SLO engine, the analyzer
// also consumes its multi-window burn rates: a class burning error budget in
// both windows raises an slo-violation symptom whose recorder reason says
// why (burn-rate, or budget-exhausted once the cumulative budget is spent),
// and the planner sheds low-priority work for it. With a flight
// recorder attached, every iteration's snapshot, symptoms, and actions land
// in the trace: the MAPE loop thinking out loud. Drive it with RunOnce
// (tests, selftest) or StartMAPELoop.
func NewMAPELoop(r *rt.Runtime, rec *obsv.Recorder) *autonomic.Loop {
	// Evaluation scratch reused across cycles (the loop runs RunOnce on one
	// goroutine).
	var sloReports []slo.Report
	indicators := &admission.Indicators{Engine: r}
	return &autonomic.Loop{
		Flight: rec,
		ClassID: func(name string) int32 {
			if id, ok := r.Class(name); ok {
				return int32(id)
			}
			return obsv.NoClass
		},
		Monitor: func() autonomic.Observation {
			return autonomic.Observation{
				At:     sim.Time(r.NowNanos() / 1000),
				Engine: r.StatsNow(),
			}
		},
		Analyze: func(obs autonomic.Observation) []autonomic.Symptom {
			var out []autonomic.Symptom
			if e := r.SLO(); e != nil {
				sloReports = e.EvaluateInto(sloReports)
				for i := range sloReports {
					rp := &sloReports[i]
					if !rp.Burning {
						continue
					}
					reason := obsv.ReasonBurnRate
					sev := rp.Windows[0].BurnRate / (2 * rp.BurnThreshold)
					if rp.BudgetRemaining == 0 {
						reason = obsv.ReasonBudgetExhausted
						sev = 1
					}
					if sev > 1 {
						sev = 1
					}
					out = append(out, autonomic.Symptom{
						Kind: autonomic.SymptomSLOViolation, Class: rp.Class,
						Severity: sev, Reason: reason,
					})
				}
			}
			excess := indicators.Excess(obs.Engine)
			switch {
			case excess > 0:
				out = append(out, autonomic.Symptom{Kind: autonomic.SymptomOverload, Severity: min(1, excess)})
			case len(out) == 0 && r.LowPriorityGate():
				// The gate is holding work that neither the indicators nor
				// the burn rates still justify.
				out = append(out, autonomic.Symptom{Kind: autonomic.SymptomUnderload, Severity: 1})
			}
			return out
		},
		Plan: func(_ autonomic.Observation, symptoms []autonomic.Symptom) []autonomic.PlannedAction {
			for _, sym := range symptoms {
				switch sym.Kind {
				case autonomic.SymptomOverload, autonomic.SymptomSLOViolation:
					return []autonomic.PlannedAction{{Kind: autonomic.ActionThrottle, Amount: 1}}
				case autonomic.SymptomUnderload:
					return []autonomic.PlannedAction{{Kind: autonomic.ActionResume}}
				}
			}
			return nil
		},
		Execute: func(actions []autonomic.PlannedAction) {
			for _, a := range actions {
				switch a.Kind {
				case autonomic.ActionThrottle:
					r.SetLowPriorityGate(true)
				case autonomic.ActionResume:
					r.SetLowPriorityGate(false)
				}
			}
		},
	}
}

// StartMAPELoop runs the loop's RunOnce on a wall-clock ticker. Returns a
// stop function.
func StartMAPELoop(loop *autonomic.Loop, interval time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				loop.RunOnce()
			case <-done:
				return
			}
		}
	}()
	return func() { close(done) }
}
