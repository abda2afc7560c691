// Package rthttp serves the live workload-management runtime over HTTP: the
// admission-control layer of the taxonomy as a daemon API. cmd/wlmd wraps it
// with a class table and flags; examples/wlmd drives it end to end.
package rthttp

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"dbwlm/internal/obsv"
	"dbwlm/internal/policy"
	"dbwlm/internal/rt"
	"dbwlm/internal/slo"
	"dbwlm/internal/sqlmini"
	"dbwlm/internal/wire"
)

// Server is the wlmd HTTP front-end over a live runtime. Clients call
// POST /admit before running work against the database and POST /done after;
// the admission verdict — and any queueing — happens here, in front of the
// engine, exactly as the taxonomy's admission-control layer prescribes.
// GET /metrics exposes the runtime's statistics in Prometheus text format and
// GET /trace drains the flight recorder. Every response — including 400/404/
// 405 errors — is JSON with Content-Type set, except the Prometheus page.
//
// The package is transport and nothing else: /admit, /done and /batch are
// codecs over one wire.Dispatcher, the same one the TCP listener drives.
type Server struct {
	rt  *rt.Runtime
	mux *http.ServeMux

	// dispatch is the daemon's one decision path. /admit and /done build one
	// wire.Op from their form fields and render its wire.Result; /batch and
	// the TCP listener (EnableWire) hand it whole frames.
	dispatch wire.Dispatcher
	// wire is the TCP front end, when one is attached; /metrics exports its
	// counters.
	wire *wire.Server
}

// NewServer wires the endpoints over a runtime.
func NewServer(r *rt.Runtime) *Server {
	s := &Server{rt: r, mux: http.NewServeMux(), dispatch: wire.Dispatcher{RT: r}}
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
	sort.Strings(allowed) // deterministic Allow header (map order is random)
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
func (s *Server) EnablePredict(g *rt.PredictGate) { s.dispatch.Predict = g }

// EnableWire builds the TCP front end of the batched protocol over this
// server's dispatcher — both fronts hand out interchangeable grants — and
// exports its listener counters on /metrics as dbwlm_wire_*. The caller
// runs Serve on it and closes it.
func (s *Server) EnableWire() *wire.Server {
	s.wire = wire.NewServer(&s.dispatch)
	return s.wire
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

// dispatchOne runs a single-op request through the decision path.
func (s *Server) dispatchOne(op wire.Op) wire.Result {
	return s.dispatch.Dispatch([]wire.Op{op}, nil)[0]
}

// handleAdmit is the form codec for one admit op: class name -> id, `sql`
// (prediction-based) or `cost`. DeadlineNS stays 0, so the op blocks while
// queued and the client's HTTP request parks with it — the wait queue made
// visible to the client.
func (s *Server) handleAdmit(w http.ResponseWriter, r *http.Request) {
	class, ok := s.rt.Class(r.FormValue("class"))
	if !ok {
		httpError(w, http.StatusBadRequest, "unknown class %q", r.FormValue("class"))
		return
	}
	op := wire.Op{Code: wire.OpAdmit, Class: uint16(class)}
	if sql := r.FormValue("sql"); sql != "" {
		// The statement itself is the cost estimate.
		op.Code, op.SQL = wire.OpAdmitSQL, []byte(sql)
	} else {
		var err error
		if op.Cost, err = formFloat(r, "cost"); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	res := s.dispatchOne(op)
	switch res.Status {
	case wire.StatusParseError:
		httpError(w, http.StatusBadRequest, "sql: statement does not parse or plan")
	case wire.StatusNoPredict:
		httpError(w, http.StatusBadRequest, "sql admission needs the prediction gate (start wlmd with -predict)")
	default:
		s.writeAdmit(w, &res)
	}
}

// writeAdmit renders an admit op's verdict as the /admit reply: 200 with the
// token /done takes back, or 429.
func (s *Server) writeAdmit(w http.ResponseWriter, res *wire.Result) {
	resp := AdmitResponse{Verdict: rt.Verdict(res.Status).String()}
	status := http.StatusTooManyRequests
	if res.Status == wire.StatusAdmitted {
		status = http.StatusOK
		g, _ := s.rt.GrantFromParts(rt.ClassID(res.Class), res.Start, res.QID)
		resp.Token = g.Token()
	}
	if res.Code == wire.OpAdmitSQL {
		resp.Cost = res.Cost
		resp.Modeled = res.Flags&wire.FlagModeled != 0
		resp.CacheHit = res.Flags&wire.FlagCacheHit != 0
		if resp.Modeled {
			resp.PredictedSeconds = res.Predicted
			resp.PredictedBucket = rt.BucketName(res.Predicted)
		}
	}
	writeJSON(w, status, resp)
}

// handleDone is the form codec for one done op: the token's grant parts,
// `ideal`, and — stateless feedback — the fingerprint of an echoed `sql`,
// which names the interned plan whose features the observed service time
// trains.
func (s *Server) handleDone(w http.ResponseWriter, r *http.Request) {
	g, err := s.rt.ParseToken(r.FormValue("token"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	class, start, id, _ := g.Parts()
	op := wire.Op{Code: wire.OpDone, Class: uint16(class), Start: start, QID: id}
	if op.Ideal, err = formFloat(r, "ideal"); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if sql := r.FormValue("sql"); sql != "" {
		fp := sqlmini.FingerprintSQL(sql)
		op.FPHi, op.FPLo = fp.Hi, fp.Lo
	}
	if res := s.dispatchOne(op); res.Status != wire.StatusReleased {
		httpError(w, http.StatusBadRequest, "token does not name a grant (%v)", res.Status)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "released"})
}

// handleBatch serves the binary batched admission protocol over HTTP: the
// request body is one wire request payload (no length prefix — HTTP frames
// the body), the response body one wire response payload, through the same
// ServeFrame as the TCP listener; HTTP supplies framing, routing, and
// middleware at the cost of per-request header overhead.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.ContentLength > wire.MaxFrame {
		httpError(w, http.StatusRequestEntityTooLarge,
			"batch body %d exceeds %d", r.ContentLength, wire.MaxFrame)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, wire.MaxFrame))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	var st wire.FrameState
	out, err := s.dispatch.ServeFrame(body, &st)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(out)
}

// StatsResponse is the /stats reply: the per-class monitoring view.
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
	resp := StatsResponse{
		InEngine:        s.rt.InEngine(),
		LowPriorityGate: s.rt.LowPriorityGate(),
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		Classes:         s.rt.Snapshot(),
	}
	if g := s.dispatch.Predict; g != nil {
		st := g.Stats()
		resp.Predict = &st
	}
	writeJSON(w, http.StatusOK, resp)
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
	if g := s.dispatch.Predict; g != nil {
		g.WritePrometheus(p)
	}
	if s.wire != nil {
		s.wire.WritePrometheus(p)
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
