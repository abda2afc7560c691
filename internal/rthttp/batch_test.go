package rthttp

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dbwlm/internal/admission"
	"dbwlm/internal/obsv"
	"dbwlm/internal/rt"
	"dbwlm/internal/sqlmini"
	"dbwlm/internal/wire"
)

// tickingClock is a fake monotonic clock advancing 1ms per read: every
// recorder event gets a unique, deterministic timestamp, and elapsed times
// depend only on how many clock reads a code path performs. That makes two
// runtimes driven through different transports directly comparable — if the
// paths do the same work, their clocks stay in lockstep.
func tickingClock() func() int64 {
	var t atomic.Int64
	return func() int64 { return t.Add(1e6) }
}

// predictStack is one fully independent server stack: runtime, recorder,
// prediction gate, HTTP front end and TCP wire listener — all over a
// deterministic clock.
type predictStack struct {
	rt   *rt.Runtime
	gate *rt.PredictGate // nil when built with cacheCap 0
	srv  *httptest.Server
	wire string // the TCP listener's address
}

// newPredictStack builds a stack whose plan cache holds cacheCap entries in
// one shard (1 is a single slot: every new shape evicts the last); cacheCap 0
// builds it without a prediction gate.
func newPredictStack(t *testing.T, cacheCap int) predictStack {
	t.Helper()
	r, err := rt.New(testSpecs(), rt.Options{GlobalMaxMPL: 64, Now: tickingClock()})
	if err != nil {
		t.Fatal(err)
	}
	r.SetRecorder(obsv.NewRecorder(1 << 12))
	s := NewServer(r)
	st := predictStack{rt: r}
	if cacheCap > 0 {
		cache := sqlmini.NewPlanCache(sqlmini.NewCostModel(sqlmini.DefaultCatalog()), cacheCap, 1)
		// MinTraining beyond the script length keeps the model out of the gate:
		// the equivalence property is about transports, not predictions.
		knn := &admission.KNNPredictor{MaxSeconds: 60, MinTraining: 1000}
		st.gate = rt.NewPredictGate(r, cache, knn, admission.BucketMonster)
		s.EnablePredict(st.gate)
	}
	st.srv = httptest.NewServer(s)
	t.Cleanup(st.srv.Close)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := s.EnableWire()
	go ws.Serve(l)
	t.Cleanup(func() { ws.Close() })
	st.wire = l.Addr().String()
	return st
}

func postForm(t *testing.T, srv *httptest.Server, path string, form url.Values) (int, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/x-www-form-urlencoded",
		strings.NewReader(form.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// postBatch sends one binary frame to /batch and decodes the reply.
func postBatch(t *testing.T, srv *httptest.Server, ops []wire.Op) []wire.Result {
	t.Helper()
	payload, err := wire.EncodeRequest(nil, ops)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/batch", "application/octet-stream",
		bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/batch: %s: %s", resp.Status, body)
	}
	return decodeResults(t, body, len(ops))
}

// decodeResults decodes one response payload that must answer n ops.
func decodeResults(t *testing.T, body []byte, n int) []wire.Result {
	t.Helper()
	var res wire.BatchRes
	if err := wire.DecodeResponse(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != n {
		t.Fatalf("%d results for %d ops", len(res.Results), n)
	}
	return res.Results
}

// dialWire opens one wire-protocol connection and returns a function sending
// one frame over it and decoding the reply — postBatch for the TCP listener.
func dialWire(t *testing.T, addr string) func(ops []wire.Op) []wire.Result {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fc := wire.NewFrameConn(conn)
	return func(ops []wire.Op) []wire.Result {
		t.Helper()
		payload, err := wire.EncodeRequest(nil, ops)
		if err != nil {
			t.Fatal(err)
		}
		if err := fc.WriteFrame(payload); err != nil {
			t.Fatal(err)
		}
		body, err := fc.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		return decodeResults(t, body, len(ops))
	}
}

// TestBatchEndpoint: POST /batch speaks the binary frame format over HTTP and
// lands in the same dispatcher as the TCP wire path; malformed bodies are 400s.
func TestBatchEndpoint(t *testing.T) {
	st := newPredictStack(t, 256)
	res := postBatch(t, st.srv, []wire.Op{
		{Code: wire.OpAdmit, Class: 0, Cost: 10},
		{Code: wire.OpAdmitSQL, Class: 0, SQL: []byte("SELECT id, name FROM customers WHERE id = 7")},
		{Code: wire.OpAdmit, Class: 99, Cost: 10},
	})
	if res[0].Status != wire.StatusAdmitted || res[1].Status != wire.StatusAdmitted {
		t.Fatalf("admits: %v, %v", res[0].Status, res[1].Status)
	}
	if res[2].Status != wire.StatusBadClass {
		t.Fatalf("bad class: %v, want %v", res[2].Status, wire.StatusBadClass)
	}
	rel := postBatch(t, st.srv, []wire.Op{
		{Code: wire.OpDone, Class: res[0].Class, Start: res[0].Start, QID: res[0].QID},
		{Code: wire.OpDone, Class: res[1].Class, Start: res[1].Start, QID: res[1].QID,
			FPHi: res[1].FPHi, FPLo: res[1].FPLo},
	})
	for i := range rel {
		if rel[i].Status != wire.StatusReleased {
			t.Fatalf("done %d: %v, want released", i, rel[i].Status)
		}
	}
	if got := st.rt.InEngine(); got != 0 {
		t.Fatalf("in-engine %d after balanced batches, want 0", got)
	}

	resp, err := http.Post(st.srv.URL+"/batch", "application/octet-stream",
		strings.NewReader("this is not a frame"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: %d, want 400", resp.StatusCode)
	}
}

// replayStep is one logical client action the equivalence test issues over
// every transport.
type replayStep struct {
	// admit | admitsql | done | donesql, or a /done no grant stands behind:
	// done-garbled (a token that does not parse; on the wire, a class outside
	// the table) and done-forged (a grant of the retired sharded shape: the
	// five-field token, and on the wire non-zero reserved shard bytes).
	op    string
	class string // admit ops; "nope" is outside testSpecs
	cost  float64
	sql   string // admitsql; donesql defaults to its admit's statement
	ref   int    // done ops: index of the step whose grant is released
	// fail is the wire status of a step that is refused rather than decided;
	// over single-op HTTP the same step must be a 400.
	fail wire.Status
}

// doneSQL is the statement a donesql step echoes.
func doneSQL(script []replayStep, step replayStep) string {
	if step.sql != "" {
		return step.sql
	}
	return script[step.ref].sql
}

// TestAdmitNonASCIISQL: POST /admit with a statement holding a Latin-1
// letter byte is a 400, answered promptly — such a byte used to spin the
// handler in an identifier scan that never advanced.
func TestAdmitNonASCIISQL(t *testing.T) {
	st := newPredictStack(t, 256)
	for _, b := range []byte{0xAA, 0xB5, 0xC0, 0xE9, 0xFF} {
		form := url.Values{"class": {"interactive"}, "sql": {"SELECT * FROM orders WHERE x = " + string([]byte{b})}}
		code := make(chan int, 1)
		go func() {
			resp, err := http.PostForm(st.srv.URL+"/admit", form)
			if err != nil {
				code <- 0
				return
			}
			resp.Body.Close()
			code <- resp.StatusCode
		}()
		select {
		case c := <-code:
			if c != http.StatusBadRequest {
				t.Fatalf("byte %#x: /admit status %d, want 400", b, c)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("byte %#x: /admit did not answer", b)
		}
	}
}

// TestBatchReplayEquivalence pins the one-decision-path contract: a batch of
// N ops produces exactly what the same N ops produce as sequential single-op
// /admit and /done calls, whether the batch travels as POST /batch or over
// the TCP listener — identical verdict sequences, identical per-class grant
// accounting, identical flight-recorder event streams, identical plan-cache
// traffic. Independent stacks with deterministic clocks run the same script,
// one per transport, and nothing may differ: not the histograms' sums, not
// the events' QIDs or sequence numbers. The failure scripts hold the refusals to the same standard: what
// one transport refuses the others refuse, and a refused /done releases
// nothing.
func TestBatchReplayEquivalence(t *testing.T) {
	q0 := "SELECT id, name FROM customers WHERE id = 42"
	q1 := "SELECT COUNT(*) FROM orders WHERE total > 100"
	for _, tc := range []struct {
		name     string
		cacheCap int
		script   []replayStep
	}{
		{"decisions", 256, []replayStep{
			{op: "admit", class: "interactive", cost: 100},
			{op: "admit", class: "reporting", cost: 60000}, // over MaxCostTimerons
			{op: "admitsql", class: "interactive", sql: q0},
			{op: "admit", class: "reporting", cost: 100},
			{op: "admitsql", class: "interactive", sql: q1},
			{op: "admitsql", class: "interactive", sql: q0}, // plan-cache hit
			{op: "done", ref: 0},
			{op: "donesql", ref: 2},
			{op: "admit", class: "interactive", cost: 50},
			{op: "donesql", ref: 4},
			{op: "done", ref: 3},
			{op: "donesql", ref: 5},
			{op: "done", ref: 8},
		}},
		// A one-slot plan cache: interning q1 evicts q0, so the done that
		// echoes q0 finds nothing to train on and only releases.
		{"refusals", 1, []replayStep{
			{op: "admit", class: "interactive", cost: 100},
			{op: "admit", class: "nope", cost: 100, fail: wire.StatusBadClass},
			{op: "admitsql", class: "interactive", sql: "SELEKT nope", fail: wire.StatusParseError},
			{op: "admitsql", class: "interactive", sql: q0},
			{op: "admitsql", class: "interactive", sql: q1},
			{op: "done-garbled", fail: wire.StatusBadGrant},
			{op: "done-forged", fail: wire.StatusBadGrant},
			{op: "donesql", ref: 3}, // evicted shape
			{op: "donesql", ref: 4},
			{op: "done", ref: 0},
		}},
		{"no predict gate", 0, []replayStep{
			{op: "admitsql", class: "interactive", sql: q0, fail: wire.StatusNoPredict},
			{op: "admit", class: "interactive", cost: 100},
			{op: "donesql", ref: 1, sql: q0}, // nothing to train: released all the same
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { replayEquivalence(t, tc.cacheCap, tc.script) })
	}
}

func replayEquivalence(t *testing.T, cacheCap int, script []replayStep) {
	// Transport A: sequential single-op HTTP calls.
	a := newPredictStack(t, cacheCap)
	verdictsA := make([]string, len(script))
	tokens := make([]string, len(script))
	for i, step := range script {
		path, form := "/admit", url.Values{"class": {step.class}}
		switch step.op {
		case "admit":
			form.Set("cost", strconv.FormatFloat(step.cost, 'f', -1, 64))
		case "admitsql":
			form.Set("sql", step.sql)
		case "done":
			path, form = "/done", url.Values{"token": {tokens[step.ref]}}
		case "donesql":
			path, form = "/done", url.Values{"token": {tokens[step.ref]}, "sql": {doneSQL(script, step)}}
		case "done-garbled":
			path, form = "/done", url.Values{"token": {"garbage"}}
		case "done-forged":
			path, form = "/done", url.Values{"token": {"0:9999:0:1:1"}}
		}
		held := a.rt.InEngine()
		code, body := postForm(t, a.srv, path, form)
		switch {
		case step.fail != 0:
			if code != http.StatusBadRequest {
				t.Fatalf("step %d: status %d, want 400 for %v: %s", i, code, step.fail, body)
			}
			if path == "/done" && a.rt.InEngine() != held {
				t.Fatalf("step %d: refused /done moved in-engine %d -> %d", i, held, a.rt.InEngine())
			}
			verdictsA[i] = step.fail.String()
		case path == "/admit":
			var ar AdmitResponse
			if err := json.Unmarshal(body, &ar); err != nil {
				t.Fatalf("step %d: %s (%d)", i, body, code)
			}
			verdictsA[i], tokens[i] = ar.Verdict, ar.Token
		default:
			if code != http.StatusOK {
				t.Fatalf("step %d done: %s", i, body)
			}
			verdictsA[i] = "released"
		}
	}

	// The same script as binary batches, through /batch and over TCP. A done
	// op needs the grant fields from its admit's result, so frame boundaries
	// fall so that no done rides in the same frame as its admit (and a
	// refused done rides alone, its stack's in-engine count read either
	// side) — the op order across frames is still exactly the script.
	runFrames := func(b predictStack, send func([]wire.Op) []wire.Result) []string {
		verdicts := make([]string, len(script))
		results := make([]wire.Result, len(script))
		start := 0
		var ops []wire.Op
		flush := func() {
			if len(ops) == 0 {
				return
			}
			for i, res := range send(ops) {
				results[start+i] = res
				verdicts[start+i] = res.Status.String()
			}
			start, ops = start+len(ops), ops[:0]
		}
		for i, step := range script {
			switch step.op {
			case "admit", "admitsql":
				op := wire.Op{Class: 0xFFFF}
				if class, ok := b.rt.Class(step.class); ok {
					op.Class = uint16(class)
				}
				if step.op == "admitsql" {
					op.Code, op.SQL = wire.OpAdmitSQL, []byte(step.sql)
				} else {
					op.Code, op.Cost = wire.OpAdmit, step.cost
				}
				ops = append(ops, op)
			case "done", "donesql":
				if step.ref >= start {
					flush()
				}
				g := results[step.ref]
				op := wire.Op{Code: wire.OpDone, Class: g.Class, Start: g.Start, QID: g.QID}
				if step.op == "donesql" {
					fp := sqlmini.FingerprintSQL(doneSQL(script, step))
					op.FPHi, op.FPLo = fp.Hi, fp.Lo
				}
				ops = append(ops, op)
			case "done-garbled", "done-forged":
				flush()
				op := wire.Op{Code: wire.OpDone, Class: 0xFFFF}
				if step.op == "done-forged" {
					op = wire.Op{Code: wire.OpDone, Shard: 9999, Start: 1, QID: 1}
				}
				ops = append(ops, op)
				held := b.rt.InEngine()
				flush()
				if b.rt.InEngine() != held {
					t.Fatalf("step %d: refused done moved in-engine %d -> %d", i, held, b.rt.InEngine())
				}
			}
		}
		flush()
		return verdicts
	}
	b := newPredictStack(t, cacheCap)
	verdictsB := runFrames(b, func(ops []wire.Op) []wire.Result { return postBatch(t, b.srv, ops) })
	c := newPredictStack(t, cacheCap)
	verdictsC := runFrames(c, dialWire(t, c.wire))

	for _, other := range []struct {
		name     string
		b        predictStack
		verdicts []string
	}{{"batch", b, verdictsB}, {"tcp", c, verdictsC}} {
		b, verdictsB := other.b, other.verdicts
		if !reflect.DeepEqual(verdictsA, verdictsB) {
			t.Fatalf("verdict sequences diverge:\n http: %v\n %s: %v", verdictsA, other.name, verdictsB)
		}

		// Grant accounting: per-class counters and the latency/wait histograms
		// built from the deterministic clocks must match bit for bit, Mean and
		// Sum included: each histogram is one record, fed in op order.
		snapA, snapB := a.rt.Snapshot(), b.rt.Snapshot()
		if !reflect.DeepEqual(snapA, snapB) {
			t.Fatalf("class stats diverge:\n http: %+v\n %s: %+v", snapA, other.name, snapB)
		}
		if a.rt.InEngine() != 0 || b.rt.InEngine() != 0 {
			t.Fatalf("in-engine after a balanced script: http %d, %s %d", a.rt.InEngine(), other.name, b.rt.InEngine())
		}

		// Flight-recorder streams: the same events whole — sequence numbers,
		// QIDs, reasons, timestamps — in the same order.
		evA := a.rt.Recorder().Tail(0, obsv.MatchAll)
		evB := b.rt.Recorder().Tail(0, obsv.MatchAll)
		if len(evA) != len(evB) {
			t.Fatalf("recorder drained %d vs %d events", len(evA), len(evB))
		}
		for i := range evA {
			if evA[i] != evB[i] {
				t.Fatalf("event %d diverges:\n http: %+v\n %s: %+v", i, evA[i], other.name, evB[i])
			}
		}

		// Plan-cache traffic: same hits, same misses — every transport's done
		// reaches the cache as a fingerprint Lookup.
		if a.gate == nil {
			continue
		}
		if csA, csB := a.gate.Stats().Cache, b.gate.Stats().Cache; csA != csB {
			t.Fatalf("cache stats diverge: http %+v, %s %+v", csA, other.name, csB)
		}
	}
}

// TestStatsReportsHardware: /stats self-describes the machine it measured on.
func TestStatsReportsHardware(t *testing.T) {
	_, srv := newTestServer(t, rt.Options{GlobalMaxMPL: 8})
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.NumCPU < 1 {
		t.Fatalf("num_cpu %d, want >= 1", stats.NumCPU)
	}
	if stats.GOMAXPROCS < 1 {
		t.Fatalf("gomaxprocs %d, want >= 1", stats.GOMAXPROCS)
	}
}

// TestWriteAdmitMatchesJSON: the /admit reply body is json.Marshal of the
// AdmitResponse plus a newline — omitted-when-empty fields, fixed and
// exponent float forms included — under the status code the verdict maps to.
func TestWriteAdmitMatchesJSON(t *testing.T) {
	r, err := rt.New(testSpecs(), rt.Options{GlobalMaxMPL: 8})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(r)
	both := uint8(wire.FlagModeled | wire.FlagCacheHit)
	cases := []struct {
		res    wire.Result
		status int
		want   AdmitResponse
	}{
		{wire.Result{Code: wire.OpAdmit, Status: wire.StatusAdmitted, Start: 123456, QID: 789, Cost: 10},
			http.StatusOK, AdmitResponse{Verdict: "admitted", Token: "0:123456:789"}},
		{wire.Result{Code: wire.OpAdmit, Status: wire.StatusRejectedCost, Cost: 60000},
			http.StatusTooManyRequests, AdmitResponse{Verdict: "rejected-cost"}},
		{wire.Result{Code: wire.OpAdmitSQL, Status: wire.StatusAdmitted, Class: 1, Start: 5, QID: 9,
			Cost: 1234.5, Predicted: 0.0625, Flags: both},
			http.StatusOK, AdmitResponse{Verdict: "admitted", Token: "1:5:9", Cost: 1234.5,
				PredictedSeconds: 0.0625, PredictedBucket: "short", Modeled: true, CacheHit: true}},
		{wire.Result{Code: wire.OpAdmitSQL, Status: wire.StatusAdmitted, Start: 1, Cost: 3e21}, // exponent formatting
			http.StatusOK, AdmitResponse{Verdict: "admitted", Token: "0:1", Cost: 3e21}},
		{wire.Result{Code: wire.OpAdmitSQL, Status: wire.StatusRejectedPredicted, Cost: 5e-7},
			http.StatusTooManyRequests, AdmitResponse{Verdict: "rejected-predicted", Cost: 5e-7}},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		s.writeAdmit(rec, &tc.res)
		want, err := json.Marshal(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.String(); got != string(want)+"\n" || rec.Code != tc.status {
			t.Errorf("writeAdmit mismatch:\n got:  %d %q\n want: %d %q", rec.Code, got, tc.status, string(want)+"\n")
		}
	}
}

// TestSingleOpAllocs bounds allocations on the single-op HTTP path: form
// codec, one dispatched op, encoding/json reply. The bound (with headroom for
// net/http request plumbing, which this test drives through ServeHTTP
// directly) catches a per-request cost out of proportion creeping in.
func TestSingleOpAllocs(t *testing.T) {
	r, err := rt.New(testSpecs(), rt.Options{GlobalMaxMPL: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(r)
	admitBody := "class=interactive&cost=10"
	do := func(path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d: %s", path, rec.Code, rec.Body.String())
		}
		return rec
	}
	roundtrip := func() {
		rec := do("/admit", admitBody)
		body := rec.Body.Bytes()
		// Cheap token extraction: slice it out of {"verdict":"admitted",
		// "token":"..."} without a JSON decode, so the measurement stays on
		// the server, not the test harness.
		i := bytes.Index(body, []byte(`"token":"`))
		if i < 0 {
			t.Fatalf("no token in admit response: %s", body)
		}
		rest := body[i+len(`"token":"`):]
		j := bytes.IndexByte(rest, '"')
		do("/done", "token="+string(rest[:j]))
	}
	roundtrip()
	allocs := testing.AllocsPerRun(200, roundtrip)
	// Each iteration runs two full ServeHTTP request cycles; net/http request
	// parsing and the two ResponseRecorders dominate.
	if allocs > 90 {
		t.Fatalf("admit+done roundtrip allocates %v allocs, want <= 90", allocs)
	}
}
