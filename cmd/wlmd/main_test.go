package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"dbwlm/internal/obsv"
	"dbwlm/internal/policy"
	"dbwlm/internal/rt"
	"dbwlm/internal/rthttp"
)

func testServer(t *testing.T, specs []rt.ClassSpec, opts rt.Options) (*rt.Runtime, *httptest.Server) {
	t.Helper()
	r, err := rt.New(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rthttp.NewServer(r))
	t.Cleanup(srv.Close)
	return r, srv
}

func post(t *testing.T, srv *httptest.Server, path string, form url.Values, into any) int {
	t.Helper()
	resp, err := http.PostForm(srv.URL+path, form)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestAdmitDoneRoundTrip(t *testing.T) {
	r, srv := testServer(t, defaultClasses(), rt.Options{})
	var ar rthttp.AdmitResponse
	if code := post(t, srv, "/admit", url.Values{"class": {"interactive"}, "cost": {"100"}}, &ar); code != http.StatusOK {
		t.Fatalf("admit status %d", code)
	}
	if ar.Verdict != "admitted" || ar.Token == "" {
		t.Fatalf("admit response %+v", ar)
	}
	if got := r.InEngine(); got != 1 {
		t.Fatalf("in-engine %d after admit", got)
	}
	if code := post(t, srv, "/done", url.Values{"token": {ar.Token}, "ideal": {"0.01"}}, nil); code != http.StatusOK {
		t.Fatalf("done status %d", code)
	}
	if got := r.InEngine(); got != 0 {
		t.Fatalf("in-engine %d after done", got)
	}
}

func TestAdmitRejections(t *testing.T) {
	_, srv := testServer(t, defaultClasses(), rt.Options{})
	var ar rthttp.AdmitResponse
	// reporting's cost cap is 50000 timerons.
	if code := post(t, srv, "/admit", url.Values{"class": {"reporting"}, "cost": {"60000"}}, &ar); code != http.StatusTooManyRequests {
		t.Fatalf("over-cost status %d", code)
	}
	if ar.Verdict != "rejected-cost" || ar.Token != "" {
		t.Fatalf("over-cost response %+v", ar)
	}
	if code := post(t, srv, "/admit", url.Values{"class": {"nope"}}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown class status %d", code)
	}
	if code := post(t, srv, "/done", url.Values{"token": {"garbage"}}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad token status %d", code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, srv := testServer(t, defaultClasses(), rt.Options{})
	var ar rthttp.AdmitResponse
	post(t, srv, "/admit", url.Values{"class": {"interactive"}}, &ar)
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st rthttp.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.InEngine != 1 || len(st.Classes) != 3 {
		t.Fatalf("stats %+v", st)
	}
	if st.Classes[0].Class != "interactive" || st.Classes[0].Admitted != 1 {
		t.Fatalf("class row %+v", st.Classes[0])
	}
	post(t, srv, "/done", url.Values{"token": {ar.Token}}, nil)
}

func TestPolicyReloadEndpoint(t *testing.T) {
	r, srv := testServer(t, defaultClasses(), rt.Options{})
	body := `{"global_max_mpl": 16, "classes": [{"class": "batch", "max_mpl": 2, "retry_batch": 4}]}`
	resp, err := http.Post(srv.URL+"/policy", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("policy post status %d", resp.StatusCode)
	}
	p := r.Policy()
	if p.GlobalMaxMPL != 16 {
		t.Fatalf("global MPL %d", p.GlobalMaxMPL)
	}
	for _, c := range p.Classes {
		if c.Class == "batch" && (c.MaxMPL != 2 || c.RetryBatch != 4) {
			t.Fatalf("batch limits %+v", c)
		}
	}
	// GET reflects the effective limits.
	get, err := http.Get(srv.URL + "/policy")
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	var got policy.RuntimePolicy
	if err := json.NewDecoder(get.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.GlobalMaxMPL != 16 {
		t.Fatalf("rendered policy %+v", got)
	}
	// Invalid documents are refused atomically.
	resp, err = http.Post(srv.URL+"/policy", "application/json", strings.NewReader(`{"classes":[{"class":"nope"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-class policy status %d", resp.StatusCode)
	}
}

func TestLoadFeedAndMAPELoop(t *testing.T) {
	r, srv := testServer(t, defaultClasses(), rt.Options{})
	if code := post(t, srv, "/load", url.Values{"mem": {"1.5"}, "conflict": {"0.1"}, "cpu": {"0.99"}}, nil); code != http.StatusOK {
		t.Fatalf("load status %d", code)
	}
	stop := rt.StartMAPELoop(rt.NewMAPELoop(r), time.Millisecond)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for !r.LowPriorityGate() {
		if time.Now().After(deadline) {
			t.Fatal("MAPE loop never closed the gate under memory pressure")
		}
		time.Sleep(time.Millisecond)
	}
	post(t, srv, "/load", url.Values{"mem": {"0.1"}, "conflict": {"0"}, "cpu": {"0.1"}}, nil)
	for r.LowPriorityGate() {
		if time.Now().After(deadline) {
			t.Fatal("MAPE loop never reopened the gate")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentHTTPAdmits hammers the daemon with 64 concurrent clients —
// the end-to-end face of the rt stress criterion.
func TestConcurrentHTTPAdmits(t *testing.T) {
	r, srv := testServer(t, []rt.ClassSpec{
		{Name: "c", Priority: policy.PriorityHigh, MaxMPL: 16},
	}, rt.Options{RetryEvery: time.Millisecond})
	r.Start()
	defer r.Stop()
	const clients, per = 64, 20
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				var ar rthttp.AdmitResponse
				if code := post(t, srv, "/admit", url.Values{"class": {"c"}}, &ar); code != http.StatusOK {
					t.Errorf("admit status %d", code)
					return
				}
				if code := post(t, srv, "/done", url.Values{"token": {ar.Token}}, nil); code != http.StatusOK {
					t.Errorf("done status %d", code)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.InEngine(); got != 0 {
		t.Fatalf("in-engine %d after drain", got)
	}
	if st := r.StatsOf(0); st.Done != clients*per {
		t.Fatalf("done %d, want %d", st.Done, clients*per)
	}
}

func TestSelfTest(t *testing.T) {
	r, err := rt.New(defaultClasses(), rt.Options{GlobalMaxMPL: 24, RetryEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	out, totals := runSelfTest(r, 12, 20, 1)
	for _, class := range []string{"interactive", "reporting", "batch"} {
		if !strings.Contains(out, class) {
			t.Fatalf("summary missing %q:\n%s", class, out)
		}
	}
	if r.InEngine() != 0 {
		t.Fatalf("in-engine %d after selftest", r.InEngine())
	}
	var total int64
	for _, st := range r.Snapshot() {
		total += st.Done + st.Rejected + st.Timeouts
	}
	if total != 12*20 {
		t.Fatalf("accounted %d outcomes, want %d", total, 12*20)
	}
	if totals.admits == 0 {
		t.Fatalf("selftest totals %+v: expected admits", totals)
	}
	if !strings.Contains(totals.line(), "admits") {
		t.Fatalf("summary line %q", totals.line())
	}
}

// TestSelfTestZeroAdmits forces every request through an impossible cost cap:
// the totals that make main exit non-zero must report zero admits.
func TestSelfTestZeroAdmits(t *testing.T) {
	specs := []rt.ClassSpec{
		{Name: "capped", Priority: policy.PriorityHigh, MaxMPL: 4, MaxCostTimerons: 0.001},
	}
	r, err := rt.New(specs, rt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, totals := runSelfTest(r, 4, 10, 1)
	if totals.admits != 0 {
		t.Fatalf("admits %d through a 0.001-timeron cap", totals.admits)
	}
	if totals.rejects != 4*10 {
		t.Fatalf("rejects %d, want %d", totals.rejects, 4*10)
	}
}

// TestSelfTestTraceLifecycle is the end-to-end acceptance drive: a selftest
// run with the flight recorder attached must leave a trace that shows the
// complete decision lifecycle — admit with a reason, a queue entry, a drained
// grant, a completion, and the MAPE loop acting — all drainable over
// GET /trace with filters.
func TestSelfTestTraceLifecycle(t *testing.T) {
	r, err := rt.New(defaultClasses(), rt.Options{GlobalMaxMPL: 8, RetryEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r.SetRecorder(obsv.NewRecorder(1 << 15))
	out, totals := runSelfTest(r, 24, 40, 1)
	if totals.admits == 0 {
		t.Fatalf("no admits:\n%s", out)
	}

	srv := httptest.NewServer(rthttp.NewServer(r))
	defer srv.Close()
	get := func(query string) rthttp.TraceResponse {
		t.Helper()
		resp, err := http.Get(srv.URL + "/trace" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace%s status %d", query, resp.StatusCode)
		}
		var tr rthttp.TraceResponse
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatal(err)
		}
		return tr
	}

	tr := get("?n=0")
	if tr.Recorded == 0 || len(tr.Events) == 0 {
		t.Fatalf("empty trace: %+v", tr)
	}
	seen := map[string]bool{}
	reasons := map[string]bool{}
	for _, e := range tr.Events {
		seen[e.Kind] = true
		reasons[e.Kind+"/"+e.Reason] = true
	}
	// The complete lifecycle: admission verdicts with reasons, queueing, a
	// drained grant, completion, and the MAPE loop thinking.
	for _, want := range []string{"admit", "enqueue", "done", "mape-monitor", "mape-symptom", "mape-action"} {
		if !seen[want] {
			t.Fatalf("trace missing kind %q (kinds %v)", want, seen)
		}
	}
	for _, want := range []string{"admit/fast-path", "admit/drained", "enqueue/gate-full", "mape-action/throttle", "mape-action/resume"} {
		if !reasons[want] {
			t.Fatalf("trace missing %q (have %v)", want, reasons)
		}
	}

	// Filters narrow the drain: only rejected-cost verdicts for reporting.
	for _, e := range get("?n=0&class=reporting&verdict=rejected-cost").Events {
		if e.Class != "reporting" || e.Verdict != "rejected-cost" {
			t.Fatalf("filter leak: %+v", e)
		}
	}
	// A queued admission's qid threads enqueue -> drained grant -> done.
	var qid int64
	for _, e := range tr.Events {
		if e.Kind == "enqueue" && e.QID != 0 {
			qid = e.QID
			break
		}
	}
	if qid == 0 {
		t.Fatal("no enqueue event carries a qid")
	}
	chain := get(fmt.Sprintf("?n=0&qid=%d", qid))
	kinds := map[string]bool{}
	for _, e := range chain.Events {
		kinds[e.Kind] = true
	}
	if !kinds["enqueue"] || !kinds["admit"] || !kinds["done"] {
		t.Fatalf("qid %d chain incomplete: %+v", qid, chain.Events)
	}
}

// TestHTTPServerIdleTimeout runs wlmd's HTTP server with a short idle
// timeout: a keep-alive connection that goes quiet is closed by the server,
// while an /admit parked in the queue for longer than the timeout still gets
// its answer.
func TestHTTPServerIdleTimeout(t *testing.T) {
	const idle = 100 * time.Millisecond
	r, err := rt.New([]rt.ClassSpec{{Name: "one", MaxMPL: 1}}, rt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer r.Stop()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(l.Addr().String(), rthttp.NewServer(r), idle)
	go hs.Serve(l)
	defer hs.Close()

	// One request on a keep-alive connection, then silence.
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprint(c, "GET /stats HTTP/1.1\r\nHost: wlmd\r\n\r\n")
	br := bufio.NewReader(c)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	c.SetReadDeadline(time.Now().Add(50 * idle))
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("idle keep-alive connection: read error %v, want EOF (closed by the server)", err)
	}

	// An /admit parked behind the blocker for three idle timeouts.
	blocker := r.Admit(0, 0)
	verdict := make(chan string, 1)
	go func() {
		var ar rthttp.AdmitResponse
		resp, err := http.PostForm("http://"+l.Addr().String()+"/admit", url.Values{"class": {"one"}})
		if err != nil {
			verdict <- err.Error()
			return
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			verdict <- err.Error()
			return
		}
		verdict <- ar.Verdict
	}()
	for deadline := time.Now().Add(5 * time.Second); r.QueueLen(0) != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("/admit never parked")
		}
	}
	time.Sleep(3 * idle)
	r.Done(blocker, 0)
	select {
	case v := <-verdict:
		if v != "admitted" {
			t.Fatalf("parked /admit answered %q, want admitted", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked /admit never answered")
	}
}
