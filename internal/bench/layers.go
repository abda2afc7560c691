package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dbwlm/internal/admission"
	"dbwlm/internal/obsv"
	"dbwlm/internal/policy"
	"dbwlm/internal/rt"
	"dbwlm/internal/rthttp"
	"dbwlm/internal/slo"
	"dbwlm/internal/sqlmini"
	"dbwlm/internal/wire"
)

// inproc is an in-process runtime assembled the way cmd/wlmd's flags
// assemble the daemon's (-predict -plan-cache 4096 -trace 16384 -slo
// -global-mpl 0 -policy BenchPolicy), so the traced stage pass times the
// same objects the live run exercises through the socket. The class and SLO
// tables mirror wlmd's defaults; the smoke test compares this runtime's
// effective policy with the daemon's GET /policy to catch drift.
type inproc struct {
	rt    *rt.Runtime
	gate  *rt.PredictGate
	cache *sqlmini.PlanCache
	disp  *wire.Dispatcher
}

func newInproc() (*inproc, error) {
	r, err := rt.New([]rt.ClassSpec{
		{Name: "interactive", Priority: policy.PriorityHigh, MaxMPL: 32},
		{Name: "reporting", Priority: policy.PriorityMedium, MaxMPL: 8, MaxCostTimerons: 50000},
		{Name: "batch", Priority: policy.PriorityLow, MaxMPL: 4, MaxQueueDelay: 5 * time.Second, RetryBatch: 8},
	}, rt.Options{GlobalMaxMPL: 0})
	if err != nil {
		return nil, err
	}
	eng, err := slo.New(benchSLOs(), slo.Options{Now: r.NowNanos})
	if err != nil {
		return nil, err
	}
	r.SetSLO(eng)
	if err := r.ApplyPolicy(BenchPolicy()); err != nil {
		return nil, err
	}
	r.SetRecorder(obsv.NewRecorder(16384))
	cache := sqlmini.NewPlanCache(sqlmini.NewCostModel(sqlmini.DefaultCatalog()), 4096, 0)
	knn := &admission.KNNPredictor{MaxSeconds: 60, MinTraining: 30, Background: true, Indexed: true}
	gate := rt.NewPredictGate(r, cache, knn, admission.BucketMonster)
	return &inproc{rt: r, gate: gate, cache: cache, disp: &wire.Dispatcher{RT: r, Predict: gate}}, nil
}

// benchSLOs mirrors wlmd's default objective table and windows.
func benchSLOs() []slo.Spec {
	return []slo.Spec{
		{Class: "interactive", Target: 0.050, FastWindow: time.Minute, SlowWindow: 10 * time.Minute},
		{Class: "reporting", Target: 0.500, FastWindow: time.Minute, SlowWindow: 10 * time.Minute},
		{Class: "batch", Target: 5, FastWindow: time.Minute, SlowWindow: 10 * time.Minute},
	}
}

// stageTotals is what one stage pass measured.
type stageTotals struct {
	frames, ops    int
	wall           time.Duration
	decode, encode int64 // summed span nanoseconds
	dispatch       int64
	tally          Tally // outcomes of this pass alone
}

// stagePass pushes the workload's own frames through wire.DecodeRequest →
// Dispatcher.Dispatch → wire.EncodeResponse in one goroutine, one span per
// stage per frame under a frame span. A nil tracer runs the identical loop
// with the timers off.
func stagePass(g *connGen, disp *wire.Dispatcher, tr *Tracer, frames int) (stageTotals, error) {
	var (
		st  stageTotals
		req wire.BatchReq
		res []wire.Result
		out []byte
	)
	g.tally = Tally{} // each pass reports its own outcomes
	first := len(tr.Spans())
	start := time.Now()
	for f := 0; f < frames; f++ {
		payload, meta, ok, err := g.buildFrame(true)
		if err != nil || !ok {
			return st, fmt.Errorf("bench: stage pass could not build frame %d: %v", f, err)
		}
		id := int32(f)
		fs := tr.Begin("frame", -1, id)
		sp := tr.Begin("wire.decode", fs, id)
		err = wire.DecodeRequest(payload, &req)
		tr.End(sp)
		if err != nil {
			return st, err
		}
		sp = tr.Begin("wire.dispatch", fs, id)
		res = disp.Dispatch(req.Ops, res)
		tr.End(sp)
		sp = tr.Begin("wire.encode", fs, id)
		out, err = wire.EncodeResponse(out, res[:len(req.Ops)])
		tr.End(sp)
		tr.End(fs)
		if err != nil {
			return st, err
		}
		if _, err := g.absorb(meta, out); err != nil {
			return st, err
		}
	}
	st.wall = time.Since(start)
	st.frames = frames
	st.tally = g.tally
	st.ops = int(st.tally.Attempted)
	if tr != nil {
		tot := spanTotals(tr.Spans()[first:])
		st.decode, st.dispatch, st.encode = tot["wire.decode"], tot["wire.dispatch"], tot["wire.encode"]
	}
	return st, nil
}

// echoProbe measures wire.FrameConn round trips over loopback TCP with
// nothing behind them: the client writes a reqBytes frame, an echo goroutine
// answers with a respBytes frame. It returns the median round trip in
// microseconds — what sockets, framing and goroutine wake-ups cost at those
// frame sizes.
func echoProbe(trips, reqBytes, respBytes int) (float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	srvErr := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			srvErr <- err
			return
		}
		defer c.Close()
		fc := wire.NewFrameConn(c)
		resp := make([]byte, respBytes)
		for {
			if _, err := fc.ReadFrame(); err != nil {
				if err == io.EOF {
					err = nil
				}
				srvErr <- err
				return
			}
			if err := fc.WriteFrame(resp); err != nil {
				srvErr <- err
				return
			}
		}
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return 0, err
	}
	fc := wire.NewFrameConn(c)
	req := make([]byte, reqBytes)
	us := make([]float64, 0, trips)
	for i := 0; i < trips+trips/10; i++ {
		start := time.Now()
		if err := fc.WriteFrame(req); err != nil {
			c.Close()
			return 0, err
		}
		if _, err := fc.ReadFrame(); err != nil {
			c.Close()
			return 0, err
		}
		if i >= trips/10 { // the first tenth warms buffers and the scheduler
			us = append(us, float64(time.Since(start))/1e3)
		}
	}
	c.Close()
	if err := <-srvErr; err != nil {
		return 0, err
	}
	return Median(us), nil
}

// Frame sizes of a steady-state batch-256 cost frame (≈ 135 admits + 121
// dones out, 256 results back), for the fixed-size echo probe every live
// workload reports beside the probe at its own frame sizes.
const (
	b256ReqBytes  = 8256
	b256RespBytes = 5504
)

// httpAdmitDone times sequential POST /admit + POST /done pairs over one
// kept-alive loopback connection: the single-op HTTP front, which no
// end-to-end workload drives.
func httpAdmitDone(client *http.Client, addr string, pairs int) (float64, error) {
	post := func(path string, form url.Values) (string, error) {
		resp, err := client.Post("http://"+addr+path, "application/x-www-form-urlencoded",
			strings.NewReader(form.Encode()))
		if err != nil {
			return "", err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("bench: POST %s: %s: %s", path, resp.Status, body)
		}
		return string(body), err
	}
	us := make([]float64, 0, pairs)
	for i := 0; i < pairs; i++ {
		start := time.Now()
		body, err := post("/admit", url.Values{"class": {"interactive"}, "cost": {"100"}})
		if err != nil {
			return 0, err
		}
		var admit rthttp.AdmitResponse
		if err := json.Unmarshal([]byte(body), &admit); err != nil || admit.Token == "" {
			return 0, fmt.Errorf("bench: /admit reply without a token (%v): %s", err, body)
		}
		if _, err := post("/done", url.Values{"token": {admit.Token}}); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start))/1e3)
	}
	return Median(us), nil
}

// reportBlackBox reports part (d): what the live run's result flags, the
// daemon's /stats and /trace, and the operator's timings say, at no cost to
// the run itself.
func reportBlackBox(o *Options, m *liveMeasurement, res *Result) error {
	t := &m.tally
	if !o.Short && len(m.win.P99US) == 0 {
		return fmt.Errorf("bench: no slice held %d round trips beyond its p99 (smallest slice: %d frames)",
			minBeyond, m.win.MinFrames)
	}
	res.set("wire.rtt_p99_us", Median(m.win.P99US), m.win.Frames)
	res.set("wire.proto_errors", 0, int(t.Frames)) // a protocol error would have failed measureLive
	res.set("wire.bytes_per_op", float64(t.ReqBytes+t.RespBytes)/float64(t.Attempted), int(t.Attempted))
	res.set("rt.admitted", float64(t.Admitted), 0)
	res.set("rt.rejected_cost", float64(t.RejectedCost), 0)
	res.set("rt.rejected_full", float64(t.RejectedFull), 0)
	res.set("rt.released", float64(t.Released), 0)
	if verdicts := t.Admitted + t.RejectedCost + t.RejectedFull; verdicts > 0 {
		res.set("rt.admit_share", float64(t.Admitted)/float64(verdicts), int(verdicts))
	}
	if m.trace.Recorded > 0 {
		res.set("obsv.overwritten_share", float64(m.trace.Overwritten)/float64(m.trace.Recorded), int(m.trace.Recorded))
	}
	res.set("gen.cpu_us_per_decision", m.clientCPU*1e6/float64(m.win.Decisions), int(m.win.Decisions))
	res.set("gen.client_cpu_share", m.clientCPU/(m.clientCPU+m.serverCPU), 0)
	if o.Workload != LiveSQL {
		return nil
	}
	if t.Predicted > 0 {
		res.set("sqlmini.cache_hit_ratio", float64(t.CacheHits)/float64(t.Predicted), int(t.Predicted))
	}
	if p := m.stats.Predict; p != nil {
		res.set("sqlmini.cache_entries", float64(p.Cache.Entries), 0)
		res.set("admission.retrains", float64(p.Retrains), 0)
		res.set("admission.retrains_per_kobs", float64(p.Retrains)/(float64(t.Released)/1000), int(t.Released))
	}
	res.set("rthttp.metrics_ms", Median(m.op.metricsMS), len(m.op.metricsMS))
	res.set("rthttp.stats_ms", Median(m.op.statsMS), len(m.op.statsMS))
	res.set("rthttp.policy_post_ms", Median(m.op.policyMS), len(m.op.policyMS))
	return nil
}

// traceLive is the traced run of a live workload. Part (d), the black-box
// counters, comes from a full-length live run against the real daemon; parts
// (a) stage pass, (b) layer replays and (c) transport probe run in process
// afterwards. Spans go to <out>/<workload>.spans.jsonl.
func traceLive(ctx context.Context, o *Options, res *Result) error {
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)

	// (d) black-box counters, free: /stats, /trace and result flags.
	m, err := measureLive(ctx, o, o.Seconds)
	if err != nil {
		return err
	}
	d := m.d
	if o.Workload == LiveRTT {
		pairs := 2000
		if o.Short {
			pairs = 100
		}
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		us, err := httpAdmitDone(client, d.HTTPAddr, pairs)
		client.CloseIdleConnections()
		if err != nil {
			d.Stop()
			return err
		}
		res.set("rthttp.admit_done_us", us, pairs)
	}
	d.Stop()
	checkLive(res, m)
	if err := reportBlackBox(o, m, res); err != nil {
		return err
	}
	t := &m.tally

	// (a) stage pass, spans on then off, after an unmeasured warm pass.
	frames := map[string]int{LiveCost: 3000, LiveSQL: 6000, LiveRTT: 100000}[o.Workload]
	if o.Short {
		frames /= 20
	}
	in, err := GenInputs(o.Workload, o.Seed)
	if err != nil {
		return err
	}
	ip, err := newInproc()
	if err != nil {
		return err
	}
	g := newConnGen(in, 0)
	warm, err := stagePass(g, ip.disp, nil, frames/2)
	if err != nil {
		return err
	}
	tr := NewTracer(4*frames + 4096)
	on, err := stagePass(g, ip.disp, tr, frames)
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	off, err := stagePass(g, ip.disp, nil, frames)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	for _, st := range []stageTotals{warm, on, off} {
		if st.tally.Unexpected > 0 {
			res.problem("stage pass: %d unexpected outcomes; first: %s", st.tally.Unexpected, st.tally.FirstBad)
		}
	}
	ops := float64(on.ops)
	res.set("wire.decode_ns_per_op", float64(on.decode)/ops, on.ops)
	res.set("wire.dispatch_ns_per_op", float64(on.dispatch)/ops, on.ops)
	res.set("wire.encode_ns_per_op", float64(on.encode)/ops, on.ops)
	res.set("wire.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(off.ops), off.ops)
	// The two passes run seconds apart on a noisy host; a "negative price" of
	// a few percent is that noise, so the share is floored at 0.
	perOpOn, perOpOff := on.wall.Seconds()/ops, off.wall.Seconds()/float64(off.ops)
	res.set("span.overhead_share", max((perOpOn-perOpOff)/perOpOff, 0), frames)

	// (b) layer replays: each inner layer's public function alone.
	costs, err := layerReplays(o, in, ip, tr, res)
	if err != nil {
		return err
	}
	// Dispatch self time: the dispatch span minus what the replays attribute
	// to the layers beneath it at this pass's op mix.
	res.set("wire.dispatch_self_ns_per_op", float64(on.dispatch)/ops-costs.perOp(&on.tally), on.ops)

	// (c) transport probe at this workload's mean frame sizes, and at the
	// fixed batch-256 sizes.
	trips := 4000
	if o.Short {
		trips = 200
	}
	reqB, respB := int(t.ReqBytes/t.Frames), int(t.RespBytes/t.Frames)
	echo, err := echoProbe(trips, reqB, respB)
	if err != nil {
		return err
	}
	echo256, err := echoProbe(trips, b256ReqBytes, b256RespBytes)
	if err != nil {
		return err
	}
	res.set("wire.frame_echo_us", echo, trips)
	res.set("wire.frame_echo_b256_us", echo256, trips)
	// How much of the round trip a caller sees the isolated pieces explain.
	// Reported, not gated: at depth > 1 a frame also waits behind the frames
	// ahead of it, which no per-frame piece accounts for.
	perFrameUS := float64(on.decode+on.dispatch+on.encode) / float64(on.frames) / 1e3
	if p50 := Undisturbed(m.fine.P50US, false); p50 > 0 {
		res.set("budget.explained_share", (echo+perFrameUS)/p50, m.win.Frames)
	}

	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	res.set("proc.gc_pause_ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6, int(gc1.NumGC-gc0.NumGC))
	return tr.WriteJSONL(filepath.Join(o.OutDir, o.Workload+".spans.jsonl"))
}
