// Command wlmload replays a recorded workload trace against a live wlmd over
// the binary wire protocol, open-loop:
//
//	wlmload -trace full.trace -addr 127.0.0.1:9628 -speed 10
//
// Admits are paced from the recorded inter-arrival gaps (scaled by -speed),
// so a backed-up daemon sees the recorded offered load, not a stream
// throttled by its own response times. Each row is replayed as recorded: its
// class index is the daemon's class ID (the daemon's class table must cover
// the trace header's — wlmd's built-in three classes line up with `wlmtrace
// synth`), a row carrying SQL is a predict-admit (needs wlmd -predict), any
// other row a cost admit at its recorded timerons. The report carries
// decision throughput, round-trip percentiles, and — for rows recorded with
// a response-time SLO — per-class deadline misses.
//
// Closed-loop saturation traffic (cost, SQL and single-op HTTP admits) is
// cmd/wlmbench's job: the live-cost, live-sql and live-rtt workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"dbwlm/internal/trace"
	"dbwlm/internal/wire"
)

// frameOps caps the ops in one frame: every admit due at the same instant
// rides together up to this many, and done ops fill the slots left over.
const frameOps = 256

// config is the parsed command line.
type config struct {
	addr      string
	conns     int
	block     bool
	jsonOut   bool
	tracePath string
	speed     float64
}

// grantRec is one outstanding admission a later done op releases.
type grantRec struct {
	class, shard, gshard uint16
	start, qid           int64
	fpHi, fpLo           uint64
}

func (g grantRec) doneOp() wire.Op {
	return wire.Op{Code: wire.OpDone, Class: g.class, Shard: g.shard,
		GShard: g.gshard, Start: g.start, QID: g.qid, FPHi: g.fpHi, FPLo: g.fpLo}
}

// latSample is one timed round trip and the number of decisions it carried;
// decision-latency percentiles weight each RTT by its op count.
type latSample struct {
	sec float64
	ops int
}

// deadlineCount tallies one class's recorded-SLO outcomes: how many admits
// carried a response-time objective, and how many of those came back past
// it. The clock starts at the row's recorded due instant, so daemon queueing
// during a backlog counts against the deadline — and a rejected or errored
// admit counts as a miss outright (the request never ran). Targets are
// wall-clock seconds as recorded, not scaled by -speed.
type deadlineCount struct {
	Class  string `json:"class"`
	Total  int64  `json:"total"`
	Missed int64  `json:"missed"`
}

// connResult is what one connection's replay adds to the report.
type connResult struct {
	admitted, rejected, released, errored int64
	lats                                  []latSample
	deadlines                             map[uint16]*deadlineCount
}

// harvest tallies one decoded response batch and collects fresh grants for
// later done ops.
func (c *connResult) harvest(results []wire.Result, grants *[]grantRec) {
	for i := range results {
		r := &results[i]
		switch {
		case r.Status == wire.StatusAdmitted:
			c.admitted++
			*grants = append(*grants, grantRec{class: r.Class, shard: r.Shard,
				gshard: r.GShard, start: r.Start, qid: r.QID, fpHi: r.FPHi, fpLo: r.FPLo})
		case r.Status == wire.StatusReleased:
			c.released++
		case r.Status.Rejected():
			c.rejected++
		default:
			if c.errored == 0 {
				fmt.Fprintf(os.Stderr, "wlmload: op answered %v\n", r.Status)
			}
			c.errored++
		}
	}
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "wlmload:", err)
		}
		os.Exit(2)
	}
	src, closer, err := trace.OpenFile(cfg.tracePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlmload:", err)
		os.Exit(1)
	}
	rows, err := trace.ReadAll(src)
	closer.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlmload:", err)
		os.Exit(1)
	}
	h := src.Header()
	rep := run(cfg, &h, rows)
	rep.print(os.Stdout, cfg.jsonOut)
	if rep.Errors > 0 {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("wlmload", flag.ContinueOnError)
	fs.StringVar(&cfg.tracePath, "trace", "", "recorded trace to replay (required)")
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:9628", "wlmd -wire-addr TCP address")
	fs.IntVar(&cfg.conns, "conns", 4, "parallel connections; each replays every conns-th row")
	fs.Float64Var(&cfg.speed, "speed", 1, "replay speed multiplier (2 = twice as fast as recorded)")
	fs.BoolVar(&cfg.block, "block", false, "admits block while queued instead of reporting rejected-timeout")
	fs.BoolVar(&cfg.jsonOut, "json", false, "emit the report as JSON")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.tracePath == "" {
		return cfg, errors.New("-trace FILE is required")
	}
	if cfg.conns < 1 {
		return cfg, errors.New("-conns must be positive")
	}
	if cfg.speed <= 0 {
		return cfg, errors.New("-speed must be positive")
	}
	return cfg, nil
}

// run replays rows over cfg.conns connections and merges their results.
func run(cfg config, h *trace.Header, rows []trace.Row) *report {
	results := make([]connResult, cfg.conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range results {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var err error
			if results[c], err = runTraceConn(cfg, c, rows, start); err != nil {
				fmt.Fprintf(os.Stderr, "wlmload: conn %d: %v\n", c, err)
				results[c].errored++
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	total := connResult{deadlines: make(map[uint16]*deadlineCount)}
	for _, res := range results {
		total.admitted += res.admitted
		total.rejected += res.rejected
		total.released += res.released
		total.errored += res.errored
		total.lats = append(total.lats, res.lats...)
		for class, d := range res.deadlines {
			t := total.deadlines[class]
			if t == nil {
				t = &deadlineCount{Class: h.ClassName(class)}
				total.deadlines[class] = t
			}
			t.Total += d.Total
			t.Missed += d.Missed
		}
	}
	return newReport(cfg, elapsed, &total)
}

// roundTrip writes one request frame and decodes its response into res.
func roundTrip(fc *wire.FrameConn, ops []wire.Op, res *wire.BatchRes) error {
	payload, err := wire.EncodeRequest(nil, ops)
	if err != nil {
		return err
	}
	if err := fc.WriteFrame(payload); err != nil {
		return err
	}
	if payload, err = fc.ReadFrame(); err != nil {
		return err
	}
	return wire.DecodeResponse(payload, res)
}

// runTraceConn replays this connection's share of the trace, open-loop: each
// admit is due at its recorded arrival offset divided by -speed, measured
// from the shared start instant, and frames are sent when due whether or not
// earlier responses have come back (the send queue is unbounded, so a
// backed-up daemon cannot throttle the offered load). Done ops piggyback on
// later frames to keep the daemon's population bounded; whatever is still
// admitted at the end is released, unmeasured, so the daemon ends balanced.
func runTraceConn(cfg config, id int, rows []trace.Row, start time.Time) (connResult, error) {
	out := connResult{deadlines: make(map[uint16]*deadlineCount)}
	conn, err := net.Dial("tcp", cfg.addr)
	if err != nil {
		return out, err
	}
	defer conn.Close()
	// opMeta scores one frame slot: zero deadline for done ops and
	// deadline-free admits, else the row's recorded objective measured from
	// its due instant. Results come back in op order, so meta[i] describes
	// res.Results[i].
	type opMeta struct {
		class    uint16
		due      time.Time
		deadline float64
	}
	type sent struct {
		at   time.Time
		ops  int
		meta []opMeta
	}
	var (
		fc     = wire.NewFrameConn(conn)
		grants []grantRec
		sendTs = make(chan sent, len(rows)+1) // never blocks: open loop
		werr   = make(chan error, 1)
		mu     sync.Mutex // guards grants between the writer and the reader
	)
	deadline := int64(1) // try-don't-wait
	if cfg.block {
		deadline = 0
	}
	dueAt := func(r *trace.Row) time.Time {
		return start.Add(time.Duration(float64(r.ArriveUS)/cfg.speed) * time.Microsecond)
	}
	go func() {
		defer close(sendTs)
		wfc := wire.NewFrameConn(conn)
		var ops []wire.Op
		var buf []byte
		// This connection owns every conns-th row.
		for p := id; p < len(rows); {
			if wait := time.Until(dueAt(&rows[p])); wait > 0 {
				time.Sleep(wait)
			}
			ops = ops[:0]
			var meta []opMeta
			// Everything due now rides in one frame, up to the cap.
			for ; p < len(rows) && len(ops) < frameOps; p += cfg.conns {
				r := &rows[p]
				due := dueAt(r)
				if time.Until(due) > 0 {
					break
				}
				meta = append(meta, opMeta{class: r.Class, due: due, deadline: r.SLODeadline()})
				if len(r.SQL) > 0 {
					ops = append(ops, wire.Op{Code: wire.OpAdmitSQL, Class: r.Class,
						DeadlineNS: deadline, SQL: r.SQL})
				} else {
					ops = append(ops, wire.Op{Code: wire.OpAdmit, Class: r.Class,
						DeadlineNS: deadline, Cost: r.EstTimerons})
				}
			}
			// Piggyback done ops in the remaining slots (unscored: their meta
			// slots stay zero).
			mu.Lock()
			for len(ops) < frameOps && len(grants) > 0 {
				ops = append(ops, grants[len(grants)-1].doneOp())
				grants = grants[:len(grants)-1]
				meta = append(meta, opMeta{})
			}
			mu.Unlock()
			payload, err := wire.EncodeRequest(buf, ops)
			if err != nil {
				werr <- err
				return
			}
			buf = payload
			sendTs <- sent{time.Now(), len(ops), meta}
			if err := wfc.WriteFrame(payload); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()
	var res wire.BatchRes
	for ts := range sendTs {
		payload, err := fc.ReadFrame()
		if err != nil {
			return out, err
		}
		if err := wire.DecodeResponse(payload, &res); err != nil {
			return out, err
		}
		arrived := time.Now()
		out.lats = append(out.lats, latSample{arrived.Sub(ts.at).Seconds(), ts.ops})
		for i := range res.Results {
			if i >= len(ts.meta) || ts.meta[i].deadline <= 0 {
				continue
			}
			m := &ts.meta[i]
			d := out.deadlines[m.class]
			if d == nil {
				d = &deadlineCount{}
				out.deadlines[m.class] = d
			}
			d.Total++
			if res.Results[i].Status != wire.StatusAdmitted ||
				arrived.Sub(m.due).Seconds() > m.deadline {
				d.Missed++
			}
		}
		mu.Lock()
		out.harvest(res.Results, &grants)
		mu.Unlock()
	}
	if err := <-werr; err != nil {
		return out, err
	}
	for len(grants) > 0 {
		n := min(len(grants), frameOps)
		ops := make([]wire.Op, 0, n)
		for _, g := range grants[len(grants)-n:] {
			ops = append(ops, g.doneOp())
		}
		grants = grants[:len(grants)-n]
		if err := roundTrip(fc, ops, &res); err != nil {
			return out, err
		}
		var drained []grantRec
		out.harvest(res.Results, &drained)
	}
	return out, nil
}

// report is the run summary. NumCPU and GOMAXPROCS stamp the hardware the
// numbers came from.
type report struct {
	Conns           int     `json:"conns"`
	Speed           float64 `json:"speed"`
	Ops             int64   `json:"ops"`
	ElapsedSeconds  float64 `json:"elapsed_seconds"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	Admitted        int64   `json:"admitted"`
	Rejected        int64   `json:"rejected"`
	Released        int64   `json:"released"`
	Errors          int64   `json:"errors"`
	P50Ms           float64 `json:"rtt_p50_ms"`
	P95Ms           float64 `json:"rtt_p95_ms"`
	P99Ms           float64 `json:"rtt_p99_ms"`
	DecisionP50Ms   float64 `json:"decision_p50_ms"`
	DecisionP95Ms   float64 `json:"decision_p95_ms"`
	DecisionP99Ms   float64 `json:"decision_p99_ms"`
	NumCPU          int     `json:"num_cpu"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	// DeadlineMisses lists, per class whose rows carry a response-time SLO,
	// how many admits had a recorded deadline and how many decisions came
	// back past it.
	DeadlineMisses []deadlineCount `json:"deadline_misses,omitempty"`
}

func newReport(cfg config, elapsed float64, total *connResult) *report {
	lats := total.lats
	sort.Slice(lats, func(a, b int) bool { return lats[a].sec < lats[b].sec })
	// rtt_* percentiles treat every round trip equally; decision_*
	// percentiles weight each round trip by the decisions it carried, so a
	// 64-op frame counts 64 times — the latency a typical *decision* saw.
	pct := func(p float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		return lats[int(p*float64(len(lats)-1))].sec * 1000
	}
	var totalOps int64
	for _, l := range lats {
		totalOps += int64(l.ops)
	}
	dpct := func(p float64) float64 {
		target := int64(p * float64(totalOps-1))
		var seen int64
		for _, l := range lats {
			if seen += int64(l.ops); seen > target {
				return l.sec * 1000
			}
		}
		return 0
	}
	decisions := total.admitted + total.rejected + total.released
	r := &report{
		Conns: cfg.conns, Speed: cfg.speed,
		Ops: decisions, ElapsedSeconds: elapsed,
		DecisionsPerSec: float64(decisions) / elapsed,
		Admitted:        total.admitted, Rejected: total.rejected,
		Released: total.released, Errors: total.errored,
		P50Ms: pct(0.50), P95Ms: pct(0.95), P99Ms: pct(0.99),
		DecisionP50Ms: dpct(0.50), DecisionP95Ms: dpct(0.95), DecisionP99Ms: dpct(0.99),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	classes := make([]uint16, 0, len(total.deadlines))
	for class := range total.deadlines {
		classes = append(classes, class)
	}
	sort.Slice(classes, func(a, b int) bool { return classes[a] < classes[b] })
	for _, class := range classes {
		r.DeadlineMisses = append(r.DeadlineMisses, *total.deadlines[class])
	}
	return r
}

func (r *report) print(w io.Writer, asJSON bool) {
	if asJSON {
		json.NewEncoder(w).Encode(r)
		return
	}
	fmt.Fprintf(w, "trace replay: %d decisions in %.2fs = %.0f decisions/sec (conns=%d speed=%g)\n",
		r.Ops, r.ElapsedSeconds, r.DecisionsPerSec, r.Conns, r.Speed)
	fmt.Fprintf(w, "  admitted %d, rejected %d, released %d, errors %d\n",
		r.Admitted, r.Rejected, r.Released, r.Errors)
	fmt.Fprintf(w, "  rtt ms: p50 %.3f  p95 %.3f  p99 %.3f  (num_cpu=%d gomaxprocs=%d)\n",
		r.P50Ms, r.P95Ms, r.P99Ms, r.NumCPU, r.GOMAXPROCS)
	fmt.Fprintf(w, "  decision ms: p50 %.3f  p95 %.3f  p99 %.3f\n",
		r.DecisionP50Ms, r.DecisionP95Ms, r.DecisionP99Ms)
	for _, d := range r.DeadlineMisses {
		fmt.Fprintf(w, "  deadline %-14s %d/%d missed (%.2f%%)\n",
			d.Class, d.Missed, d.Total, 100*float64(d.Missed)/float64(d.Total))
	}
}
