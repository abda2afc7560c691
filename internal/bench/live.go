package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dbwlm/internal/rthttp"
	"dbwlm/internal/wire"
)

// warmUp is how long every connection free-runs before the measured window
// opens: long enough on this class of host for the SQL workload to fill the
// plan cache and train the first k-NN models (≈ 300 k admits), and for the
// grant pool and the daemon's scratch buffers to reach steady state.
const (
	warmUp      = time.Second
	warmUpShort = 300 * time.Millisecond
)

// liveSession is one daemon plus the closed-loop connections driving it.
type liveSession struct {
	d       *Daemon
	in      *Inputs
	client  *http.Client // one kept-alive HTTP connection for /stats and the operator
	origin  time.Time
	stop    atomic.Bool
	wg      sync.WaitGroup
	gens    []*connGen
	samples [][]Sample
	errs    []error
	op      *operator
}

// startSession dials the workload's connections and starts one goroutine
// per connection. Each runs a single-threaded pipelined write/read loop —
// not a writer+reader pair — so the generator costs one core at most and
// shares no state between goroutines.
func startSession(d *Daemon, in *Inputs, expectSeconds float64) (*liveSession, error) {
	s := &liveSession{
		d: d, in: in, origin: time.Now(),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		gens:    make([]*connGen, in.Shape.Conns),
		samples: make([][]Sample, in.Shape.Conns),
		errs:    make([]error, in.Shape.Conns),
	}
	conns := make([]net.Conn, in.Shape.Conns)
	for c := range conns {
		conn, err := net.Dial("tcp", d.WireAddr)
		if err != nil {
			for _, open := range conns[:c] {
				open.Close()
			}
			return nil, fmt.Errorf("bench: dial wlmd wire port: %w", err)
		}
		conns[c] = conn
	}
	for c := range conns {
		s.gens[c] = newConnGen(in, c)
		// Room for 40 k round trips per second: above what any workload
		// reaches here, so the measured loop does not grow the slice.
		s.samples[c] = make([]Sample, 0, int(40000*(expectSeconds+2)))
		s.wg.Add(1)
		go func(c int) {
			defer s.wg.Done()
			defer conns[c].Close()
			s.errs[c] = s.runConn(c, conns[c])
		}(c)
	}
	if in.Workload == LiveSQL {
		s.op = startOperator(s.client, d.HTTPAddr, s.origin)
	}
	return s, nil
}

// runConn is one connection's closed loop: keep Depth frames in flight,
// send the next only when a reply arrives, and once stop is set send only
// done ops until every grant is released.
func (s *liveSession) runConn(c int, conn net.Conn) error {
	g := s.gens[c]
	fc := wire.NewFrameConn(conn)
	depth := s.in.Shape.Depth
	ring := make([]sentFrame, depth)
	head, inflight := 0, 0
	send := func(admits bool) error {
		payload, meta, ok, err := g.buildFrame(admits)
		if err != nil || !ok {
			return err
		}
		meta.at = int64(time.Since(s.origin))
		if err := fc.WriteFrame(payload); err != nil {
			return err
		}
		ring[(head+inflight)%depth] = meta
		inflight++
		return nil
	}
	for inflight < depth {
		if err := send(true); err != nil {
			return err
		}
	}
	for inflight > 0 {
		payload, err := fc.ReadFrame()
		if err != nil {
			return fmt.Errorf("bench: conn %d: %w", c, err)
		}
		at := int64(time.Since(s.origin))
		meta := ring[head]
		head, inflight = (head+1)%depth, inflight-1
		decs, err := g.absorb(meta, payload)
		if err != nil {
			return fmt.Errorf("bench: conn %d: %w", c, err)
		}
		s.samples[c] = append(s.samples[c], Sample{At: at, RTT: at - meta.at, Decs: decs})
		if err := send(!s.stop.Load()); err != nil {
			return err
		}
	}
	return nil
}

// finish stops the connections, waits for their grants to drain, and
// returns the merged tally and samples.
func (s *liveSession) finish() (Tally, []Sample, error) {
	s.stop.Store(true)
	s.wg.Wait()
	if s.op != nil {
		s.op.stop()
	}
	var (
		total Tally
		all   []Sample
	)
	for c := range s.gens {
		if s.errs[c] != nil {
			return total, nil, s.errs[c]
		}
		total.Add(&s.gens[c].tally)
		all = append(all, s.samples[c]...)
	}
	return total, all, nil
}

// operator is the SQL workload's second connection: one goroutine on one
// kept-alive HTTP connection scraping /metrics and /stats every 500 ms and
// re-posting the policy every 2 s — control-plane writes beside data-plane
// reads on the same runtime.
type operator struct {
	quit chan struct{}
	done chan struct{}
	// Latencies in milliseconds, appended by the operator goroutine and read
	// after stop.
	metricsMS, statsMS, policyMS []float64
	err                          error
}

func startOperator(client *http.Client, addr string, origin time.Time) *operator {
	op := &operator{quit: make(chan struct{}), done: make(chan struct{})}
	pol, err := json.Marshal(BenchPolicy())
	if err != nil {
		op.err = err
		close(op.done)
		return op
	}
	timed := func(method, path string, body []byte) (float64, error) {
		req, err := http.NewRequest(method, "http://"+addr+path, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		start := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("bench: operator %s %s: %s", method, path, resp.Status)
		}
		return float64(time.Since(start)) / 1e6, err
	}
	go func() {
		defer close(op.done)
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for n := 1; ; n++ {
			select {
			case <-op.quit:
				return
			case <-tick.C:
			}
			var ms float64
			if ms, op.err = timed(http.MethodGet, "/metrics", nil); op.err != nil {
				return
			}
			op.metricsMS = append(op.metricsMS, ms)
			if ms, op.err = timed(http.MethodGet, "/stats", nil); op.err != nil {
				return
			}
			op.statsMS = append(op.statsMS, ms)
			if n%4 == 0 {
				if ms, op.err = timed(http.MethodPost, "/policy", pol); op.err != nil {
					return
				}
				op.policyMS = append(op.policyMS, ms)
			}
		}
	}()
	return op
}

func (op *operator) stop() {
	select {
	case <-op.done:
	default:
		close(op.quit)
		<-op.done
	}
}

// liveMeasurement is what one measured window yields.
type liveMeasurement struct {
	d     *Daemon // still running when measureLive returns
	setup float64 // median set-up seconds
	tally Tally
	// win reduces the window over the coordinator's SubWindows slices, whose
	// edges carry CPU readings and which are long enough for a p99; fine
	// over each of them split fineSplit ways, for the rate and the median.
	win, fine WindowStats
	serverCPU float64 // wlmd CPU seconds inside the window
	clientCPU float64 // this process's CPU seconds inside the window
	// cpuPerDecUS is wlmd's CPU microseconds per decision, one entry per slice.
	cpuPerDecUS []float64
	serverRSS   float64 // wlmd VmHWM at window end, MB
	stats       *rthttp.StatsResponse
	trace       *rthttp.TraceResponse
	op          *operator
}

// fineSplit is how many equal parts each coordinator slice is cut into for
// the rate and the round-trip median: the shorter the slice, the better the
// odds that one of them fell between two bursts of interference.
const fineSplit = 4

// subdivide cuts every interval between consecutive edges into n equal parts.
func subdivide(edges []int64, n int) []int64 {
	if len(edges) < 2 {
		return edges
	}
	out := make([]int64, 0, (len(edges)-1)*n+1)
	for i := 0; i+1 < len(edges); i++ {
		for k := 0; k < n; k++ {
			out = append(out, edges[i]+(edges[i+1]-edges[i])*int64(k)/int64(n))
		}
	}
	return append(out, edges[len(edges)-1])
}

// setUpLive performs one complete set-up: build wlmd from source (a
// staleness check when the cache is warm), generate the inputs from the
// seed, start the daemon on fresh ports, connect, and run the warm-up. It
// returns with the session still running and the warm-up just ended.
func setUpLive(ctx context.Context, o *Options, rep int) (*liveSession, error) {
	bin, err := BuildDaemon(ctx, o.Root, o.BuildDir)
	if err != nil {
		return nil, err
	}
	in, err := GenInputs(o.Workload, o.Seed)
	if err != nil {
		return nil, err
	}
	d, err := StartDaemon(ctx, bin, o.OutDir, fmt.Sprintf("%s.%d", o.Workload, rep))
	if err != nil {
		return nil, err
	}
	s, err := startSession(d, in, o.Seconds)
	if err != nil {
		d.Stop()
		return nil, err
	}
	warm := warmUp
	if o.Short {
		warm = warmUpShort
	}
	select {
	case <-time.After(warm):
	case <-ctx.Done():
		s.abort()
		return nil, ctx.Err()
	}
	return s, nil
}

// abort tears a session down without checking anything.
func (s *liveSession) abort() {
	s.stop.Store(true)
	s.d.Stop() // closes the sockets under the connection loops
	s.wg.Wait()
	if s.op != nil {
		s.op.stop()
	}
}

// measureLive sets up (several times untraced, reporting the median), then
// measures one window of the given length against the last set-up's daemon,
// drains, and fetches the daemon's counters for the reconciliation. On
// success the daemon is still running and the caller stops it.
func measureLive(ctx context.Context, o *Options, seconds float64) (*liveMeasurement, error) {
	var (
		s      *liveSession
		setups []float64
	)
	for rep := 0; rep < o.setupReps(); rep++ {
		if s != nil {
			s.abort()
		}
		start := time.Now()
		var err error
		if s, err = setUpLive(ctx, o, rep); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	o.logf("set-up %v s, measuring %.1f s", setups, seconds)
	fail := func(err error) (*liveMeasurement, error) {
		s.abort()
		return nil, err
	}

	// The coordinator sleeps from edge to edge and reads both processes' CPU
	// clocks at each, so every slice has its own rate and its own CPU cost.
	pid := s.d.PID()
	var (
		edges              []int64
		serverCPU, selfCPU []float64
	)
	slice := time.Duration(seconds * float64(time.Second) / SubWindows)
	for i := 0; i <= SubWindows; i++ {
		if i > 0 {
			select {
			case <-time.After(time.Until(s.origin.Add(time.Duration(edges[0]) + time.Duration(i)*slice))):
			case <-ctx.Done():
				return fail(ctx.Err())
			}
		}
		srv, err1 := procCPU(pid)
		self, err2 := procCPU(os.Getpid())
		if err := errors.Join(err1, err2); err != nil {
			return fail(err)
		}
		edges = append(edges, int64(time.Since(s.origin)))
		serverCPU, selfCPU = append(serverCPU, srv), append(selfCPU, self)
	}
	rss, err := procHWM(pid)
	if err != nil {
		return fail(err)
	}
	tally, samples, err := s.finish()
	if err != nil {
		return fail(err)
	}
	m := &liveMeasurement{
		d: s.d, setup: Median(setups), tally: tally, serverRSS: rss, op: s.op,
		win: ReduceWindows(samples, edges), fine: ReduceWindows(samples, subdivide(edges, fineSplit)),
		serverCPU: serverCPU[SubWindows] - serverCPU[0], clientCPU: selfCPU[SubWindows] - selfCPU[0],
	}
	for w, decs := range m.win.Decs {
		if decs > 0 {
			m.cpuPerDecUS = append(m.cpuPerDecUS, (serverCPU[w+1]-serverCPU[w])*1e6/float64(decs))
		}
	}
	if m.stats, err = s.d.Stats(s.client); err != nil {
		return fail(err)
	}
	m.trace = new(rthttp.TraceResponse)
	if err := s.d.getJSON(s.client, "/trace?n=1", m.trace); err != nil {
		return fail(err)
	}
	s.client.CloseIdleConnections()
	return m, nil
}

// checkLive applies the live output checks: every status matched the
// generator's expectation, the rejected-cost count is exact, and after the
// drain the client's per-class admitted and released totals equal the
// daemon's with nothing left in the engine.
func checkLive(res *Result, m *liveMeasurement) {
	t := &m.tally
	res.Attempted, res.Failed = t.Attempted, t.Unexpected
	if t.Unexpected > 0 {
		res.problem("%d operations had an unexpected outcome; first: %s", t.Unexpected, t.FirstBad)
	}
	if t.RejectedCost != t.WantRejCost {
		res.problem("rejected-cost %d, generator sent %d admits over the cap", t.RejectedCost, t.WantRejCost)
	}
	if t.Admitted != t.Released {
		res.problem("after drain client admitted %d != released %d", t.Admitted, t.Released)
	}
	if m.stats.InEngine != 0 {
		res.problem("daemon reports %d in engine after drain", m.stats.InEngine)
	}
	var rejected, timeouts int64
	for i, cs := range m.stats.Classes {
		rejected += cs.Rejected
		timeouts += cs.Timeouts
		if i >= len(t.PerClass) {
			continue
		}
		if cs.Admitted != t.PerClass[i] || cs.Done != t.PerClass[i] || cs.InEngine != 0 {
			res.problem("class %s: daemon admitted %d done %d in_engine %d, client admitted %d",
				cs.Class, cs.Admitted, cs.Done, cs.InEngine, t.PerClass[i])
		}
	}
	if rejected != t.RejectedCost || timeouts != t.RejectedFull {
		res.problem("daemon rejected %d timeouts %d, client saw %d and %d",
			rejected, timeouts, t.RejectedCost, t.RejectedFull)
	}
	if m.op != nil && m.op.err != nil {
		res.problem("operator: %v", m.op.err)
	}
}

// runLive runs one live workload: untraced it reports the end-to-end
// metrics; traced it reports the per-layer ones (traceLive).
func runLive(ctx context.Context, o *Options) (*Result, error) {
	res := newResult()
	if o.Trace {
		return res, traceLive(ctx, o, res)
	}
	m, err := measureLive(ctx, o, o.Seconds)
	if err != nil {
		return nil, err
	}
	m.d.Stop()
	checkLive(res, m)
	if m.win.MinFrames < minBeyond {
		res.problem("a sub-window held only %d round trips", m.win.MinFrames)
	}
	res.set(MSetup, m.setup, o.setupReps())
	res.set(MOps, Undisturbed(m.fine.Rates, true), len(m.fine.Rates))
	res.set(MLatency, Undisturbed(m.fine.P50US, false), m.win.Frames)
	res.set(MCPU, Undisturbed(m.cpuPerDecUS, false), int(m.win.Decisions))
	res.set(MRSS, m.serverRSS, 1)
	// The generator must not be the bottleneck it is measuring: on the two
	// throughput workloads the daemon has to be the busier side.
	if share := m.clientCPU / (m.clientCPU + m.serverCPU); o.Workload != LiveRTT && share > 0.5 {
		res.problem("generator used %.0f%% of the CPU spent, the daemon must be the busier side", 100*share)
	}
	return res, nil
}
