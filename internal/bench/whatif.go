package bench

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dbwlm/internal/admission"
	"dbwlm/internal/engine"
	"dbwlm/internal/learn"
	"dbwlm/internal/sim"
	"dbwlm/internal/trace"
)

// What-if sizing. One pass takes one trace through decode → compress → full
// reference replay → 32-configuration fan-out on the compressed trace →
// divergence. A run owns several traces, each from its own sub-seed, and
// measures whole cycles over all of them: k-means convergence depends on the
// data, so one trace's compress time moves by tens of percent from seed to
// seed, and a cycle's sum over several traces does not.
const (
	whatIfRows      = 16000
	whatIfTraces    = 8
	whatIfRowsShort = 4000
	whatIfJobs      = 32
	compressRatio   = 16
	compressStrata  = 6
	divergenceBound = 0.3
)

// refEngine is the sizing the traces were synthesised for (≈ 60% utilised)
// and the reference the compressed replay's divergence is scored against.
var refEngine = engine.Config{Cores: 8, MemoryMB: 16384, IOMBps: 800}

// whatIfGrid lists the 32 engine sizings the fan-out evaluates: a
// cores × IO-bandwidth × memory grid from three quarters of the reference up
// to twice it. It stops short of starved sizings, whose replays thrash and
// make wall time chaotic in the seed. refJob indexes the reference sizing.
func whatIfGrid() (cfgs []engine.Config, refJob int) {
	for _, mem := range []float64{16384, 32768} {
		for _, cores := range []float64{6, 8, 12, 16} {
			for _, io := range []float64{600, 800, 1200, 1600} {
				c := engine.Config{Cores: cores, MemoryMB: mem, IOMBps: io}
				if c == refEngine {
					refJob = len(cfgs)
				}
				cfgs = append(cfgs, c)
			}
		}
	}
	return cfgs, refJob
}

// whatIfTrace is one generated input: the binary encoding the pass decodes.
type whatIfTrace struct {
	seed    uint64
	rows    int
	encoded []byte
}

// genWhatIfTraces synthesises and binary-encodes the run's traces; trace i
// comes from sub-seed Fork(i) of the run seed.
func genWhatIfTraces(seed uint64, traces, rows int) ([]whatIfTrace, error) {
	root := sim.NewRNG(seed)
	out := make([]whatIfTrace, traces)
	for i := range out {
		sub := root.Fork(uint64(i + 1)).Uint64()
		h, synth := trace.Synth(sub, rows)
		encoded, err := encodeTrace(h, synth)
		if err != nil {
			return nil, err
		}
		out[i] = whatIfTrace{seed: sub, rows: rows, encoded: encoded}
	}
	return out, nil
}

// encodeTrace renders rows in the binary trace format.
func encodeTrace(h trace.Header, rows []trace.Row) ([]byte, error) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, h)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		if err := w.WriteRow(&rows[i]); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decode streams the trace's binary encoding back into rows.
func (t *whatIfTrace) decode() (trace.Header, []trace.Row, error) {
	r, err := trace.NewReader(bytes.NewReader(t.encoded))
	if err != nil {
		return trace.Header{}, nil, err
	}
	rows, err := trace.ReadAll(r)
	return r.Header(), rows, err
}

// compress is the run's one compression configuration.
func (t *whatIfTrace) compress(h trace.Header, rows []trace.Row) []trace.Row {
	return trace.Compress(h, rows, trace.CompressConfig{Ratio: compressRatio, Strata: compressStrata, Seed: t.seed})
}

// passTimes are one pass's stage walls and outputs.
type passTimes struct {
	decode, compress, full, many, diverge, total time.Duration
	reps                                         int
	divergence                                   float64
	replayAllocs                                 uint64 // mallocs during the fan-out
}

// whatIfPass runs the pipeline once over one trace. tr may be nil.
func whatIfPass(t *whatIfTrace, tr *Tracer, frame int32) (passTimes, error) {
	var pt passTimes
	start := time.Now()
	root := tr.Begin("whatif.pass", -1, frame)
	stage := func(name string, d *time.Duration, fn func() error) error {
		t0 := time.Now()
		sp := tr.Begin(name, root, frame)
		err := fn()
		tr.End(sp)
		*d = time.Since(t0)
		return err
	}

	var (
		h    trace.Header
		rows []trace.Row
		comp []trace.Row
		full *trace.ReplayStats
		many []*trace.ReplayStats
	)
	if err := stage("trace.decode", &pt.decode, func() (err error) {
		h, rows, err = t.decode()
		return err
	}); err != nil {
		return pt, err
	}
	if len(rows) != t.rows {
		return pt, fmt.Errorf("bench: decoded %d rows, encoded %d", len(rows), t.rows)
	}
	_ = stage("trace.compress", &pt.compress, func() error {
		comp = t.compress(h, rows)
		return nil
	})
	pt.reps = len(comp)
	if w := trace.TotalWeight(comp); w < float64(t.rows)-1e-6 || w > float64(t.rows)+1e-6 {
		return pt, fmt.Errorf("bench: compressed weight %v, want %d", w, t.rows)
	}
	ref := trace.ReplayConfig{Engine: refEngine, Seed: t.seed, TimeScale: 1}
	if err := stage("trace.replay_full", &pt.full, func() error {
		var err error
		full, err = trace.Replay(&trace.SliceSource{H: h, Rows: rows}, ref)
		return err
	}); err != nil {
		return pt, err
	}
	grid, refJob := whatIfGrid()
	jobs := make([]trace.ReplayJob, len(grid))
	for i, cfg := range grid {
		jobs[i] = trace.ReplayJob{Src: &trace.SliceSource{H: h, Rows: comp},
			Cfg: trace.ReplayConfig{Engine: cfg, Seed: t.seed, TimeScale: trace.RateScale(comp)}}
	}
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	if err := stage("trace.replay_many", &pt.many, func() error {
		var err error
		many, err = trace.ReplayMany(jobs, 0)
		return err
	}); err != nil {
		return pt, err
	}
	if tr != nil {
		runtime.ReadMemStats(&m1)
		pt.replayAllocs = m1.Mallocs - m0.Mallocs
	}
	_ = stage("trace.diverge", &pt.diverge, func() error {
		pt.divergence = trace.Diverge(full, many[refJob]).Max
		return nil
	})
	tr.End(root)
	pt.total = time.Since(start)
	return pt, nil
}

// checkCompressRepeats compresses a trace twice and compares the encoded
// output byte for byte.
func checkCompressRepeats(t *whatIfTrace) error {
	h, rows, err := t.decode()
	if err != nil {
		return err
	}
	var enc [2][]byte
	for i := range enc {
		if enc[i], err = encodeTrace(h, t.compress(h, rows)); err != nil {
			return err
		}
	}
	if !bytes.Equal(enc[0], enc[1]) {
		return fmt.Errorf("bench: compressing the same trace twice gave different bytes")
	}
	return nil
}

// checkDivergence applies the offline path's fidelity check: a compressed
// trace is judged by how far its replay diverges from the full trace's, and
// the run's median divergence must stay within divergenceBound. It is the
// median, not every trace: at this trace size the two small classes compress
// to a few representatives per stratum, and about one trace in thirty
// lands above the bound on its own (none did at 24 000 rows and up).
//
// The smoke mode's 4 000-row traces are too small for the bound to mean
// anything (their median sits near 0.35); there only a divergence of 0 or 1,
// a replay that measured nothing, fails.
func checkDivergence(res *Result, divs []float64, short bool) float64 {
	med, bound := Median(divs), divergenceBound
	if short {
		bound = 0.999
	}
	if !(med > 0) || med > bound {
		res.problem("median divergence %.4f over %d traces, want within (0, %.3g]", med, len(divs), bound)
	}
	return med
}

// runWhatIf measures whole cycles over the run's traces until the window is
// spent. Set-up is input generation plus one unmeasured pass, which warms
// the replayer pool and the allocator.
func runWhatIf(ctx context.Context, o *Options) (*Result, error) {
	res := newResult()
	nTraces, nRows := whatIfTraces, whatIfRows
	if o.Short {
		nTraces, nRows = 2, whatIfRowsShort
	}
	var (
		traces []whatIfTrace
		setups []float64
	)
	for rep := 0; rep < o.setupReps(); rep++ {
		start := time.Now()
		var err error
		if traces, err = genWhatIfTraces(o.Seed, nTraces, nRows); err != nil {
			return nil, err
		}
		if _, err := whatIfPass(&traces[0], nil, 0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if err := checkCompressRepeats(&traces[0]); err != nil {
		res.problem("%v", err)
	}
	o.logf("set-up %v s, measuring %.1f s", setups, o.Seconds)
	if o.Trace {
		return res, traceWhatIf(o, traces, res)
	}

	var (
		cycles   []float64
		cpuPer   []float64                  // per cycle, process CPU µs per row
		best     = make([]float64, nTraces) // per trace, the fastest pass seen, in µs
		divs     = make([]float64, nTraces)
		passes   int
		deadline = time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
	)
	for len(cycles) == 0 || time.Now().Before(deadline) {
		start := time.Now()
		cpu0, err := procCPU(os.Getpid())
		if err != nil {
			return nil, err
		}
		for i := range traces {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			pt, err := whatIfPass(&traces[i], nil, 0)
			if err != nil {
				return nil, err
			}
			if us := float64(pt.total) / 1e3; best[i] == 0 || us < best[i] {
				best[i] = us
			}
			divs[i] = pt.divergence
			passes++
		}
		cpu1, err := procCPU(os.Getpid())
		if err != nil {
			return nil, err
		}
		cycles = append(cycles, time.Since(start).Seconds())
		cpuPer = append(cpuPer, (cpu1-cpu0)*1e6/float64(nTraces*nRows))
	}
	rss, err := procHWM(os.Getpid())
	if err != nil {
		return nil, err
	}
	checkDivergence(res, divs, o.Short)
	rowsDone := float64(passes * nRows)
	res.Attempted = int64(rowsDone)
	res.set(MSetup, Median(setups), len(setups))
	res.set(MOps, float64(nTraces*nRows)/Undisturbed(cycles, false), len(cycles))
	res.set(MLatency, Median(best), passes)
	res.set(MCPU, Undisturbed(cpuPer, false), int(rowsDone))
	res.set(MRSS, rss, 1)
	return res, nil
}

// traceWhatIf is the traced run: one pass per trace with a span around every
// stage, plus the k-means kernel alone on the largest class × stratum group.
func traceWhatIf(o *Options, traces []whatIfTrace, res *Result) error {
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	tr := NewTracer(16 * len(traces))
	var (
		sum     passTimes
		rows    int
		divs    []float64
		kmeansS []float64
	)
	for i := range traces {
		pt, err := whatIfPass(&traces[i], tr, int32(i))
		if err != nil {
			return err
		}
		sum.decode += pt.decode
		sum.compress += pt.compress
		sum.full += pt.full
		sum.many += pt.many
		sum.diverge += pt.diverge
		sum.total += pt.total
		sum.reps += pt.reps
		sum.replayAllocs += pt.replayAllocs
		rows += traces[i].rows
		divs = append(divs, pt.divergence)
		s, err := kmeansAlone(&traces[i], tr, int32(i))
		if err != nil {
			return err
		}
		kmeansS = append(kmeansS, s)
	}
	n := len(traces)
	res.Attempted = int64(rows)
	res.set("trace.decode_ns_per_row", float64(sum.decode)/float64(rows), rows)
	res.set("trace.compress_rows_per_s", float64(rows)/sum.compress.Seconds(), n)
	res.set("trace.compress_share", sum.compress.Seconds()/sum.total.Seconds(), n)
	res.set("trace.replay_full_rows_per_s", float64(rows)/sum.full.Seconds(), n)
	res.set("engine.replay_ns_per_row", float64(sum.full)/float64(rows), rows)
	res.set("trace.whatif_replays_per_s", float64(n*whatIfJobs)/sum.many.Seconds(), n*whatIfJobs)
	res.set("trace.replay_many_ms_per_job", sum.many.Seconds()*1e3/float64(n*whatIfJobs), n*whatIfJobs)
	res.set("trace.diverge_ms", sum.diverge.Seconds()*1e3/float64(n), n)
	res.set("trace.divergence", checkDivergence(res, divs, o.Short), n)
	res.set("trace.allocs_per_replay", float64(sum.replayAllocs)/float64(n*whatIfJobs), n*whatIfJobs)
	res.set("trace.representatives", float64(sum.reps)/float64(n), n)
	res.set("learn.kmeans_s", Median(kmeansS), n)
	runtime.ReadMemStats(&gc1)
	res.set("proc.gc_pause_ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6, int(gc1.NumGC-gc0.NumGC))
	return tr.WriteJSONL(filepath.Join(o.OutDir, o.Workload+".spans.jsonl"))
}

// kmeansAlone times learn.NormalizeFlat + learn.KMeansFlat on the trace's
// largest class × stratum group, embedded exactly as trace.Compress embeds
// it.
func kmeansAlone(t *whatIfTrace, tr *Tracer, frame int32) (float64, error) {
	h, rows, err := t.decode()
	if err != nil {
		return 0, err
	}
	groups := make(map[[2]int][]int)
	var largest [2]int
	for i := range rows {
		s := int(rows[i].ArriveUS * compressStrata / max(h.DurationUS, 1))
		key := [2]int{int(rows[i].Class), min(s, compressStrata-1)}
		groups[key] = append(groups[key], i)
		if len(groups[key]) > len(groups[largest]) {
			largest = key
		}
	}
	members := groups[largest]
	const dims = admission.NumFeatures
	flat := make([]float64, len(members)*dims)
	var fv admission.FeatureVec
	for mi, i := range members {
		row := &rows[i]
		admission.FeaturesFrom(row.EstTimerons, row.EstRows, row.EstMemMB, row.EstIOMB,
			row.Flags&trace.FlagRead != 0, &fv)
		copy(flat[mi*dims:], fv[:])
	}
	k := max(int(float64(len(members))/compressRatio+0.5), 1)
	start := time.Now()
	sp := tr.Begin("learn.kmeans", -1, frame)
	norm := learn.NormalizeFlat(flat, len(members), dims)
	learn.KMeansFlat(norm, len(members), dims, k, 0, sim.NewRNG(t.seed))
	tr.End(sp)
	return time.Since(start).Seconds(), nil
}
