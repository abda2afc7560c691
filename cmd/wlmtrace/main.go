// Command wlmtrace inspects, converts, compresses, and replays workload
// traces in the versioned internal/trace format.
//
// Usage:
//
//	wlmtrace info FILE
//	wlmtrace convert IN OUT
//	wlmtrace synth [-rows N] [-seed S] OUT
//	wlmtrace compress [-ratio 16] [-strata 6] [-seed 0] [-workers 0] IN OUT
//	wlmtrace replay [-cores 8] [-mem 16384] [-io 800] [-seed 42] [-scale 0] FILE
//	wlmtrace divergence [-bound 0.3] FULL COMPRESSED
//
// Encodings are sniffed on read (binary magic vs JSONL) and picked by
// extension on write (.jsonl/.json → JSONL, anything else → binary), so
// convert is just a read of IN and a write of OUT.
//
// replay drives the trace straight into a fresh deterministic sim/engine
// pair and reports per-class arrivals, completions, and response times;
// compress and replay report wall time and rows/sec. divergence replays both
// traces concurrently — the compressed one at its rate-preserving time scale
// — and reports the per-class arrival-rate and response-histogram
// total-variation distances; with -bound > 0 it exits nonzero when the worst
// distance exceeds the bound. The pipeline's throughput is measured by the
// whatif workload of cmd/wlmbench, not here.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"dbwlm/internal/engine"
	"dbwlm/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "info":
		err = cmdInfo(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "synth":
		err = cmdSynth(os.Args[2:])
	case "compress":
		err = cmdCompress(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "divergence":
		err = cmdDivergence(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlmtrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: wlmtrace info|convert|synth|compress|replay|divergence [flags] [args]")
	os.Exit(2)
}

// engineFlags registers the shared engine-sizing flags for replay-style
// subcommands; the defaults match the divergence tests' mid-size box.
func engineFlags(fs *flag.FlagSet) (cores, mem, iobw *float64, seed *uint64) {
	cores = fs.Float64("cores", 8, "engine CPU cores")
	mem = fs.Float64("mem", 16384, "engine memory (MB)")
	iobw = fs.Float64("io", 800, "engine IO bandwidth (MB/s)")
	seed = fs.Uint64("seed", 42, "replay simulator seed")
	return
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return errors.New("info: want exactly one trace file")
	}
	src, closer, err := trace.OpenFile(fs.Arg(0))
	if err != nil {
		return err
	}
	defer closer.Close()
	h := src.Header()
	type classInfo struct {
		rows   int64
		weight float64
	}
	perClass := map[uint16]*classInfo{}
	var row trace.Row
	var rows int64
	var weight float64
	var lastUS int64
	for {
		if err := src.Next(&row); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return err
		}
		ci := perClass[row.Class]
		if ci == nil {
			ci = &classInfo{}
			perClass[row.Class] = ci
		}
		w := row.Weight
		if w <= 0 {
			w = 1
		}
		ci.rows++
		ci.weight += w
		rows++
		weight += w
		lastUS = row.ArriveUS
	}
	durUS := h.DurationUS
	if durUS <= 0 {
		durUS = lastUS
	}
	fmt.Printf("%s: version %d, %d rows, weight %.0f, %.1fs recorded\n",
		fs.Arg(0), h.Version, rows, weight, float64(durUS)/1e6)
	for idx := 0; idx < len(h.Classes) || perClass[uint16(idx)] != nil; idx++ {
		ci := perClass[uint16(idx)]
		if ci == nil {
			ci = &classInfo{}
		}
		fmt.Printf("  %-14s %8d rows  weight %10.0f\n", h.ClassName(uint16(idx)), ci.rows, ci.weight)
	}
	return nil
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 2 {
		return errors.New("convert: want IN OUT")
	}
	src, closer, err := trace.OpenFile(fs.Arg(0))
	if err != nil {
		return err
	}
	defer closer.Close()
	out, err := os.Create(fs.Arg(1))
	if err != nil {
		return err
	}
	w, err := trace.NewWriterFor(out, fs.Arg(1), src.Header())
	if err != nil {
		out.Close()
		return err
	}
	var row trace.Row
	var n int64
	for {
		if err := src.Next(&row); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			out.Close()
			return err
		}
		if err := w.WriteRow(&row); err != nil {
			out.Close()
			return err
		}
		n++
	}
	if err := w.Flush(); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Printf("converted %d rows: %s -> %s\n", n, fs.Arg(0), fs.Arg(1))
	return nil
}

func cmdSynth(args []string) error {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	rows := fs.Int("rows", 8000, "rows to generate")
	seed := fs.Uint64("seed", 9, "generator seed")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return errors.New("synth: want OUT")
	}
	h, rs := trace.Synth(*seed, *rows)
	if err := trace.WriteFile(fs.Arg(0), h, rs); err != nil {
		return err
	}
	fmt.Printf("wrote %d synthetic rows to %s\n", len(rs), fs.Arg(0))
	return nil
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	ratio := fs.Float64("ratio", 16, "target compression ratio (rows per representative)")
	strata := fs.Int("strata", 6, "time strata clustering is confined to")
	seed := fs.Uint64("seed", 0, "clustering seed")
	workers := fs.Int("workers", 0, "clustering worker cap (0 = GOMAXPROCS, 1 = sequential)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return errors.New("compress: want IN OUT")
	}
	if !(*ratio >= 1) {
		return fmt.Errorf("compress: -ratio must be at least 1, got %v", *ratio)
	}
	if *strata < 1 {
		return fmt.Errorf("compress: -strata must be at least 1, got %d", *strata)
	}
	src, closer, err := trace.OpenFile(fs.Arg(0))
	if err != nil {
		return err
	}
	rows, err := trace.ReadAll(src)
	closer.Close()
	if err != nil {
		return err
	}
	h := src.Header()
	t0 := time.Now()
	comp := trace.Compress(h, rows, trace.CompressConfig{
		Ratio: *ratio, Strata: *strata, Seed: *seed, MaxWorkers: *workers,
	})
	elapsed := time.Since(t0)
	if err := trace.WriteFile(fs.Arg(1), h, comp); err != nil {
		return err
	}
	achieved := 1.0 // an empty trace compresses to an empty one
	if len(comp) > 0 {
		achieved = float64(len(rows)) / float64(len(comp))
	}
	fmt.Printf("compressed %d rows to %d representatives (ratio %.1f, replay scale %.6f)\n",
		len(rows), len(comp), achieved, trace.RateScale(comp))
	effWorkers := *workers
	if procs := runtime.GOMAXPROCS(0); effWorkers <= 0 || effWorkers > procs {
		effWorkers = procs
	}
	fmt.Printf("compression took %.1fms (%.0f rows/sec, %d workers)\n",
		elapsed.Seconds()*1000, float64(len(rows))/elapsed.Seconds(), effWorkers)
	return nil
}

// runReplayFile replays one trace file and returns its stats.
func runReplayFile(path string, cfg trace.ReplayConfig) (*trace.ReplayStats, error) {
	src, closer, err := trace.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer closer.Close()
	return trace.Replay(src, cfg)
}

func printReplay(st *trace.ReplayStats) {
	fmt.Printf("replayed %d rows (weight %.0f) over %.1fs virtual\n",
		st.Rows, st.TotalWeight, float64(st.DurationUS)/1e6)
	for i := range st.Classes {
		c := &st.Classes[i]
		if c.Arrivals == 0 {
			continue
		}
		slo := "      -"
		if c.SLOTotal > 0 {
			slo = fmt.Sprintf("%6.2f%%", 100*c.Attainment())
		}
		fmt.Printf("  %-14s arrivals %9.0f  completed %9.0f  failed %6.0f  mean resp %8.4fs  slo %s\n",
			c.Class, c.Arrivals, c.Completed, c.Failed, c.MeanResp(), slo)
	}
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	cores, mem, iobw, seed := engineFlags(fs)
	scale := fs.Float64("scale", 0, "arrival time scale (0 = auto: rate-preserving for weighted traces, 1 otherwise)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return errors.New("replay: want exactly one trace file")
	}
	cfg := trace.ReplayConfig{
		Engine:    engine.Config{Cores: *cores, MemoryMB: *mem, IOMBps: *iobw},
		Seed:      *seed,
		TimeScale: *scale,
	}
	if cfg.TimeScale <= 0 {
		s, err := autoScale(fs.Arg(0))
		if err != nil {
			return err
		}
		cfg.TimeScale = s
	}
	t0 := time.Now()
	st, err := runReplayFile(fs.Arg(0), cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(t0)
	fmt.Printf("time scale %.6f\n", cfg.TimeScale)
	printReplay(st)
	fmt.Printf("replay took %.1fms (%.0f rows/sec)\n",
		elapsed.Seconds()*1000, float64(st.Rows)/elapsed.Seconds())
	return nil
}

// autoScale picks the rate-preserving replay scale for path: RateScale for a
// weighted (compressed) trace, 1 for a plain recording.
func autoScale(path string) (float64, error) {
	src, closer, err := trace.OpenFile(path)
	if err != nil {
		return 0, err
	}
	rows, err := trace.ReadAll(src)
	closer.Close()
	if err != nil {
		return 0, err
	}
	return trace.RateScale(rows), nil
}

func cmdDivergence(args []string) error {
	fs := flag.NewFlagSet("divergence", flag.ExitOnError)
	cores, mem, iobw, seed := engineFlags(fs)
	bound := fs.Float64("bound", 0.3, "fail when the worst divergence exceeds this (0 disables the gate)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return errors.New("divergence: want FULL COMPRESSED")
	}
	base := trace.ReplayConfig{
		Engine: engine.Config{Cores: *cores, MemoryMB: *mem, IOMBps: *iobw},
		Seed:   *seed,
	}
	fullCfg := base
	fullCfg.TimeScale = 1
	compScale, err := autoScale(fs.Arg(1))
	if err != nil {
		return err
	}
	compCfg := base
	compCfg.TimeScale = compScale

	// Both replays are independent deterministic runs, so they fan out
	// through the pooled what-if API and finish in the wall time of the
	// slower one.
	fullSrc, fullCloser, err := trace.OpenFile(fs.Arg(0))
	if err != nil {
		return err
	}
	defer fullCloser.Close()
	compSrc, compCloser, err := trace.OpenFile(fs.Arg(1))
	if err != nil {
		return err
	}
	defer compCloser.Close()
	t0 := time.Now()
	stats, err := trace.ReplayMany([]trace.ReplayJob{
		{Src: fullSrc, Cfg: fullCfg},
		{Src: compSrc, Cfg: compCfg},
	}, 0)
	if err != nil {
		return err
	}
	elapsed := time.Since(t0)
	full, comp := stats[0], stats[1]
	div := trace.Diverge(full, comp)
	for _, cd := range div.PerClass {
		fmt.Printf("  %-14s rateTV %.4f  costTV %.4f\n", cd.Class, cd.RateTV, cd.CostTV)
	}
	fmt.Printf("divergence max %.4f (rate %.4f, cost %.4f)\n", div.Max, div.RateTV, div.CostTV)
	fmt.Printf("replayed both traces concurrently in %.1fms (%.0f rows/sec)\n",
		elapsed.Seconds()*1000, float64(full.Rows+comp.Rows)/elapsed.Seconds())
	if *bound > 0 && div.Max > *bound {
		return fmt.Errorf("divergence %.4f exceeds bound %.2f", div.Max, *bound)
	}
	return nil
}
