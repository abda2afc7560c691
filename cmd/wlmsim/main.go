// Command wlmsim runs the consolidated-server scenario of the paper's
// introduction under a chosen workload management configuration and prints
// the per-workload performance report.
//
// Usage:
//
//	wlmsim [-profile none|db2|sqlserver|teradata|oracle] [-config plan.json]
//	       [-horizon 180] [-drain 90] [-seed 1]
//	       [-oltp 40] [-bi 0.05] [-adhoc 0.12] [-monster 0.4]
//	       [-cores 8] [-mem 4096] [-io 800]
//	       [-record out.trace] [-replay-trace in.trace]
//
// -record and -replay-trace use the versioned binary internal/trace format,
// whatever the file's extension; recording is transparent (bit-identical
// engine results with or without it) and a recorded trace replays
// bit-identically.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dbwlm"
	"dbwlm/internal/engine"
	"dbwlm/internal/governor"
	"dbwlm/internal/sim"
	"dbwlm/internal/trace"
	"dbwlm/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is wlmsim with its arguments and report stream: the exit code is 0
// on success, 1 on a runtime error, 2 on bad usage.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("wlmsim", flag.ContinueOnError)
	profileName := fs.String("profile", "none", "WLM profile: none, db2, sqlserver, teradata, oracle")
	horizon := fs.Float64("horizon", 180, "arrival horizon in simulated seconds")
	drain := fs.Float64("drain", 90, "drain period after the horizon in seconds")
	seed := fs.Uint64("seed", 1, "simulation seed")
	oltp := fs.Float64("oltp", 40, "OLTP arrivals per second")
	bi := fs.Float64("bi", 0.05, "BI arrivals per second")
	adhoc := fs.Float64("adhoc", 0.12, "ad-hoc arrivals per second")
	monster := fs.Float64("monster", 0.4, "probability an ad-hoc arrival is a monster")
	cores := fs.Float64("cores", 8, "server CPU cores")
	memMB := fs.Float64("mem", 4096, "server memory (MB)")
	ioMBps := fs.Float64("io", 800, "server IO bandwidth (MB/s)")
	recordPath := fs.String("record", "", "record the run to a versioned binary trace file")
	replayTracePath := fs.String("replay-trace", "", "replay a versioned binary trace file instead of generating")
	configPath := fs.String("config", "", "apply a JSON WLM configuration (overrides -profile)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	s := sim.New(*seed)
	m := dbwlm.New(s, engine.Config{Cores: *cores, MemoryMB: *memMB, IOMBps: *ioMBps})

	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		err = dbwlm.LoadConfig(m, f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		*profileName = "config:" + *configPath
	} else {
		switch *profileName {
		case "none":
		case "db2":
			governor.DB2Profile().Attach(m)
		case "sqlserver":
			governor.SQLServerProfile().Attach(m)
		case "teradata":
			governor.TeradataProfile().Attach(m)
		case "oracle":
			governor.OracleProfile().Attach(m)
		default:
			fmt.Fprintf(os.Stderr, "unknown profile %q\n", *profileName)
			return 2
		}
	}

	var gens []workload.Generator
	var traceClose func() error
	var replay *trace.Gen
	if *replayTracePath != "" {
		src, closer, err := trace.OpenFile(*replayTracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		traceClose = closer.Close
		replay = trace.NewGen(src)
		gens = []workload.Generator{replay}
		fmt.Fprintf(stdout, "replaying trace %s\n", *replayTracePath)
	} else {
		gens = workload.Consolidated(s.RNG().Fork(1), workload.ScenarioConfig{
			OLTPRate: *oltp, BIRate: *bi, AdHocRate: *adhoc, MonsterProb: *monster,
		})
	}

	var rec *trace.Recorder
	if *recordPath != "" {
		rec = trace.NewRecorder()
		gens = workload.Record(gens, rec.Tap)
	}

	m.RunWorkload(gens,
		sim.DurationFromSeconds(*horizon), sim.DurationFromSeconds(*drain))

	fmt.Fprintf(stdout, "profile=%s seed=%d horizon=%.0fs server=%.0f cores / %.0f MB / %.0f MB/s\n\n",
		*profileName, *seed, *horizon, *cores, *memMB, *ioMBps)
	fmt.Fprint(stdout, m.Report())
	st := m.Engine().StatsNow()
	fmt.Fprintf(stdout, "\nengine: completed=%d killed=%d deadlocks=%d still-resident=%d\n",
		st.Completed, st.Killed, st.Deadlocks, st.InEngine)

	if rec != nil {
		rec.DurationUS = int64(sim.DurationFromSeconds(*horizon))
		if err := trace.WriteFile(*recordPath, rec.Header(), rec.Rows()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "\nrecorded %d rows to %s\n", len(rec.Rows()), *recordPath)
	}
	if traceClose != nil {
		traceClose()
	}
	if replay != nil {
		if err := replay.Err(); err != nil {
			fmt.Fprintln(os.Stderr, "replay:", err)
			return 1
		}
	}
	return 0
}
