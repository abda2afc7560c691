package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// RunRecord is one run inside a suite record.
type RunRecord struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Record is what one wlmbench invocation over several workloads writes: the
// host stamp and every run. Compare reads two of them.
type Record struct {
	Host    Host        `json:"host"`
	Seed    uint64      `json:"seed"`
	Seconds float64     `json:"seconds"`
	Short   bool        `json:"short"`
	Runs    []RunRecord `json:"runs"`
}

// SuiteOptions sizes a suite.
type SuiteOptions struct {
	// Workloads to run, in order; empty means all five.
	Workloads []string
	Seed      uint64
	Seconds   float64
	Short     bool
	// Untraced and Traced select the run kinds; Repeats is how many untraced
	// runs each workload gets, run i on seed Seed+i, so a record carries the
	// run-to-run spread Compare needs.
	Untraced bool
	Traced   bool
	Repeats  int
	Root     string
	OutDir   string
	// Self is the wlmbench binary; every run is a fresh child of it, so
	// peak RSS and GC state are per workload.
	Self string
	Log  io.Writer
}

// RunSuite runs the selected workloads, each run in its own process, prints
// every metric, and returns the record.
func RunSuite(ctx context.Context, so SuiteOptions, out io.Writer) (*Record, error) {
	if len(so.Workloads) == 0 {
		for _, w := range Workloads {
			so.Workloads = append(so.Workloads, w.Name)
		}
	}
	for _, w := range so.Workloads {
		if !IsWorkload(w) {
			return nil, fmt.Errorf("bench: unknown workload %q", w)
		}
	}
	rec := &Record{Host: StampHost(so.Root), Seed: so.Seed, Seconds: so.Seconds, Short: so.Short}
	fmt.Fprintf(out, "host: commit %s, nproc %d, GOMAXPROCS %d, %s, %s\n",
		rec.Host.Commit, rec.Host.NProc, rec.Host.GOMAXPROCS, rec.Host.GoVersion, rec.Host.CPUModel)
	for _, w := range so.Workloads {
		type kind struct {
			trace bool
			seed  uint64
		}
		var kinds []kind
		if so.Untraced {
			for i := 0; i < max(so.Repeats, 1); i++ {
				kinds = append(kinds, kind{false, so.Seed + uint64(i)})
			}
		}
		if so.Traced {
			kinds = append(kinds, kind{true, so.Seed})
		}
		for _, k := range kinds {
			run, table, err := runChild(ctx, &so, w, k.seed, k.trace)
			if err != nil {
				return rec, err
			}
			fmt.Fprintf(out, "\n%s seed %d trace %v: correct %v, attempted %d, failed %d\n%s",
				w, k.seed, k.trace, run.Correct, run.Attempted, run.Failed, table)
			rec.Runs = append(rec.Runs, *run)
		}
	}
	return rec, nil
}

// runChild runs one workload once in a child process and parses the result
// line it prints last.
func runChild(ctx context.Context, so *SuiteOptions, workload string, seed uint64, trace bool) (*RunRecord, string, error) {
	args := []string{
		"--workload", workload,
		"--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(so.Seconds, 'g', -1, 64),
		"--trace", map[bool]string{false: "0", true: "1"}[trace],
		"-out", so.OutDir,
	}
	if so.Short {
		args = append(args, "-short")
	}
	cmd := exec.CommandContext(ctx, so.Self, args...)
	cmd.Dir = so.Root
	cmd.Stderr = so.Log
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	runErr := cmd.Run()
	text := strings.TrimRight(stdout.String(), "\n")
	cut := strings.LastIndexByte(text, '\n')
	line, table := text[cut+1:], text[:cut+1]
	run := &RunRecord{Workload: workload, Seed: seed, Trace: trace}
	if err := json.Unmarshal([]byte(line), run); err != nil {
		return nil, "", fmt.Errorf("bench: %s child printed no result (%v): %v", workload, runErr, err)
	}
	// A child that printed a result but exited non-zero failed an output
	// check; the result says so in its correct field.
	return run, table, nil
}

// WriteRecord writes rec as indented JSON to path.
func WriteRecord(rec *Record, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadRecord loads a record WriteRecord wrote.
func ReadRecord(path string) (*Record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &rec, nil
}
