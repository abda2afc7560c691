package bench

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// clockTick is the kernel's USER_HZ. Linux has fixed it at 100 on every
// architecture Go supports, and /proc reports CPU times in it.
const clockTick = 100

// ParseStatCPU extracts utime+stime in seconds from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// itself contain spaces and parentheses, so fields are counted from the
// last ')'.
func ParseStatCPU(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("bench: /proc stat without command field: %q", stat)
	}
	f := strings.Fields(string(stat[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: /proc stat has %d fields after the command, want >= 13", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bench: /proc stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bench: /proc stat stime: %w", err)
	}
	return float64(ut+st) / clockTick, nil
}

// ParseStatusHWM extracts VmHWM (peak resident set) in MB from the contents
// of /proc/<pid>/status.
func ParseStatusHWM(status []byte) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("bench: unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bench: VmHWM: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("bench: no VmHWM line in /proc status")
}

// procCPU reads a process's consumed CPU seconds (user + system).
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return ParseStatCPU(b)
}

// procHWM reads a process's peak resident set in MB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return ParseStatusHWM(b)
}

// Host stamps the machine and build a record came from, so two records are
// only compared knowingly across hosts.
type Host struct {
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

// StampHost fills a Host. The commit is "unknown" outside a git checkout
// (the acceptance driver's copy is not a repository).
func StampHost(root string) Host {
	h := Host{
		Commit:     "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		h.CPUModel = parseCPUModel(b)
	}
	return h
}

func parseCPUModel(cpuinfo []byte) string {
	for _, line := range strings.Split(string(cpuinfo), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
