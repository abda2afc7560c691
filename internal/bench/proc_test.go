package bench

import (
	"os"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields:
	// utime 1234 and stime 766 ticks are fields 14 and 15.
	stat := []byte("4242 (wl md) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 1234 766 0 0 20 0 5 0 100 1000000 300 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	got, err := ParseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 20.0; got != want {
		t.Fatalf("CPU seconds = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x) S 1 2", "1 x S 1 2 3"} {
		if _, err := ParseStatCPU([]byte(bad)); err == nil {
			t.Errorf("ParseStatCPU(%q) succeeded", bad)
		}
	}
}

func TestParseStatusHWM(t *testing.T) {
	status := []byte("Name:\twlmd\nVmPeak:\t 1234567 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n")
	got, err := ParseStatusHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 20 {
		t.Fatalf("VmHWM = %v MB, want 20", got)
	}
	if _, err := ParseStatusHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("status without VmHWM parsed")
	}
	if _, err := ParseStatusHWM([]byte("VmHWM:\t12 MB\n")); err == nil {
		t.Error("VmHWM in an unexpected unit parsed")
	}
}

func TestProcReadersOnSelf(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc on this platform")
	}
	before, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	x := 0
	for i := 0; i < 50_000_000; i++ { // ≈ 30+ ms of CPU: a few scheduler ticks
		x += i ^ (x >> 3)
	}
	_ = x
	after, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if after < before {
		t.Fatalf("CPU time went backwards: %v then %v", before, after)
	}
	hwm, err := procHWM(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if hwm < 1 {
		t.Fatalf("peak RSS %v MB is implausible for a Go test binary", hwm)
	}
}

func TestParseCPUModel(t *testing.T) {
	if got := parseCPUModel([]byte("processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\nflags\t: x\n")); got != "Example CPU @ 2.0GHz" {
		t.Fatalf("model = %q", got)
	}
	if got := parseCPUModel(nil); got != "unknown" {
		t.Fatalf("model of empty cpuinfo = %q", got)
	}
}
