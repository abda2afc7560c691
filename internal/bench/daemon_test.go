package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dbwlm/internal/policy"
)

// testBins builds wlmd and wlmbench once per test binary.
var testBins struct {
	once          sync.Once
	root, dir     string
	wlmd, wlmbnch string
	err           error
}

func buildBins(t *testing.T) (root, wlmd, wlmbench string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	b := &testBins
	b.once.Do(func() {
		if b.root, b.err = FindRoot("."); b.err != nil {
			return
		}
		if b.dir, b.err = os.MkdirTemp("", "wlmbench-test"); b.err != nil {
			return
		}
		if b.wlmd, b.err = BuildDaemon(context.Background(), b.root, b.dir); b.err != nil {
			return
		}
		b.wlmbnch = filepath.Join(b.dir, "wlmbench")
		cmd := exec.Command("go", "build", "-o", b.wlmbnch, "./cmd/wlmbench")
		cmd.Dir = b.root
		if out, err := cmd.CombinedOutput(); err != nil {
			b.err = fmt.Errorf("build wlmbench: %v\n%s", err, out)
		}
	})
	if b.err != nil {
		t.Fatal(b.err)
	}
	return b.root, b.wlmd, b.wlmbnch
}

func TestMain(m *testing.M) {
	code := m.Run()
	if testBins.dir != "" {
		os.RemoveAll(testBins.dir)
	}
	os.Exit(code)
}

// gone reports whether pid no longer names a process.
func gone(pid int) bool {
	return syscall.Kill(pid, 0) == syscall.ESRCH
}

// No orphan daemon: cancelling the run's context (what SIGINT and SIGTERM do
// in cmd/wlmbench) kills the child, and Stop reaps it; a plain Stop does the
// same. The daemon's stderr is kept in the output directory.
func TestDaemonIsKilledAndReaped(t *testing.T) {
	_, wlmd, _ := buildBins(t)
	out := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	d, err := StartDaemon(ctx, wlmd, out, "cancelled")
	if err != nil {
		t.Fatal(err)
	}
	pid := d.PID()
	if gone(pid) {
		t.Fatal("daemon not running after StartDaemon")
	}
	cancel()
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		t.Fatal("daemon still running 5 s after its context was cancelled")
	}
	d.Stop()
	if !gone(pid) {
		t.Fatalf("pid %d still exists after cancel and Stop", pid)
	}

	d, err = StartDaemon(context.Background(), wlmd, out, "stopped")
	if err != nil {
		t.Fatal(err)
	}
	pid = d.PID()
	d.Stop()
	d.Stop() // idempotent
	if !gone(pid) {
		t.Fatalf("pid %d still exists after Stop", pid)
	}
	log, err := os.ReadFile(filepath.Join(out, "stopped.wlmd.stderr"))
	if err != nil || !strings.Contains(string(log), "wire protocol listening") {
		t.Fatalf("daemon stderr not kept: %v %q", err, log)
	}

	// A daemon that cannot start is reported, not left behind.
	if _, err := StartDaemon(context.Background(), filepath.Join(out, "no-such-binary"), out, "missing"); err == nil {
		t.Fatal("starting a missing binary succeeded")
	}
}

// The traced stage pass runs against an in-process runtime that must be
// configured like the daemon: their effective policies have to be the same
// document.
func TestInprocMatchesDaemonPolicy(t *testing.T) {
	_, wlmd, _ := buildBins(t)
	d, err := StartDaemon(context.Background(), wlmd, t.TempDir(), "policy")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	resp, err := http.Get("http://" + d.HTTPAddr + "/policy")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var remote policy.RuntimePolicy
	if err := json.Unmarshal(body, &remote); err != nil {
		t.Fatalf("GET /policy: %v: %s", err, body)
	}
	ip, err := newInproc()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(ip.rt.Policy())
	got, _ := json.Marshal(&remote)
	if string(got) != string(want) {
		t.Fatalf("daemon policy\n%s\nin-process policy\n%s", got, want)
	}
	st, err := d.Stats(http.DefaultClient)
	if err != nil {
		t.Fatal(err)
	}
	if st.Predict == nil || len(st.Classes) != 3 || st.Classes[classBatch].Class != "batch" {
		t.Fatalf("daemon is not the predict-enabled three-class configuration: %+v", st)
	}
}
