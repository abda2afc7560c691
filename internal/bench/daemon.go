package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"dbwlm/internal/policy"
	"dbwlm/internal/rthttp"
)

// BenchPolicy is the policy every live workload starts wlmd with:
// interactive and reporting effectively ungated on MPL (the closed loop
// never holds more than a few hundred grants), reporting cost-capped so a
// known share of its admits is rejected-cost, batch behind a four-slot gate
// so the gate-full path runs.
func BenchPolicy() *policy.RuntimePolicy {
	return &policy.RuntimePolicy{
		GlobalMaxMPL: 0,
		Classes: []policy.RuntimeClassLimit{
			{Class: "interactive", MaxMPL: 65536},
			{Class: "reporting", MaxMPL: 65536, MaxCostTimerons: 50000},
			{Class: "batch", MaxMPL: 4},
		},
	}
}

// FindRoot walks up from dir to the directory holding the dbwlm go.mod.
func FindRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(b), "module dbwlm\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no dbwlm go.mod above the working directory")
		}
		dir = parent
	}
}

// BuildDaemon compiles cmd/wlmd from source into buildDir and returns the
// binary's path. With a warm build cache this is a staleness check.
func BuildDaemon(ctx context.Context, root, buildDir string) (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(buildDir, "wlmd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/wlmd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: build wlmd: %v\n%s", err, out)
	}
	return bin, nil
}

// Daemon is one running wlmd child.
type Daemon struct {
	HTTPAddr string
	WireAddr string

	cmd    *exec.Cmd
	stderr *os.File
	exited chan struct{} // closed once Wait has returned
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before wlmd binds the port, so a collision is possible and
// StartDaemon's readiness wait reports it.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// StartDaemon launches wlmd in the production configuration on two free
// loopback ports, keeps its stderr in outDir/<name>.wlmd.stderr, and returns
// once GET /stats answers. The child is killed when ctx is cancelled; the
// caller must still call Stop to reap it.
func StartDaemon(ctx context.Context, bin, outDir, name string) (*Daemon, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	pol, err := json.Marshal(BenchPolicy())
	if err != nil {
		return nil, err
	}
	polPath := filepath.Join(outDir, name+".policy.json")
	if err := os.WriteFile(polPath, pol, 0o644); err != nil {
		return nil, err
	}
	httpAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	wireAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	stderr, err := os.Create(filepath.Join(outDir, name+".wlmd.stderr"))
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, bin,
		"-addr", httpAddr, "-wire-addr", wireAddr,
		"-predict", "-plan-cache", "4096", "-trace", "16384", "-slo",
		"-global-mpl", "0", "-policy", polPath)
	cmd.Stderr = stderr
	if err := cmd.Start(); err != nil {
		stderr.Close()
		return nil, fmt.Errorf("bench: start wlmd: %w", err)
	}
	d := &Daemon{HTTPAddr: httpAddr, WireAddr: wireAddr, cmd: cmd, stderr: stderr,
		exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed child carries no news
		close(d.exited)
	}()
	if err := d.waitReady(ctx); err != nil {
		d.Stop()
		return nil, err
	}
	return d, nil
}

func (d *Daemon) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("bench: wlmd exited during start-up (see %s)", d.stderr.Name())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := http.Get("http://" + d.HTTPAddr + "/stats")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("bench: wlmd not ready on %s after 10s (see %s)", d.HTTPAddr, d.stderr.Name())
}

// PID is the child's process id.
func (d *Daemon) PID() int { return d.cmd.Process.Pid }

// Stop kills the child and returns once it has been reaped. wlmd has no
// graceful shutdown; every check that needs its state runs before Stop.
// Safe to call more than once.
func (d *Daemon) Stop() {
	_ = d.cmd.Process.Kill() // already-exited is fine
	<-d.exited
	d.stderr.Close()
}

// getJSON fetches one of the daemon's JSON pages into v.
func (d *Daemon) getJSON(client *http.Client, path string, v any) error {
	resp, err := client.Get("http://" + d.HTTPAddr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bench: GET %s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("bench: decode %s: %w", path, err)
	}
	return nil
}

// Stats fetches and decodes GET /stats.
func (d *Daemon) Stats(client *http.Client) (*rthttp.StatsResponse, error) {
	var st rthttp.StatsResponse
	return &st, d.getJSON(client, "/stats", &st)
}
