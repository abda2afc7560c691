package main

import (
	"net"
	"testing"

	"dbwlm/internal/policy"
	"dbwlm/internal/rt"
	"dbwlm/internal/trace"
	"dbwlm/internal/wire"
)

// TestTraceReplayAgainstServer replays a small hand-built trace at -speed ≫ 1
// against an in-process wire.Server over rt.Runtime and pins what is left of
// wlmload: every grant is released, nothing errors, and the per-class
// deadline tally is exactly what the trace's deadlines and the daemon's
// limits imply.
func TestTraceReplayAgainstServer(t *testing.T) {
	r, err := rt.New([]rt.ClassSpec{
		{Name: "interactive", Priority: policy.PriorityHigh, MaxMPL: 4096},
		{Name: "reporting", Priority: policy.PriorityMedium, MaxMPL: 4096, MaxCostTimerons: 1000},
		{Name: "batch", Priority: policy.PriorityLow, MaxMPL: 4096},
	}, rt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(&wire.Dispatcher{RT: r})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	// 1 ms apart, cycling the three classes: oltp rows carry a deadline no
	// healthy run misses; bi rows carry one too but cost more than the
	// reporting class admits, so each is rejected — a miss outright; adhoc
	// rows are best-effort and must not appear in the tally.
	const perClass = 100
	h := trace.Header{Version: trace.Version, Classes: []string{"oltp", "bi", "adhoc"}}
	var rows []trace.Row
	for i := 0; i < 3*perClass; i++ {
		row := trace.Row{ID: int64(i + 1), ArriveUS: int64(i) * 1000, Class: uint16(i % 3), Weight: 1, EstTimerons: 10}
		switch row.Class {
		case 0:
			row.SLOKind, row.SLOTarget, row.SLOPct = uint8(policy.SLOPercentileResponseTime), 60, 95
		case 1:
			row.SLOKind, row.SLOTarget = uint8(policy.SLOAvgResponseTime), 60
			row.EstTimerons = 5000
		}
		rows = append(rows, row)
	}

	rep := run(config{addr: l.Addr().String(), conns: 2, speed: 100}, &h, rows)

	if rep.Errors != 0 {
		t.Fatalf("%d protocol errors", rep.Errors)
	}
	if rep.Admitted != 2*perClass || rep.Rejected != perClass {
		t.Fatalf("admitted %d rejected %d, want %d and %d", rep.Admitted, rep.Rejected, 2*perClass, perClass)
	}
	if rep.Released != rep.Admitted {
		t.Fatalf("released %d of %d admitted", rep.Released, rep.Admitted)
	}
	if got := r.InEngine(); got != 0 {
		t.Fatalf("daemon left with %d in engine", got)
	}
	want := []deadlineCount{
		{Class: "oltp", Total: perClass, Missed: 0},
		{Class: "bi", Total: perClass, Missed: perClass},
	}
	if len(rep.DeadlineMisses) != len(want) {
		t.Fatalf("deadline_misses %+v, want %+v", rep.DeadlineMisses, want)
	}
	for i := range want {
		if rep.DeadlineMisses[i] != want[i] {
			t.Fatalf("deadline_misses[%d] = %+v, want %+v", i, rep.DeadlineMisses[i], want[i])
		}
	}
}

// TestFlags: -trace is required and the synthetic-traffic flags are gone.
func TestFlags(t *testing.T) {
	if _, err := parseFlags(nil); err == nil {
		t.Fatal("no -trace accepted")
	}
	if _, err := parseFlags([]string{"-trace", "x", "-mode", "wire"}); err == nil {
		t.Fatal("-mode still accepted")
	}
	cfg, err := parseFlags([]string{"-trace", "x", "-speed", "10"})
	if err != nil || cfg.tracePath != "x" || cfg.speed != 10 {
		t.Fatalf("parseFlags = %+v, %v", cfg, err)
	}
}
