package dbwlm

import (
	"strings"
	"testing"

	"dbwlm/internal/engine"
	"dbwlm/internal/scheduling"
	"dbwlm/internal/sim"
	"dbwlm/internal/workload"
)

func TestDashboardRendersLiveState(t *testing.T) {
	s := sim.New(1)
	m := New(s, engine.Config{Cores: 4, IOMBps: 400})
	m.Scheduler = scheduling.NewScheduler(scheduling.NewPriority(), &scheduling.MPL{Max: 8})
	gens := []workload.Generator{oltpGen(40)}
	for _, g := range gens {
		g.Start(s, sim.Time(20*sim.Second), func(r *workload.Request) { m.Submit(r) })
	}
	s.Run(sim.Time(10 * sim.Second))

	out := m.Dashboard()
	for _, want := range []string{"engine:", "delay queue:", "workload", "oltp"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, out)
		}
	}
	rows := m.DashboardRows()
	if len(rows) != 1 || rows[0].Workload != "oltp" {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Completed == 0 {
		t.Fatal("no completions visible mid-run")
	}
	if rows[0].ArrivalRate <= 0 {
		t.Fatal("no arrival rate")
	}
	if !rows[0].SLGMet {
		t.Fatal("unloaded OLTP should meet its SLG")
	}
}

// TestDashboardDeterministic renders the same mixed-workload run repeatedly:
// the dashboard must come out byte-identical every time. This pins the
// map-order audit — any map-order iteration feeding the rendered output shows
// up here as flaky bytes.
func TestDashboardDeterministic(t *testing.T) {
	render := func() string {
		s := sim.New(7)
		m := New(s, engine.Config{Cores: 4, IOMBps: 400})
		m.Scheduler = scheduling.NewScheduler(scheduling.NewPriority(), &scheduling.MPL{Max: 8})
		gens := []workload.Generator{
			oltpGen(40),
			&workload.AdHocGen{WorkloadName: "adhoc", Rate: 0.5, Seq: &workload.Sequence{}},
		}
		for _, g := range gens {
			g.Start(s, sim.Time(20*sim.Second), func(r *workload.Request) { m.Submit(r) })
		}
		s.Run(sim.Time(10 * sim.Second))
		return m.Dashboard() + m.Report()
	}
	first := render()
	for i := 0; i < 4; i++ {
		if got := render(); got != first {
			t.Fatalf("run %d rendered different bytes:\n--- first ---\n%s\n--- run %d ---\n%s", i+2, first, i+2, got)
		}
	}
}

func TestDashboardCountsSuspended(t *testing.T) {
	s := sim.New(1)
	m := New(s, engine.Config{Cores: 4, IOMBps: 400})
	req := &workload.Request{
		ID: 1, Workload: "big",
		True: engine.QuerySpec{CPUWork: 100, Parallelism: 1},
	}
	m.Submit(req)
	s.Run(sim.Time(sim.Second))
	for _, rr := range m.RunningAll() {
		if err := m.Engine().Suspend(rr.Query.ID, engine.SuspendGoBack); err != nil {
			t.Fatal(err)
		}
	}
	s.Run(sim.Time(2 * sim.Second))
	rows := m.DashboardRows()
	if len(rows) != 1 || rows[0].Suspended != 1 || rows[0].ActiveSessions != 0 {
		t.Fatalf("suspended accounting wrong: %+v", rows)
	}
	if !strings.Contains(m.Dashboard(), "big") {
		t.Fatal("dashboard missing workload")
	}
}
