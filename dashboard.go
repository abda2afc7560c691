package dbwlm

import (
	"fmt"
	"strings"

	"dbwlm/internal/engine"
)

// DashboardRow is the per-workload live view of the Teradata manager's
// dashboard workload monitor (Section 4.1.3.C): active sessions, recent
// arrival rate, completions, response times, SLG violations, and delay-queue
// depth.
type DashboardRow struct {
	Workload       string
	ActiveSessions int
	Suspended      int
	ArrivalRate    float64 // completions-window proxy, requests/second
	Completed      int64
	MeanResponse   float64
	SLGMet         bool
	Killed         int64
	Resubmits      int64
}

// Dashboard snapshots the live state of every known workload plus the
// engine, rendering the monitor view operators watch.
func (m *Manager) Dashboard() string {
	rows := m.DashboardRows()
	var b strings.Builder
	st := m.eng.StatsNow()
	fmt.Fprintf(&b, "t=%.1fs  engine: %d running / %d blocked / %d suspended, cpu %.0f%%, io %.0f%%, mem %.0f%%, conflict %.2f\n",
		m.sim.Now().Seconds(), st.Running, st.Blocked, st.Suspended,
		100*st.CPUUtilization, 100*st.IOUtilization, 100*st.MemPressure, st.ConflictRatio)
	if m.Scheduler != nil {
		fmt.Fprintf(&b, "delay queue: %d waiting, %d dispatched; admission queue: %d\n",
			m.Scheduler.Waiting(), m.Scheduler.Dispatched(), m.admissionQueue.Len())
	} else {
		fmt.Fprintf(&b, "admission queue: %d\n", m.admissionQueue.Len())
	}
	fmt.Fprintf(&b, "%-14s %7s %6s %8s %9s %10s %6s %7s %7s\n",
		"workload", "active", "susp", "arr/s", "done", "meanRT", "SLG", "killed", "resub")
	for _, r := range rows {
		slg := "met"
		if !r.SLGMet {
			slg = "MISS"
		}
		fmt.Fprintf(&b, "%-14s %7d %6d %8.2f %9d %10.4f %6s %7d %7d\n",
			r.Workload, r.ActiveSessions, r.Suspended, r.ArrivalRate,
			r.Completed, r.MeanResponse, slg, r.Killed, r.Resubmits)
	}
	return b.String()
}

// DashboardRows returns the structured per-workload monitor rows in
// workload-name order.
func (m *Manager) DashboardRows() []DashboardRow {
	names := m.stats.Names()
	out := make([]DashboardRow, len(names))
	byName := make(map[string]*DashboardRow, len(names))
	for i, name := range names {
		ws := m.stats.Workload(name)
		att := m.Attainment(name)
		out[i] = DashboardRow{
			Workload:     name,
			ArrivalRate:  ws.Throughput.Rate(m.sim.Now()),
			Completed:    ws.Completed.Value(),
			MeanResponse: ws.Response.Mean(),
			SLGMet:       att.Met,
			Killed:       ws.Killed.Value(),
			Resubmits:    ws.Resubmits.Value(),
		}
		byName[name] = &out[i]
	}
	// One pass over the in-flight set.
	for _, q := range m.eng.Live() {
		rr := RunningOf(q)
		if rr == nil {
			continue
		}
		row := byName[rr.Req.Workload]
		if row == nil {
			continue
		}
		if s := q.State(); s == engine.StateSuspended || s == engine.StateSuspending {
			row.Suspended++
		} else {
			row.ActiveSessions++
		}
	}
	return out
}
