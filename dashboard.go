package dbwlm

import (
	"fmt"
	"sort"
	"strings"

	"dbwlm/internal/engine"
	"dbwlm/internal/obsv"
	"dbwlm/internal/slo"
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
	SLGRatio       float64
	Killed         int64
	Resubmits      int64
}

// Dashboard snapshots the live state of every known workload plus the
// engine, rendering the monitor view operators watch.
func (m *Manager) Dashboard() string {
	active := make(map[string]int)
	suspended := make(map[string]int)
	// Commutative counting; the rendered rows below iterate sorted names.
	//dbwlm:sorted
	for _, rr := range m.running {
		switch rr.Query.State() {
		case engine.StateSuspended, engine.StateSuspending:
			suspended[rr.Req.Workload]++
		default:
			active[rr.Req.Workload]++
		}
	}
	names := m.stats.Names()
	sort.Strings(names)
	var rows []DashboardRow
	for _, name := range names {
		ws := m.stats.Workload(name)
		att := m.Attainment(name)
		rows = append(rows, DashboardRow{
			Workload:       name,
			ActiveSessions: active[name],
			Suspended:      suspended[name],
			ArrivalRate:    ws.Throughput.Rate(m.sim.Now()),
			Completed:      ws.Completed.Value(),
			MeanResponse:   ws.Response.Mean(),
			SLGMet:         att.Met,
			SLGRatio:       att.Ratio,
			Killed:         ws.Killed.Value(),
			Resubmits:      ws.Resubmits.Value(),
		})
	}

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

// TraceTail renders the last n events of a flight recorder as a text block
// for the operator console — the dashboard's drill-down from aggregate rows
// to individual decisions. Controllers share the recorder by setting their
// Flight field; class IDs are rendered through className (nil prints the raw
// ID).
func TraceTail(rec *obsv.Recorder, n int, className func(int32) string) string {
	if rec == nil {
		return "trace: recorder disabled\n"
	}
	events := rec.Tail(n, obsv.MatchAll)
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d recorded, %d overwritten, showing %d\n",
		rec.Recorded(), rec.Overwritten(), len(events))
	for i := range events {
		b.WriteString(events[i].Format(className))
		b.WriteByte('\n')
	}
	return b.String()
}

// SLOPanel renders the live SLO engine's per-class reports as the operator
// console's objective panel: the objective itself (miss-budgeted deadline),
// cumulative attainment, fast/slow-window burn rates, the windowed latency
// percentile, error budget remaining, and whether the class is burning —
// the wlmd-side companion to the simulated Manager's SLG column above.
func SLOPanel(reports []slo.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %14s %9s %7s %10s %10s %10s %7s %8s\n",
		"class", "objective", "done", "missed", "burn/fast", "burn/slow", "p-lat ms", "budget", "state")
	for i := range reports {
		r := &reports[i]
		obj := "best-effort"
		if r.TargetSeconds > 0 {
			obj = fmt.Sprintf("%.4g%%<=%gms", (1-r.MissBudget)*100, r.TargetSeconds*1e3)
		}
		state := "ok"
		if r.Burning {
			state = "BURNING"
		}
		fmt.Fprintf(&b, "%-14s %14s %9d %7d %10.2f %10.2f %10.3f %6.0f%% %8s\n",
			r.Class, obj, r.Total, r.Missed,
			r.Windows[0].BurnRate, r.Windows[1].BurnRate,
			1e3*r.Windows[0].Latency, 100*r.BudgetRemaining, state)
	}
	return b.String()
}

// DashboardRows returns the structured per-workload monitor rows.
func (m *Manager) DashboardRows() []DashboardRow {
	out := make([]DashboardRow, 0, len(m.slos))
	for _, name := range m.stats.Names() {
		ws := m.stats.Workload(name)
		att := m.Attainment(name)
		row := DashboardRow{
			Workload:     name,
			ArrivalRate:  ws.Throughput.Rate(m.sim.Now()),
			Completed:    ws.Completed.Value(),
			MeanResponse: ws.Response.Mean(),
			SLGMet:       att.Met,
			SLGRatio:     att.Ratio,
			Killed:       ws.Killed.Value(),
			Resubmits:    ws.Resubmits.Value(),
		}
		// Commutative counting into the row's session tallies.
		//dbwlm:sorted
		for _, rr := range m.running {
			if rr.Req.Workload != name {
				continue
			}
			if s := rr.Query.State(); s == engine.StateSuspended || s == engine.StateSuspending {
				row.Suspended++
			} else {
				row.ActiveSessions++
			}
		}
		out = append(out, row)
	}
	return out
}
