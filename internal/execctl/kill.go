package execctl

import (
	"dbwlm/internal/engine"
	"dbwlm/internal/obsv"
	"dbwlm/internal/sim"
)

// Killer implements query cancellation (Table 3, row 3): a managed query
// whose elapsed time or consumed work exceeds its limit is killed, releasing
// its resources immediately. With Resubmit set the kill is reported so the
// workload manager can queue the request again (the "kill-and-resubmit"
// action of Krompass et al. [39]).
type Killer struct {
	Engine *engine.Engine
	// MaxElapsedSeconds kills queries running longer than this (0 disables).
	MaxElapsedSeconds float64
	// MaxRows kills queries returning more rows than this (0 disables).
	MaxRows int64
	// MaxCPUSeconds kills queries that have consumed more CPU than this
	// (0 disables) — the CPU-time exception criterion of Teradata ASM and
	// SQL Server's CPU Threshold Exceeded event.
	MaxCPUSeconds float64
	// Resubmit requests the manager to re-queue killed work.
	Resubmit bool
	// OnKill fires for every kill with the query ID and whether resubmission
	// was requested.
	OnKill func(id int64, resubmit bool)
	// CheckEvery is the monitor period (default 500ms).
	CheckEvery sim.Duration
	// Flight, when non-nil, records each kill in the flight recorder
	// (KindCtlAction, reason kill/kill-resubmit).
	Flight *obsv.Recorder

	managed managed
	kills   int64
}

// NewKiller returns a cancellation controller.
func NewKiller(e *engine.Engine, maxElapsedSeconds float64) *Killer {
	return &Killer{Engine: e, MaxElapsedSeconds: maxElapsedSeconds}
}

// Manage registers the query with the given ID for cancellation monitoring.
func (k *Killer) Manage(id int64) {
	k.managed.add(id, k, k.Engine, k.CheckEvery, 500*sim.Millisecond)
}

// Kills reports the number of cancellations performed.
func (k *Killer) Kills() int64 { return k.kills }

func (k *Killer) sweep() {
	now := k.Engine.Now()
	k.managed.each(k.Engine, func(q *engine.Query, _ *managedQuery) bool {
		elapsed := now.Sub(q.SubmittedAt()).Seconds()
		kill := k.MaxElapsedSeconds > 0 && elapsed > k.MaxElapsedSeconds ||
			k.MaxRows > 0 && q.RowsReturned() > k.MaxRows ||
			k.MaxCPUSeconds > 0 && q.CPUDone() > k.MaxCPUSeconds
		if !kill {
			return true
		}
		id := q.ID
		if err := k.Engine.Kill(id); err != nil {
			return false
		}
		k.kills++
		if k.Flight != nil {
			reason := obsv.ReasonKill
			if k.Resubmit {
				reason = obsv.ReasonKillResubmit
			}
			k.Flight.Record(obsv.Event{At: int64(now) * 1000, QID: id,
				Kind: obsv.KindCtlAction, Reason: reason,
				Verdict: obsv.NoVerdict, Class: obsv.NoClass, Value: elapsed})
		}
		if k.OnKill != nil {
			k.OnKill(id, k.Resubmit)
		}
		return false
	})
}
