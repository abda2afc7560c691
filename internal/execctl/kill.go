package execctl

import (
	"dbwlm/internal/engine"
	"dbwlm/internal/sim"
)

// killCheckEvery is the Killer's monitor period.
const killCheckEvery = 500 * sim.Millisecond

// Killer implements query cancellation (Table 3, row 3): a managed query
// whose elapsed time or consumed work exceeds its limit is killed, releasing
// its resources immediately. The workload manager sees the kill as the
// query's outcome and may queue the request again (the "kill-and-resubmit"
// action of Krompass et al. [39], dbwlm.Manager.Resubmit).
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

	managed managed
	kills   int64
}

// NewKiller returns a cancellation controller.
func NewKiller(e *engine.Engine, maxElapsedSeconds float64) *Killer {
	return &Killer{Engine: e, MaxElapsedSeconds: maxElapsedSeconds}
}

// Manage registers the query with the given ID for cancellation monitoring.
func (k *Killer) Manage(id int64) {
	k.managed.add(id, k, k.Engine, killCheckEvery)
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
		if k.Engine.Kill(q.ID) == nil {
			k.kills++
		}
		return false
	})
}
