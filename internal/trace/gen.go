package trace

import (
	"io"

	"dbwlm/internal/sim"
	"dbwlm/internal/workload"
)

// Gen replays a trace as a workload.Generator, mapping recorded arrival
// offsets onto the simulator's virtual clock. It streams: rows are pulled
// from the Source one at a time as virtual time advances, so a multi-
// million-row trace replays in O(1) memory, and the arrival chain runs on
// detached events so it allocates no Event garbage.
//
// Event ordering is chosen to reproduce a recorded run exactly: the chain
// schedules the NEXT row's arrival before submitting the current request, so
// a burst of rows sharing one timestamp is fully submitted before any engine
// event at that instant fires — the same order a generator submitting the
// burst from a single callback produces. Rows must be sorted by arrival
// offset (recorded traces are: the recorder sees submissions in event-time
// order).
type Gen struct {
	// Src supplies the rows. The generator reads it once; it is not rewound.
	Src Source

	err error
}

// NewGen returns a generator replaying src in recorded time.
func NewGen(src Source) *Gen { return &Gen{Src: src} }

// Name implements workload.Generator.
func (g *Gen) Name() string { return "trace" }

// Err reports the first row-decode error hit during replay (replay stops at
// it); nil after a clean run.
func (g *Gen) Err() error { return g.err }

// Start implements workload.Generator.
func (g *Gen) Start(s *sim.Simulator, horizon sim.Time, submit workload.SubmitFunc) {
	h := g.Src.Header()
	var row Row
	var pending *workload.Request
	var at sim.Time
	advance := func() bool {
		if err := g.Src.Next(&row); err != nil {
			if err != io.EOF {
				g.err = err
			}
			return false
		}
		at = sim.Time(row.ArriveUS)
		if at > horizon {
			return false
		}
		pending = row.Request(&h)
		pending.Arrive = at
		return true
	}
	var fire func()
	fire = func() {
		req := pending
		if advance() {
			s.AtDetached(at, fire)
		}
		submit(req)
	}
	if advance() {
		s.AtDetached(at, fire)
	}
}
