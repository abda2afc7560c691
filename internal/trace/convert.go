package trace

import (
	"slices"

	"dbwlm/internal/engine"
	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
	"dbwlm/internal/sqlmini"
	"dbwlm/internal/workload"
)

// Conversions between trace rows and the live workload.Request model, plus
// the Recorder that captures any running workload (synthetic generators, a
// simulated run, a replayed trace) into rows.

// RowFromRequest flattens a request into a trace row for class index class.
// SQL is copied; the fingerprint is computed from it when present so a
// fingerprint-only consumer (or a later SQL-stripping pass) has it.
func RowFromRequest(r *workload.Request, class uint16) Row {
	row := Row{
		ID:              r.ID,
		ArriveUS:        int64(r.Arrive),
		Weight:          1,
		Class:           class,
		Priority:        uint8(r.Priority),
		EstCPUSeconds:   r.Est.CPUSeconds,
		EstIOMB:         r.Est.IOMB,
		EstMemMB:        r.Est.MemMB,
		EstRows:         r.Est.Rows,
		EstTimerons:     r.Est.Timerons,
		CPUWork:         r.True.CPUWork,
		IOWork:          r.True.IOWork,
		MemMB:           r.True.MemMB,
		Parallelism:     r.True.Parallelism,
		Rows:            r.True.Rows,
		StateMB:         r.True.StateMB,
		CheckpointEvery: r.True.CheckpointEvery,
		SLOKind:         uint8(r.SLO.Kind),
		SLOTarget:       r.SLO.Target,
		SLOPct:          r.SLO.Percentile,
	}
	if r.Type == sqlmini.StmtRead {
		row.Flags |= FlagRead
	}
	if len(r.SQL) > 0 {
		row.SQL = slices.Clone(r.SQL)
		fp := sqlmini.FingerprintSQL(string(r.SQL))
		row.FPHi, row.FPLo = fp.Hi, fp.Lo
	}
	if len(r.True.Locks) > 0 {
		row.Locks = make([]Lock, len(r.True.Locks))
		for i, l := range r.True.Locks {
			row.Locks[i] = Lock{Key: int64(l.Key), AtProgress: l.AtProgress, Exclusive: l.Exclusive}
		}
	}
	return row
}

// Request reconstitutes a workload request from the row. The workload name
// comes from the header's class table; SQL is re-parsed when present (a row
// whose SQL no longer parses keeps a nil statement and falls back to the
// recorded read/write flag). The returned request owns fresh copies of every
// buffer-backed field, so the row may be reused.
func (row *Row) Request(h *Header) *workload.Request {
	req := &workload.Request{
		ID:       row.ID,
		Workload: h.ClassName(row.Class),
		Priority: policy.Priority(row.Priority),
		SLO: policy.SLO{
			Kind:       policy.SLOKind(row.SLOKind),
			Target:     row.SLOTarget,
			Percentile: row.SLOPct,
		},
		Arrive: sim.Time(row.ArriveUS),
		Est: workload.Estimates{
			CPUSeconds: row.EstCPUSeconds,
			IOMB:       row.EstIOMB,
			MemMB:      row.EstMemMB,
			Rows:       row.EstRows,
			Timerons:   row.EstTimerons,
		},
		True: row.Spec(),
	}
	if row.Flags&FlagRead != 0 {
		req.Type = sqlmini.StmtRead
	} else {
		req.Type = sqlmini.StmtWrite
	}
	if len(row.SQL) > 0 {
		req.SQL = slices.Clone(row.SQL)
		if stmt, err := sqlmini.Parse(string(req.SQL)); err == nil {
			req.Type = stmt.Type
		}
	}
	return req
}

// Spec reconstitutes the engine work description, with a fresh lock slice.
func (row *Row) Spec() engine.QuerySpec {
	spec := engine.QuerySpec{
		CPUWork:         row.CPUWork,
		IOWork:          row.IOWork,
		MemMB:           row.MemMB,
		Parallelism:     row.Parallelism,
		Rows:            row.Rows,
		StateMB:         row.StateMB,
		CheckpointEvery: row.CheckpointEvery,
	}
	if len(row.Locks) > 0 {
		spec.Locks = make([]engine.LockReq, len(row.Locks))
		for i, l := range row.Locks {
			spec.Locks[i] = engine.LockReq{Key: int(l.Key), AtProgress: l.AtProgress, Exclusive: l.Exclusive}
		}
	}
	return spec
}

// Recorder accumulates submitted requests as trace rows, interning workload
// names into the class table in first-seen order. Wrap any generator set
// with workload.Record(gens, rec.Tap) to capture a run; set DurationUS (the
// run horizon) before writing the trace out.
type Recorder struct {
	DurationUS int64
	classes    []string
	index      map[string]uint16
	rows       []Row
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{index: make(map[string]uint16)}
}

// Tap is a workload.SubmitFunc hook: it records the request and returns.
func (rec *Recorder) Tap(r *workload.Request) {
	idx, ok := rec.index[r.Workload]
	if !ok {
		idx = uint16(len(rec.classes))
		rec.classes = append(rec.classes, r.Workload)
		rec.index[r.Workload] = idx
	}
	rec.rows = append(rec.rows, RowFromRequest(r, idx))
}

// Header returns the header for the recorded trace.
func (rec *Recorder) Header() Header {
	return Header{Version: Version, DurationUS: rec.DurationUS, Classes: rec.classes}
}

// Rows returns the recorded rows, in submission order (which is arrival
// order: the simulator fires events in time order).
func (rec *Recorder) Rows() []Row { return rec.rows }
