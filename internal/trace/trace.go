// Package trace defines the versioned workload-trace format and the tools
// that make recorded traffic a first-class workload source: a streaming
// binary reader/writer with zero-alloc row decode, a replay generator that
// feeds traces into the deterministic sim/engine substrate, and a
// divergence-bounded workload compressor in the style of Deep et al.,
// "Comprehensive and Efficient Workload Compression".
//
// A trace is a header (format version, recorded duration, class-name table)
// followed by rows sorted by arrival offset. Each row carries everything the
// workload manager sees before execution — arrival offset from the start of
// the trace, service class, SQL text or its 128-bit fingerprint, optimizer
// estimates, SLA — plus the true engine work so replays can execute, and a
// weight so a compressed trace can stand in for many original rows.
//
// There is one encoding: a length-prefixed binary format in the
// internal/wire codec style (multi-million-row traces decode at >1M
// rows/sec with zero allocations per row). It is strict — a malformed row
// is an error, never a guess — and canonical: re-encoding a decoded row
// reproduces the input bytes, a property the fuzz target pins.
package trace

import (
	"errors"
	"fmt"
	"io"
)

// Version is the current trace format version, carried in the header.
const Version = 1

// Row flag bits.
const (
	// FlagRead marks a read-only statement (SELECT); unset means write.
	FlagRead = 1 << 0

	// knownFlags is the mask of defined bits; decoders reject the rest so
	// future flags cannot be silently dropped by old readers.
	knownFlags = FlagRead
)

// Format limits. Decoders enforce them so a corrupt length field cannot ask
// for an absurd allocation.
const (
	// MaxSQLLen bounds the SQL text of one row.
	MaxSQLLen = 1 << 20
	// MaxLocks bounds the lock list of one row.
	MaxLocks = 1 << 12
	// MaxClasses bounds the header class table.
	MaxClasses = 1 << 12
	// MaxClassName bounds one class name.
	MaxClassName = 1 << 8
)

// Lock is one lock acquisition recorded for a row, mirroring
// engine.LockReq.
type Lock struct {
	Key        int64
	AtProgress float64
	Exclusive  bool
}

// Row is one request in a trace. Field groups, in the order the binary
// encoding packs them: identity and arrival, optimizer estimates (what
// admission control sees), true engine work (what replay executes), SLA,
// and the variable-length lock list and SQL text.
//
// After a streaming decode the SQL field sub-slices the reader's buffer and
// the Locks slice reuses caller scratch: both are valid only until the next
// Next call. Retain copies them out for rows that must outlive the stream.
type Row struct {
	// ID is the recorded request ID (informational; replay reassigns engine
	// query IDs in submission order).
	ID int64
	// ArriveUS is the arrival offset in microseconds from trace start. Rows
	// in a trace are sorted by (ArriveUS, ID).
	ArriveUS int64
	// Weight is how many original rows this row stands for; 1 in a recorded
	// trace, >= 1 in a compressed one. Non-positive weights are treated as 1.
	Weight float64
	// Class indexes the header's class-name table.
	Class uint16
	// Flags holds FlagRead and future bits.
	Flags uint8
	// Priority is the policy.Priority ordinal.
	Priority uint8

	// FPHi/FPLo carry the sqlmini 128-bit fingerprint when SQL is absent (or
	// precomputed); zero when unknown.
	FPHi, FPLo uint64

	// Optimizer estimates (workload.Estimates).
	EstCPUSeconds float64
	EstIOMB       float64
	EstMemMB      float64
	EstRows       float64
	EstTimerons   float64

	// True engine work (engine.QuerySpec, flattened).
	CPUWork         float64
	IOWork          float64
	MemMB           float64
	Parallelism     float64
	Rows            int64
	StateMB         float64
	CheckpointEvery float64

	// SLA (policy.SLO).
	SLOKind   uint8
	SLOTarget float64
	SLOPct    float64

	// Locks are the recorded lock acquisitions (transactions only).
	Locks []Lock
	// SQL is the statement text; empty when only the fingerprint was
	// recorded.
	SQL []byte
}

// Retain deep-copies the row's buffer-backed fields (SQL, Locks) so the row
// stays valid after the stream that produced it moves on.
func (r *Row) Retain() {
	if len(r.SQL) > 0 {
		r.SQL = append([]byte(nil), r.SQL...)
	} else {
		r.SQL = nil
	}
	if len(r.Locks) > 0 {
		r.Locks = append([]Lock(nil), r.Locks...)
	} else {
		r.Locks = nil
	}
}

// Header describes a trace: format version, the recorded duration (arrival
// offsets fall in [0, DurationUS]), and the class-name table rows index into.
type Header struct {
	Version    int
	DurationUS int64
	Classes    []string
}

// ClassName returns the name for a class index, or a synthesized placeholder
// when the index is outside the table.
func (h *Header) ClassName(idx uint16) string {
	if int(idx) < len(h.Classes) {
		return h.Classes[idx]
	}
	return fmt.Sprintf("class%d", idx)
}

// Source is a stream of trace rows. Next fills the caller's row and returns
// io.EOF at end of trace; any other error is a malformed or unreadable
// trace. Buffer-backed row fields (SQL, Locks) are valid only until the next
// Next call — Retain them to keep them.
type Source interface {
	Header() Header
	Next(*Row) error
}

// SliceSource adapts an in-memory row slice to the Source interface.
type SliceSource struct {
	H    Header
	Rows []Row
	pos  int
}

// Header implements Source.
func (s *SliceSource) Header() Header { return s.H }

// Next implements Source.
func (s *SliceSource) Next(row *Row) error {
	if s.pos >= len(s.Rows) {
		return io.EOF
	}
	*row = s.Rows[s.pos]
	s.pos++
	return nil
}

// Reset rewinds the source to the first row.
func (s *SliceSource) Reset() { s.pos = 0 }

// ReadAll drains a source into memory, retaining every row.
func ReadAll(src Source) ([]Row, error) {
	var rows []Row
	var row Row
	for {
		if err := src.Next(&row); err != nil {
			if errors.Is(err, io.EOF) {
				return rows, nil
			}
			return nil, err
		}
		keep := row
		keep.Retain()
		rows = append(rows, keep)
	}
}
