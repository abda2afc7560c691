// Package wire is the batched binary admission transport: one frame carries
// many admit/done/predict-admit operations and returns one verdict per
// operation, so the per-decision cost of the control plane amortizes down to
// the gate cost itself instead of a full HTTP request per decision
// (DESIGN.md §11, "The wire at scale").
//
// The codec is deliberately primitive: a fixed five-byte header, a flat
// little-endian operation stream, no compression, no reflection, no JSON.
// Encode and decode work into caller-provided scratch buffers and allocate
// nothing once those buffers are warm; decoded SQL text is a sub-slice of the
// input frame, never a copy. The same payload travels two ways:
//
//   - over a persistent TCP connection (Serve / cmd/wlmd -wire-addr), each
//     payload preceded by a little-endian uint32 length;
//   - as the body of POST /batch on the HTTP daemon, where HTTP itself
//     delimits the frame.
//
// Versioning rules: the first payload byte is a magic constant and the second
// a format version. A decoder rejects frames whose magic or version it does
// not know — there is no negotiation, because admission clients and daemons
// deploy together; a format change bumps Version and old daemons refuse new
// frames loudly instead of misparsing them. Unknown op codes within a known
// version are likewise a hard decode error: a frame is either fully
// understood or fully rejected, never half-applied.
package wire

import (
	"fmt"

	"dbwlm/internal/le"
)

// Frame header bytes.
const (
	// Magic is the first byte of every payload.
	Magic = 0xD7
	// Version is the frame-format version this package encodes and the only
	// one it decodes.
	Version = 1

	// kindRequest/kindResponse discriminate the two payload directions so a
	// confused client cannot feed a response back as a request.
	kindRequest  = 1
	kindResponse = 2

	headerLen = 5 // magic, version, kind, count u16
)

// Limits. Oversized frames are rejected at decode before any dispatch.
const (
	// MaxOps caps the operations in one frame (the count field is u16).
	MaxOps = 1 << 12
	// MaxSQLLen caps one operation's SQL text.
	MaxSQLLen = 1 << 20
	// MaxFrame caps a whole payload; the TCP listener refuses larger length
	// prefixes without reading the body.
	MaxFrame = 1 << 24
)

// OpCode discriminates the operations a request frame carries.
type OpCode uint8

// Operation codes.
const (
	// OpAdmit is cost-based admission: class, cost, deadline.
	OpAdmit OpCode = 1
	// OpDone releases an admitted grant, optionally training the predictor
	// when the op carries the statement fingerprint from the admit result.
	OpDone OpCode = 2
	// OpAdmitSQL is prediction-based admission on raw SQL text.
	OpAdmitSQL OpCode = 3
	// OpAdmitFP is prediction-based admission by statement fingerprint alone:
	// it admits only shapes already interned in the plan cache (the repeat
	// traffic that dominates a steady workload) and fails with
	// StatusUncachedFP otherwise, so the client falls back to OpAdmitSQL.
	OpAdmitFP OpCode = 4
)

// String names the op code.
func (c OpCode) String() string {
	switch c {
	case OpAdmit:
		return "admit"
	case OpDone:
		return "done"
	case OpAdmitSQL:
		return "admit-sql"
	case OpAdmitFP:
		return "admit-fp"
	default:
		return fmt.Sprintf("OpCode(%d)", int(c))
	}
}

// Status is the per-operation outcome in a response frame. The first four
// values mirror rt.Verdict numerically so the dispatcher converts with a
// cast; the rest are wire-level outcomes a single-op HTTP call would have
// reported as an HTTP error.
type Status uint8

// Statuses.
const (
	// StatusAdmitted .. StatusRejectedPredicted mirror rt.Verdict.
	StatusAdmitted          Status = 0
	StatusRejectedCost      Status = 1
	StatusRejectedTimeout   Status = 2
	StatusRejectedPredicted Status = 3

	// StatusReleased is a successful OpDone.
	StatusReleased Status = 16
	// StatusBadClass: the op named a class outside the runtime's table.
	StatusBadClass Status = 17
	// StatusParseError: OpAdmitSQL text the mini-SQL parser rejected.
	StatusParseError Status = 18
	// StatusUncachedFP: OpAdmitFP fingerprint not interned in the plan cache.
	StatusUncachedFP Status = 19
	// StatusBadGrant: OpDone carried grant fields that do not name a valid
	// slot (corrupt or replayed grant).
	StatusBadGrant Status = 20
	// StatusNoPredict: a predict op reached a daemon without a prediction
	// gate.
	StatusNoPredict Status = 21
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusAdmitted:
		return "admitted"
	case StatusRejectedCost:
		return "rejected-cost"
	case StatusRejectedTimeout:
		return "rejected-timeout"
	case StatusRejectedPredicted:
		return "rejected-predicted"
	case StatusReleased:
		return "released"
	case StatusBadClass:
		return "bad-class"
	case StatusParseError:
		return "parse-error"
	case StatusUncachedFP:
		return "uncached-fp"
	case StatusBadGrant:
		return "bad-grant"
	case StatusNoPredict:
		return "no-predict"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Rejected reports whether the status is an admission rejection (as opposed
// to admitted, released, or a wire-level error).
func (s Status) Rejected() bool {
	return s == StatusRejectedCost || s == StatusRejectedTimeout || s == StatusRejectedPredicted
}

// Op is one decoded request operation. SQL aliases the frame buffer it was
// decoded from and is valid only until that buffer is reused; the dispatcher
// consumes it before returning, and the plan cache copies on insert, so
// nothing durable ever points into a connection buffer.
type Op struct {
	Code  OpCode
	Class uint16
	// Cost is the caller-supplied cost estimate (OpAdmit).
	Cost float64
	// DeadlineNS is the op's wait budget in nanoseconds. 0 blocks while
	// queued, exactly like a single-op HTTP admit. Any positive value means
	// try-don't-wait: the batch cannot park one op without stalling every op
	// behind it in the frame, so a full gate rejects with
	// StatusRejectedTimeout immediately and the client decides whether to
	// retry on a later frame.
	DeadlineNS int64
	// SQL is the raw statement text (OpAdmitSQL).
	SQL []byte
	// FPHi/FPLo carry the statement fingerprint (OpAdmitFP; optional on
	// OpDone, where a nonzero fingerprint asks the daemon to train the
	// predictor on the observed service time).
	FPHi, FPLo uint64
	// Grant fields returned by a prior admit result (OpDone).
	GShard uint16
	Shard  uint16
	Start  int64
	QID    int64
	// Ideal is the request's ideal stand-alone seconds (OpDone; 0 unknown).
	Ideal float64
}

// Result is one decoded response operation, index-aligned with the request's
// ops.
type Result struct {
	Code   OpCode
	Status Status
	// QID is the flight-recorder admission ID (0 when the recorder is off).
	QID int64
	// Grant fields, valid when Status == StatusAdmitted; the client echoes
	// them in the OpDone that releases the slot.
	Class  uint16
	Shard  uint16
	GShard uint16
	Start  int64
	// Cost is the effective cost the gate judged (admit ops).
	Cost float64
	// Predicted/FPHi/FPLo/Flags carry the prediction pipeline's output
	// (OpAdmitSQL / OpAdmitFP results only).
	Predicted  float64
	FPHi, FPLo uint64
	Flags      uint8
}

// Result flag bits.
const (
	// FlagModeled: a trained model produced Predicted.
	FlagModeled = 1 << 0
	// FlagCacheHit: the plan came from the fingerprint cache.
	FlagCacheHit = 1 << 1
)

// Per-op encoded sizes (code byte included).
const (
	opAdmitLen  = 1 + 2 + 8 + 8                     // code, class, cost, deadline
	opDoneLen   = 1 + 2 + 2 + 2 + 8 + 8 + 8 + 8 + 8 // code, class, shard, gshard, start, qid, ideal, fpHi, fpLo
	opSQLHead   = 1 + 2 + 8 + 4                     // code, class, deadline, sqlLen
	opFPLen     = 1 + 2 + 8 + 8 + 8                 // code, class, deadline, fpHi, fpLo
	resHeadLen  = 1 + 1 + 8                         // code, status, qid
	resGrantLen = 2 + 2 + 2 + 8                     // class, shard, gshard, start
	resCostLen  = 8                                 // cost
	resPredLen  = 8 + 8 + 8 + 1                     // predicted, fpHi, fpLo, flags
)

// opSize is the encoded size of one op.
//
//dbwlm:hotpath
func opSize(op *Op) int {
	switch op.Code {
	case OpAdmit:
		return opAdmitLen
	case OpDone:
		return opDoneLen
	case OpAdmitSQL:
		return opSQLHead + len(op.SQL)
	case OpAdmitFP:
		return opFPLen
	}
	return 0
}

// resSize is the encoded size of one result.
//
//dbwlm:hotpath
func resSize(r *Result) int {
	n := resHeadLen
	switch r.Code {
	case OpAdmit:
		n += resCostLen
	case OpAdmitSQL, OpAdmitFP:
		n += resCostLen + resPredLen
	}
	if r.Status == StatusAdmitted {
		n += resGrantLen
	}
	return n
}

// grow returns buf resized to n bytes, reallocating only when the capacity is
// short — the cold path of a warm scratch buffer.
//
//dbwlm:hotpath
func grow(buf []byte, n int) []byte {
	if cap(buf) < n {
		//dbwlm:nolint hotpath -- cold-buffer growth: runs until the caller's scratch buffer reaches its high-water mark, then never again
		return make([]byte, n)
	}
	return buf[:n]
}

// EncodeRequest encodes ops as one request payload into buf, reusing its
// backing array when large enough (allocation-free once warm). The returned
// slice is the exact payload; prepend the uint32 length yourself when writing
// to a raw stream (WriteFrame does).
//
//dbwlm:hotpath
func EncodeRequest(buf []byte, ops []Op) ([]byte, error) {
	if len(ops) > MaxOps {
		//dbwlm:nolint hotpath -- error construction on the reject path
		return buf, fmt.Errorf("wire: %d ops exceeds MaxOps %d", len(ops), MaxOps)
	}
	n := headerLen
	for i := range ops {
		s := opSize(&ops[i])
		if s == 0 {
			//dbwlm:nolint hotpath -- error construction on the reject path
			return buf, fmt.Errorf("wire: op %d has unknown code %d", i, ops[i].Code)
		}
		if len(ops[i].SQL) > MaxSQLLen {
			//dbwlm:nolint hotpath -- error construction on the reject path
			return buf, fmt.Errorf("wire: op %d SQL length %d exceeds %d", i, len(ops[i].SQL), MaxSQLLen)
		}
		n += s
	}
	if n > MaxFrame {
		//dbwlm:nolint hotpath -- error construction on the reject path
		return buf, fmt.Errorf("wire: frame size %d exceeds %d", n, MaxFrame)
	}
	buf = grow(buf, n)
	buf[0], buf[1], buf[2] = Magic, Version, kindRequest
	le.PutU16(buf, 3, uint16(len(ops)))
	off := headerLen
	for i := range ops {
		op := &ops[i]
		buf[off] = byte(op.Code)
		switch op.Code {
		case OpAdmit:
			le.PutU16(buf, off+1, op.Class)
			le.PutF64(buf, off+3, op.Cost)
			le.PutU64(buf, off+11, uint64(op.DeadlineNS))
			off += opAdmitLen
		case OpDone:
			le.PutU16(buf, off+1, op.Class)
			le.PutU16(buf, off+3, op.Shard)
			le.PutU16(buf, off+5, op.GShard)
			le.PutU64(buf, off+7, uint64(op.Start))
			le.PutU64(buf, off+15, uint64(op.QID))
			le.PutF64(buf, off+23, op.Ideal)
			le.PutU64(buf, off+31, op.FPHi)
			le.PutU64(buf, off+39, op.FPLo)
			off += opDoneLen
		case OpAdmitSQL:
			le.PutU16(buf, off+1, op.Class)
			le.PutU64(buf, off+3, uint64(op.DeadlineNS))
			le.PutU32(buf, off+11, uint32(len(op.SQL)))
			off += opSQLHead
			off += copy(buf[off:], op.SQL)
		case OpAdmitFP:
			le.PutU16(buf, off+1, op.Class)
			le.PutU64(buf, off+3, uint64(op.DeadlineNS))
			le.PutU64(buf, off+11, op.FPHi)
			le.PutU64(buf, off+19, op.FPLo)
			off += opFPLen
		}
	}
	return buf[:off], nil
}

// DecodeRequest decodes one request payload into req, reusing req.Ops across
// calls (allocation-free once warm). Decoded SQL sub-slices frame — see
// Op.SQL. Any structural violation rejects the whole frame.
//
//dbwlm:hotpath
func DecodeRequest(frame []byte, req *BatchReq) error {
	count, err := checkHeader(frame, kindRequest)
	if err != nil {
		return err
	}
	req.Ops = growOps(req.Ops, count)
	off := headerLen
	for i := 0; i < count; i++ {
		if off >= len(frame) {
			//dbwlm:nolint hotpath -- error construction on the reject path
			return fmt.Errorf("wire: truncated frame: op %d of %d starts past end", i, count)
		}
		op := &req.Ops[i]
		*op = Op{Code: OpCode(frame[off])}
		switch op.Code {
		case OpAdmit:
			if off+opAdmitLen > len(frame) {
				return errTruncated(i, count)
			}
			op.Class = le.U16(frame, off+1)
			op.Cost = le.F64(frame, off+3)
			op.DeadlineNS = int64(le.U64(frame, off+11))
			off += opAdmitLen
		case OpDone:
			if off+opDoneLen > len(frame) {
				return errTruncated(i, count)
			}
			op.Class = le.U16(frame, off+1)
			op.Shard = le.U16(frame, off+3)
			op.GShard = le.U16(frame, off+5)
			op.Start = int64(le.U64(frame, off+7))
			op.QID = int64(le.U64(frame, off+15))
			op.Ideal = le.F64(frame, off+23)
			op.FPHi = le.U64(frame, off+31)
			op.FPLo = le.U64(frame, off+39)
			off += opDoneLen
		case OpAdmitSQL:
			if off+opSQLHead > len(frame) {
				return errTruncated(i, count)
			}
			op.Class = le.U16(frame, off+1)
			op.DeadlineNS = int64(le.U64(frame, off+3))
			n := int(le.U32(frame, off+11))
			if n > MaxSQLLen {
				//dbwlm:nolint hotpath -- error construction on the reject path
				return fmt.Errorf("wire: op %d SQL length %d exceeds %d", i, n, MaxSQLLen)
			}
			off += opSQLHead
			if off+n > len(frame) {
				return errTruncated(i, count)
			}
			op.SQL = frame[off : off+n : off+n]
			off += n
		case OpAdmitFP:
			if off+opFPLen > len(frame) {
				return errTruncated(i, count)
			}
			op.Class = le.U16(frame, off+1)
			op.DeadlineNS = int64(le.U64(frame, off+3))
			op.FPHi = le.U64(frame, off+11)
			op.FPLo = le.U64(frame, off+19)
			off += opFPLen
		default:
			//dbwlm:nolint hotpath -- error construction on the reject path
			return fmt.Errorf("wire: op %d has unknown code %d", i, frame[off])
		}
	}
	if off != len(frame) {
		//dbwlm:nolint hotpath -- error construction on the reject path
		return fmt.Errorf("wire: %d trailing bytes after %d ops", len(frame)-off, count)
	}
	return nil
}

// EncodeResponse encodes results as one response payload into buf, reusing
// its backing array when large enough.
//
//dbwlm:hotpath
func EncodeResponse(buf []byte, results []Result) ([]byte, error) {
	if len(results) > MaxOps {
		//dbwlm:nolint hotpath -- error construction on the reject path
		return buf, fmt.Errorf("wire: %d results exceeds MaxOps %d", len(results), MaxOps)
	}
	n := headerLen
	for i := range results {
		n += resSize(&results[i])
	}
	buf = grow(buf, n)
	buf[0], buf[1], buf[2] = Magic, Version, kindResponse
	le.PutU16(buf, 3, uint16(len(results)))
	off := headerLen
	for i := range results {
		r := &results[i]
		buf[off] = byte(r.Code)
		buf[off+1] = byte(r.Status)
		le.PutU64(buf, off+2, uint64(r.QID))
		off += resHeadLen
		switch r.Code {
		case OpAdmit:
			le.PutF64(buf, off, r.Cost)
			off += resCostLen
		case OpAdmitSQL, OpAdmitFP:
			le.PutF64(buf, off, r.Cost)
			le.PutF64(buf, off+8, r.Predicted)
			le.PutU64(buf, off+16, r.FPHi)
			le.PutU64(buf, off+24, r.FPLo)
			buf[off+32] = r.Flags
			off += resCostLen + resPredLen
		}
		if r.Status == StatusAdmitted {
			le.PutU16(buf, off, r.Class)
			le.PutU16(buf, off+2, r.Shard)
			le.PutU16(buf, off+4, r.GShard)
			le.PutU64(buf, off+6, uint64(r.Start))
			off += resGrantLen
		}
	}
	return buf[:off], nil
}

// DecodeResponse decodes one response payload into res, reusing res.Results
// across calls.
//
//dbwlm:hotpath
func DecodeResponse(frame []byte, res *BatchRes) error {
	count, err := checkHeader(frame, kindResponse)
	if err != nil {
		return err
	}
	res.Results = growResults(res.Results, count)
	off := headerLen
	for i := 0; i < count; i++ {
		if off+resHeadLen > len(frame) {
			return errTruncated(i, count)
		}
		r := &res.Results[i]
		*r = Result{Code: OpCode(frame[off]), Status: Status(frame[off+1]),
			QID: int64(le.U64(frame, off+2))}
		off += resHeadLen
		switch r.Code {
		case OpAdmit:
			if off+resCostLen > len(frame) {
				return errTruncated(i, count)
			}
			r.Cost = le.F64(frame, off)
			off += resCostLen
		case OpAdmitSQL, OpAdmitFP:
			if off+resCostLen+resPredLen > len(frame) {
				return errTruncated(i, count)
			}
			r.Cost = le.F64(frame, off)
			r.Predicted = le.F64(frame, off+8)
			r.FPHi = le.U64(frame, off+16)
			r.FPLo = le.U64(frame, off+24)
			r.Flags = frame[off+32]
			off += resCostLen + resPredLen
		case OpDone:
			// Head only.
		default:
			//dbwlm:nolint hotpath -- error construction on the reject path
			return fmt.Errorf("wire: result %d has unknown code %d", i, uint8(r.Code))
		}
		if r.Status == StatusAdmitted {
			if off+resGrantLen > len(frame) {
				return errTruncated(i, count)
			}
			r.Class = le.U16(frame, off)
			r.Shard = le.U16(frame, off+2)
			r.GShard = le.U16(frame, off+4)
			r.Start = int64(le.U64(frame, off+6))
			off += resGrantLen
		}
	}
	if off != len(frame) {
		//dbwlm:nolint hotpath -- error construction on the reject path
		return fmt.Errorf("wire: %d trailing bytes after %d results", len(frame)-off, count)
	}
	return nil
}

// BatchReq is a decoded request frame; reuse one across DecodeRequest calls
// so the op slice becomes a warm scratch buffer.
type BatchReq struct {
	Ops []Op
}

// BatchRes is a decoded response frame; reuse one across DecodeResponse
// calls.
type BatchRes struct {
	Results []Result
}

// checkHeader validates the fixed header and returns the op count.
//
//dbwlm:hotpath
func checkHeader(frame []byte, wantKind byte) (int, error) {
	if len(frame) < headerLen {
		//dbwlm:nolint hotpath -- error construction on the reject path
		return 0, fmt.Errorf("wire: frame of %d bytes shorter than header", len(frame))
	}
	if frame[0] != Magic {
		//dbwlm:nolint hotpath -- error construction on the reject path
		return 0, fmt.Errorf("wire: bad magic 0x%02x", frame[0])
	}
	if frame[1] != Version {
		//dbwlm:nolint hotpath -- error construction on the reject path
		return 0, fmt.Errorf("wire: unsupported version %d (want %d)", frame[1], Version)
	}
	if frame[2] != wantKind {
		//dbwlm:nolint hotpath -- error construction on the reject path
		return 0, fmt.Errorf("wire: payload kind %d, want %d", frame[2], wantKind)
	}
	count := int(le.U16(frame, 3))
	if count > MaxOps {
		//dbwlm:nolint hotpath -- error construction on the reject path
		return 0, fmt.Errorf("wire: count %d exceeds MaxOps %d", count, MaxOps)
	}
	if len(frame) > MaxFrame {
		//dbwlm:nolint hotpath -- error construction on the reject path
		return 0, fmt.Errorf("wire: frame size %d exceeds %d", len(frame), MaxFrame)
	}
	return count, nil
}

//dbwlm:hotpath
func errTruncated(i, count int) error {
	//dbwlm:nolint hotpath -- error construction on the reject path
	return fmt.Errorf("wire: truncated frame: op %d of %d cut short", i, count)
}

// growOps resizes a scratch op slice, reallocating only when short.
//
//dbwlm:hotpath
func growOps(ops []Op, n int) []Op {
	if cap(ops) < n {
		//dbwlm:nolint hotpath -- cold-buffer growth, bounded by MaxOps
		return make([]Op, n)
	}
	return ops[:n]
}

// growResults resizes a scratch result slice, reallocating only when short.
//
//dbwlm:hotpath
func growResults(res []Result, n int) []Result {
	if cap(res) < n {
		//dbwlm:nolint hotpath -- cold-buffer growth, bounded by MaxOps
		return make([]Result, n)
	}
	return res[:n]
}
