package wire

import (
	"dbwlm/internal/rt"
	"dbwlm/internal/sqlmini"
)

// Dispatcher is the daemon's one decision path: every transport is a codec
// that turns a request into Ops, calls Dispatch, and renders the Results. The
// TCP listener and HTTP /batch carry whole frames through ServeFrame; HTTP
// /admit and /done build one Op from their form fields. One op stream so
// produces identical verdicts, grant accounting, and flight-recorder events
// whichever transport carried it (rthttp's replay-equivalence test pins it).
//
// A Dispatcher is stateless and safe for concurrent use; per-connection
// scratch lives with the connection, not here.
type Dispatcher struct {
	// RT is the admission runtime every op lands in.
	RT *rt.Runtime
	// Predict serves OpAdmitSQL/OpAdmitFP and fingerprint training on
	// OpDone; nil reports StatusNoPredict for those ops (plain OpAdmit and
	// OpDone still work).
	Predict *rt.PredictGate
}

// Dispatch runs every op in order and fills res (reused across calls,
// index-aligned with ops) with one result per op. Ops run sequentially —
// batching amortizes transport cost, it does not reorder decisions — so a
// blocking op (deadline 0, gate full) delays the ops behind it exactly as N
// pipelined single-op calls on one connection would.
//
// The steady-state path — open gate, cache hits, no training — allocates
// nothing.
//
//dbwlm:hotpath
func (d *Dispatcher) Dispatch(ops []Op, res []Result) []Result {
	res = growResults(res, len(ops))
	for i := range ops {
		d.dispatchOne(&ops[i], &res[i])
	}
	return res
}

// FrameState is ServeFrame's reusable scratch: the decoded batch, the result
// slice, and the response payload buffer persist across frames, so a
// persistent connection serves its steady state without allocating. (HTTP
// /batch, whose per-request cost dwarfs the scratch, uses a fresh one.)
type FrameState struct {
	req BatchReq
	res []Result
	out []byte
}

// ServeFrame is everything between two transports' framing: decode one
// request payload, dispatch its ops, encode the response payload. The
// returned slice aliases st and is valid until st is next used. An error
// means the payload was malformed and rejected whole, before any op ran.
//
//dbwlm:hotpath
func (d *Dispatcher) ServeFrame(payload []byte, st *FrameState) ([]byte, error) {
	if err := DecodeRequest(payload, &st.req); err != nil {
		return nil, err
	}
	st.res = d.Dispatch(st.req.Ops, st.res)
	var err error
	st.out, err = EncodeResponse(st.out, st.res)
	return st.out, err
}

// dispatchOne executes one op into one result.
//
//dbwlm:hotpath
func (d *Dispatcher) dispatchOne(op *Op, r *Result) {
	*r = Result{Code: op.Code}
	switch op.Code {
	case OpAdmit:
		if int(op.Class) >= d.RT.NumClasses() {
			r.Status = StatusBadClass
			return
		}
		var g rt.Grant
		if op.DeadlineNS > 0 {
			g = d.RT.AdmitNoWait(rt.ClassID(op.Class), op.Cost)
		} else {
			g = d.RT.Admit(rt.ClassID(op.Class), op.Cost)
		}
		r.Cost = op.Cost
		d.fillGrant(g, r)
	case OpAdmitSQL, OpAdmitFP:
		d.dispatchPredict(op, r)
	case OpDone:
		g, ok := d.RT.GrantFromParts(rt.ClassID(op.Class), int32(op.Shard),
			int32(op.GShard), op.Start, op.QID)
		if !ok {
			r.Status = StatusBadGrant
			return
		}
		r.QID = op.QID
		if d.Predict != nil && (op.FPHi != 0 || op.FPLo != 0) {
			elapsed := d.RT.ElapsedSeconds(g)
			d.RT.Done(g, op.Ideal)
			//dbwlm:nolint hotpath -- training ingest: the predictor takes its stripe lock and its observation ring grows by design; observation is off the admit fast path
			d.Predict.ObserveFP(sqlmini.Fingerprint{Hi: op.FPHi, Lo: op.FPLo}, elapsed)
		} else {
			d.RT.Done(g, op.Ideal)
		}
		r.Status = StatusReleased
	default:
		// DecodeRequest rejects unknown codes; a hand-built Op reports here.
		r.Status = StatusBadGrant
	}
}

// dispatchPredict executes the two prediction-based admit ops.
//
//dbwlm:hotpath
func (d *Dispatcher) dispatchPredict(op *Op, r *Result) {
	if d.Predict == nil {
		r.Status = StatusNoPredict
		return
	}
	if int(op.Class) >= d.RT.NumClasses() {
		r.Status = StatusBadClass
		return
	}
	class, wait := rt.ClassID(op.Class), op.DeadlineNS <= 0
	var (
		g    rt.Grant
		pred rt.Prediction
		err  error
	)
	if op.Code == OpAdmitFP {
		var cached bool
		g, pred, cached = d.Predict.AdmitFP(class,
			sqlmini.Fingerprint{Hi: op.FPHi, Lo: op.FPLo}, wait)
		if !cached {
			r.Status = StatusUncachedFP
			return
		}
	} else {
		g, pred, err = d.Predict.AdmitSQLBytes(class, op.SQL, wait)
		if err != nil {
			r.Status = StatusParseError
			return
		}
	}
	r.Cost = pred.Timerons
	r.Predicted = pred.Seconds
	r.FPHi, r.FPLo = pred.FP.Hi, pred.FP.Lo
	if pred.Modeled {
		r.Flags |= FlagModeled
	}
	if pred.CacheHit {
		r.Flags |= FlagCacheHit
	}
	d.fillGrant(g, r)
}

// fillGrant maps a runtime grant onto the wire result.
//
//dbwlm:hotpath
func (d *Dispatcher) fillGrant(g rt.Grant, r *Result) {
	class, shard, gshard, start, id, admitted := g.Parts()
	r.Status = Status(g.Verdict())
	r.QID = id
	if admitted {
		r.Class = uint16(class)
		r.Shard = uint16(shard)
		r.GShard = uint16(gshard)
		r.Start = start
	}
}
