package bench

import (
	"fmt"

	"dbwlm/internal/wire"
)

// grant is one outstanding admission a later done op releases.
type grant struct {
	class, shard, gshard uint16
	start, qid           int64
	fpHi, fpLo           uint64
}

// sentFrame is what the generator remembers about a frame in flight, so the
// reply can be checked against the expectations the frame was built from.
type sentFrame struct {
	at     int64 // send time, nanoseconds from the run origin
	block  int32
	nAdmit int32
	nDone  int32
}

// Tally counts one connection's outcomes. Every field is written only by
// the goroutine that owns the connection.
type Tally struct {
	Frames       int64
	Attempted    int64 // operations sent
	Admitted     int64
	RejectedCost int64
	RejectedFull int64
	Released     int64
	UncachedFP   int64 // fingerprint admits the daemon had evicted: expected, not a decision
	Unexpected   int64 // operations whose outcome contradicts the generator's expectation
	WantRejCost  int64 // admits generated above the cost cap
	CacheHits    int64 // prediction results flagged FlagCacheHit
	Predicted    int64 // prediction results (SQL + fingerprint admits answered)
	ViaText      int64 // of those, admits that carried the statement text
	ReqBytes     int64
	RespBytes    int64
	PerClass     [3]int64 // admitted, by class ID
	FirstBad     string   // first unexpected outcome, for the failure message
}

// Decisions is the count the throughput metric divides by wall time:
// verdicts and releases received.
func (t *Tally) Decisions() int64 {
	return t.Admitted + t.RejectedCost + t.RejectedFull + t.Released
}

// Add folds another connection's tally in.
func (t *Tally) Add(o *Tally) {
	t.Frames += o.Frames
	t.Attempted += o.Attempted
	t.Admitted += o.Admitted
	t.RejectedCost += o.RejectedCost
	t.RejectedFull += o.RejectedFull
	t.Released += o.Released
	t.UncachedFP += o.UncachedFP
	t.Unexpected += o.Unexpected
	t.WantRejCost += o.WantRejCost
	t.CacheHits += o.CacheHits
	t.Predicted += o.Predicted
	t.ViaText += o.ViaText
	t.ReqBytes += o.ReqBytes
	t.RespBytes += o.RespBytes
	for i := range t.PerClass {
		t.PerClass[i] += o.PerClass[i]
	}
	if t.FirstBad == "" {
		t.FirstBad = o.FirstBad
	}
}

// fpKnown is a fingerprint the connection learned from an admit result.
type fpKnown struct {
	hi, lo uint64
	ok     bool
}

// connGen is one connection's generator state: it turns the pre-built admit
// blocks and the pool of outstanding grants into request frames, and checks
// every reply. It does no I/O and takes no clock, so the live loop, the
// traced in-process stage pass and the tests all drive the same code. The
// measured path copies template ops and patches grant fields into done ops:
// no RNG, no lock, no allocation once the scratch slices are warm.
type connGen struct {
	in     *ConnInputs
	shapes []Shape
	shape  LoadShape
	next   int // next admit block
	pool   []grant
	known  []fpKnown // SQL workload: per shape, the fingerprint learned so far
	ops    []wire.Op
	buf    []byte
	res    wire.BatchRes
	tally  Tally
}

func newConnGen(in *Inputs, conn int) *connGen {
	g := &connGen{
		in:     &in.Conns[conn],
		shapes: in.Shapes,
		shape:  in.Shape,
		pool:   make([]grant, 0, 4*in.Shape.Batch*in.Shape.Depth),
		ops:    make([]wire.Op, 0, in.Shape.Batch),
	}
	if len(in.Shapes) > 0 {
		g.known = make([]fpKnown, len(in.Shapes))
	}
	return g
}

// buildFrame composes the next request frame: done ops for outstanding
// grants (at most MaxDone, newest first) and admits from the next block for
// the rest of the batch. At batch 1 that alternates one admit with its done
// — wlmload's buildFrame puts dones only at odd slot indexes, which a
// one-slot frame does not have, so its batch-1 stream never releases
// anything and measures a full gate. With admits false the frame is a drain
// frame of dones alone; ok is false when there is nothing left to send.
func (g *connGen) buildFrame(admits bool) (payload []byte, meta sentFrame, ok bool, err error) {
	nDone := min(len(g.pool), g.shape.MaxDone)
	nAdmit := 0
	if admits {
		nAdmit = g.shape.Batch - nDone
	}
	if nAdmit+nDone == 0 {
		return nil, meta, false, nil
	}
	blk := g.in.Blocks[g.next]
	meta = sentFrame{block: int32(g.next), nAdmit: int32(nAdmit), nDone: int32(nDone)}
	if nAdmit > 0 {
		g.next = (g.next + 1) % len(g.in.Blocks)
	}
	g.ops = g.ops[:0]
	for i := 0; i < nAdmit; i++ {
		s := &blk[i]
		op := s.op
		if s.viaFP {
			if k := g.known[s.shape]; k.ok {
				op = wire.Op{Code: wire.OpAdmitFP, Class: op.Class, DeadlineNS: op.DeadlineNS,
					FPHi: k.hi, FPLo: k.lo}
			}
		}
		if s.expect == expRejectCost {
			g.tally.WantRejCost++
		}
		g.ops = append(g.ops, op)
	}
	for i := 0; i < nDone; i++ {
		gr := g.pool[len(g.pool)-1-i]
		g.ops = append(g.ops, wire.Op{Code: wire.OpDone, Class: gr.class, Shard: gr.shard,
			GShard: gr.gshard, Start: gr.start, QID: gr.qid, FPHi: gr.fpHi, FPLo: gr.fpLo})
	}
	g.pool = g.pool[:len(g.pool)-nDone]
	g.buf, err = wire.EncodeRequest(g.buf, g.ops)
	if err != nil {
		return nil, meta, false, err
	}
	g.tally.Frames++
	g.tally.Attempted += int64(nAdmit + nDone)
	g.tally.ReqBytes += int64(len(g.buf))
	return g.buf, meta, true, nil
}

// absorb decodes one response payload, checks each result against the
// expectation its slot was generated with, and collects fresh grants. It
// returns the number of decisions the frame carried. A frame the codec
// rejects is a protocol error and fails the run.
func (g *connGen) absorb(meta sentFrame, payload []byte) (int32, error) {
	if err := wire.DecodeResponse(payload, &g.res); err != nil {
		return 0, err
	}
	results := g.res.Results
	if len(results) != int(meta.nAdmit+meta.nDone) {
		return 0, fmt.Errorf("bench: response carries %d results for %d ops", len(results), meta.nAdmit+meta.nDone)
	}
	g.tally.RespBytes += int64(len(payload))
	blk := g.in.Blocks[meta.block]
	var decisions int32
	for i := range results {
		r := &results[i]
		if i >= int(meta.nAdmit) {
			if r.Code == wire.OpDone && r.Status == wire.StatusReleased {
				g.tally.Released++
				decisions++
			} else {
				g.unexpected(r, "done")
			}
			continue
		}
		s := &blk[i]
		predict := r.Code == wire.OpAdmitSQL || r.Code == wire.OpAdmitFP
		if predict && r.Status != wire.StatusUncachedFP {
			g.tally.Predicted++
			if r.Code == wire.OpAdmitSQL {
				g.tally.ViaText++
			}
			if r.Flags&wire.FlagCacheHit != 0 {
				g.tally.CacheHits++
			}
		}
		switch r.Status {
		case wire.StatusAdmitted:
			if s.expect == expRejectCost || !g.checkPrediction(s, r, predict) {
				g.unexpected(r, "admit")
				// The grant is still real: release it so the daemon drains.
			}
			g.tally.Admitted++
			if int(r.Class) < len(g.tally.PerClass) {
				g.tally.PerClass[r.Class]++
			}
			decisions++
			g.pool = append(g.pool, grant{class: r.Class, shard: r.Shard, gshard: r.GShard,
				start: r.Start, qid: r.QID, fpHi: r.FPHi, fpLo: r.FPLo})
		case wire.StatusRejectedCost:
			if s.expect != expRejectCost {
				g.unexpected(r, "admit")
			}
			g.tally.RejectedCost++
			decisions++
		case wire.StatusRejectedTimeout:
			if s.expect != expAdmitOrFull {
				g.unexpected(r, "admit")
			}
			g.tally.RejectedFull++
			decisions++
		case wire.StatusUncachedFP:
			if r.Code != wire.OpAdmitFP {
				g.unexpected(r, "admit")
				continue
			}
			// The daemon evicted the shape: forget the fingerprint so the
			// next draw of this shape falls back to sending the text.
			g.known[s.shape].ok = false
			g.tally.UncachedFP++
		default:
			g.unexpected(r, "admit")
		}
	}
	return decisions, nil
}

// checkPrediction compares a prediction result's fingerprint and cost with
// the values derived in-process from sqlmini for the slot's shape, and
// learns the fingerprint for later re-admits.
func (g *connGen) checkPrediction(s *slot, r *wire.Result, predict bool) bool {
	if s.shape < 0 {
		return !predict
	}
	sh := &g.shapes[s.shape]
	if !predict || r.FPHi != sh.FP.Hi || r.FPLo != sh.FP.Lo || r.Cost != sh.Cost {
		return false
	}
	g.known[s.shape] = fpKnown{hi: r.FPHi, lo: r.FPLo, ok: true}
	return true
}

func (g *connGen) unexpected(r *wire.Result, what string) {
	g.tally.Unexpected++
	if g.tally.FirstBad == "" {
		g.tally.FirstBad = fmt.Sprintf("%s op %s answered %s", what, r.Code, r.Status)
	}
}
