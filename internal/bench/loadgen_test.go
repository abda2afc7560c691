package bench

import (
	"testing"

	"dbwlm/internal/rthttp"
	"dbwlm/internal/wire"
)

func emptyStats() *rthttp.StatsResponse { return &rthttp.StatsResponse{} }

// drive pushes n frames from g through an in-process dispatcher, one at a
// time, and returns the op codes of every frame sent.
func drive(t *testing.T, g *connGen, disp *wire.Dispatcher, n int, admits bool) [][]wire.OpCode {
	t.Helper()
	var (
		req   wire.BatchReq
		res   []wire.Result
		out   []byte
		codes [][]wire.OpCode
	)
	for f := 0; f < n; f++ {
		payload, meta, ok, err := g.buildFrame(admits)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if err := wire.DecodeRequest(payload, &req); err != nil {
			t.Fatal(err)
		}
		var frame []wire.OpCode
		for _, op := range req.Ops {
			frame = append(frame, op.Code)
		}
		codes = append(codes, frame)
		res = disp.Dispatch(req.Ops, res)
		if out, err = wire.EncodeResponse(out, res[:len(req.Ops)]); err != nil {
			t.Fatal(err)
		}
		if _, err := g.absorb(meta, out); err != nil {
			t.Fatal(err)
		}
	}
	return codes
}

// Regression test for the flaw in cmd/wlmload's buildFrame: it emits a done
// only at odd slot indexes (i%2 == 1), which a one-op frame never has, so
// `wlmload -batch 1` sends 65 536 admits and then measures rejections from a
// full gate. This generator's batch-1 stream must alternate one admit with
// its done, and nothing may ever be rejected.
func TestBatchOneAlternatesAdmitAndDone(t *testing.T) {
	in, err := GenInputs(LiveRTT, 1)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := newInproc()
	if err != nil {
		t.Fatal(err)
	}
	g := newConnGen(in, 0)
	codes := drive(t, g, ip.disp, 1000, true)
	for f, frame := range codes {
		want := wire.OpAdmit
		if f%2 == 1 {
			want = wire.OpDone
		}
		if len(frame) != 1 || frame[0] != want {
			t.Fatalf("frame %d carries %v, want one %v", f, frame, want)
		}
	}
	tl := &g.tally
	if tl.Admitted != 500 || tl.Released != 500 || tl.RejectedFull != 0 || tl.Unexpected != 0 {
		t.Fatalf("after 1000 frames: admitted %d released %d rejected-full %d unexpected %d",
			tl.Admitted, tl.Released, tl.RejectedFull, tl.Unexpected)
	}
	if ip.rt.InEngine() != 0 {
		t.Fatalf("%d grants outstanding", ip.rt.InEngine())
	}
}

// The cost workload end to end in process: expected rejections are counted
// exactly and are not failures, every grant is released by the drain, and
// the runtime's own counters agree with the generator's.
func TestCostStreamAccounting(t *testing.T) {
	in, err := GenInputs(LiveCost, 5)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := newInproc()
	if err != nil {
		t.Fatal(err)
	}
	g := newConnGen(in, 0)
	codes := drive(t, g, ip.disp, 200, true)
	for f, frame := range codes {
		if len(frame) != 256 {
			t.Fatalf("frame %d has %d ops, want 256", f, len(frame))
		}
	}
	drive(t, g, ip.disp, 1000, false) // drain frames: dones only, until nothing is left
	tl := &g.tally
	if tl.Unexpected != 0 {
		t.Fatalf("%d unexpected outcomes; first: %s", tl.Unexpected, tl.FirstBad)
	}
	if tl.RejectedCost == 0 || tl.RejectedCost != tl.WantRejCost {
		t.Fatalf("rejected-cost %d, generator sent %d over the cap", tl.RejectedCost, tl.WantRejCost)
	}
	if tl.RejectedFull == 0 {
		t.Fatal("the four-slot batch gate never filled")
	}
	if tl.Admitted != tl.Released || ip.rt.InEngine() != 0 {
		t.Fatalf("admitted %d, released %d, in engine %d", tl.Admitted, tl.Released, ip.rt.InEngine())
	}
	if got := tl.Decisions(); got != tl.Attempted {
		t.Fatalf("%d decisions for %d cost ops", got, tl.Attempted)
	}
	for id, cs := range ip.rt.Snapshot() {
		if cs.Admitted != tl.PerClass[id] || cs.Done != tl.PerClass[id] {
			t.Errorf("class %s: runtime admitted %d done %d, generator %d", cs.Class, cs.Admitted, cs.Done, tl.PerClass[id])
		}
	}
}

// An outcome that contradicts the generator's expectation is a failure, and
// is what feeds the result's failed count.
func TestUnexpectedOutcomeIsCounted(t *testing.T) {
	in, err := GenInputs(LiveRTT, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := newConnGen(in, 0)
	_, meta, _, err := g.buildFrame(true)
	if err != nil {
		t.Fatal(err)
	}
	// The interactive admit comes back rejected-cost: never expected.
	resp, err := wire.EncodeResponse(nil, []wire.Result{{Code: wire.OpAdmit, Status: wire.StatusRejectedCost}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.absorb(meta, resp); err != nil {
		t.Fatal(err)
	}
	if g.tally.Unexpected != 1 || g.tally.FirstBad == "" {
		t.Fatalf("unexpected %d, first %q", g.tally.Unexpected, g.tally.FirstBad)
	}
	res := newResult()
	checkLive(res, &liveMeasurement{tally: g.tally, stats: emptyStats()})
	if res.Correct || res.Failed != 1 || res.Attempted != 1 {
		t.Fatalf("correct %v failed %d attempted %d, want false 1 1", res.Correct, res.Failed, res.Attempted)
	}
	// A response with the wrong number of results is a protocol error.
	if _, err := g.absorb(sentFrame{nAdmit: 2}, resp); err == nil {
		t.Fatal("a short response was accepted")
	}
}

// The SQL workload in process: every prediction result must carry the
// fingerprint and cost derived from sqlmini for its shape, fingerprint
// re-admits appear once shapes are learned, and evictions fall back to text.
func TestSQLStreamChecksPredictions(t *testing.T) {
	in, err := GenInputs(LiveSQL, 9)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := newInproc()
	if err != nil {
		t.Fatal(err)
	}
	g := newConnGen(in, 0)
	codes := drive(t, g, ip.disp, 1500, true)
	byFP := 0
	for _, frame := range codes {
		for _, c := range frame {
			if c == wire.OpAdmitFP {
				byFP++
			}
		}
	}
	drive(t, g, ip.disp, 1000, false)
	tl := &g.tally
	if tl.Unexpected != 0 {
		t.Fatalf("%d unexpected outcomes; first: %s", tl.Unexpected, tl.FirstBad)
	}
	if byFP == 0 || tl.UncachedFP == 0 || tl.CacheHits == 0 || tl.CacheHits == tl.Predicted {
		t.Fatalf("fingerprint admits %d, uncached %d, cache hits %d of %d: the stream should hit, miss and fall back",
			byFP, tl.UncachedFP, tl.CacheHits, tl.Predicted)
	}
	if tl.Admitted != tl.Released || ip.rt.InEngine() != 0 {
		t.Fatalf("admitted %d, released %d, in engine %d", tl.Admitted, tl.Released, ip.rt.InEngine())
	}
	// A result with a foreign fingerprint must be flagged.
	_, meta, _, err := g.buildFrame(true)
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]wire.Result, meta.nAdmit+meta.nDone)
	for i := range bad {
		bad[i] = wire.Result{Code: wire.OpAdmitSQL, Status: wire.StatusAdmitted, FPHi: 1, FPLo: 2}
	}
	resp, err := wire.EncodeResponse(nil, bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.absorb(meta, resp); err != nil {
		t.Fatal(err)
	}
	if g.tally.Unexpected == 0 {
		t.Fatal("a wrong fingerprint went unnoticed")
	}
}
