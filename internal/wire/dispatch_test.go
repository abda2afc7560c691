package wire

import (
	"io"
	"net"
	"testing"
	"time"

	"dbwlm/internal/admission"
	"dbwlm/internal/obsv"
	"dbwlm/internal/policy"
	"dbwlm/internal/rt"
	"dbwlm/internal/sqlmini"
)

func testRuntime(t testing.TB) *rt.Runtime {
	t.Helper()
	r, err := rt.New([]rt.ClassSpec{
		{Name: "interactive", Priority: policy.PriorityHigh, MaxMPL: 1024},
		{Name: "reporting", Priority: policy.PriorityMedium, MaxMPL: 1024, MaxCostTimerons: 1000},
	}, rt.Options{GlobalMaxMPL: 4096})
	if err != nil {
		t.Fatal(err)
	}
	r.SetRecorder(obsv.NewRecorder(1 << 12))
	return r
}

func testPredict(t testing.TB, r *rt.Runtime) *rt.PredictGate {
	t.Helper()
	cache := sqlmini.NewPlanCache(sqlmini.NewCostModel(sqlmini.DefaultCatalog()), 256, 0)
	knn := &admission.KNNPredictor{MaxSeconds: 60, MinTraining: 4}
	return rt.NewPredictGate(r, cache, knn, admission.BucketMonster)
}

// doneOpFor turns an admitted result into the op that releases it.
func doneOpFor(r Result) Op {
	return Op{Code: OpDone, Class: r.Class, Shard: r.Shard, GShard: r.GShard,
		Start: r.Start, QID: r.QID}
}

// TestDispatchAdmitDone: a mixed batch lands in the runtime exactly like the
// same ops issued directly — admits take slots, cost-capped admits reject,
// done ops release, and malformed ops report per-op statuses without killing
// the batch.
func TestDispatchAdmitDone(t *testing.T) {
	r := testRuntime(t)
	d := &Dispatcher{RT: r}
	res := d.Dispatch([]Op{
		{Code: OpAdmit, Class: 0, Cost: 100},
		{Code: OpAdmit, Class: 1, Cost: 5000}, // over reporting's cost cap
		{Code: OpAdmit, Class: 1, Cost: 100},
		{Code: OpAdmit, Class: 99, Cost: 1},                   // no such class
		{Code: OpDone, Class: 0, Shard: 9999, QID: 42},        // grant from nowhere
		{Code: OpAdmitSQL, Class: 0, SQL: []byte("SELECT 1")}, // no predict gate
	}, nil)
	want := []Status{StatusAdmitted, StatusRejectedCost, StatusAdmitted,
		StatusBadClass, StatusBadGrant, StatusNoPredict}
	for i, w := range want {
		if res[i].Status != w {
			t.Fatalf("op %d: status %v, want %v", i, res[i].Status, w)
		}
	}
	if got := r.InEngine(); got != 2 {
		t.Fatalf("in-engine %d after two admits, want 2", got)
	}
	rel := d.Dispatch([]Op{doneOpFor(res[0]), doneOpFor(res[2])}, nil)
	for i := range rel {
		if rel[i].Status != StatusReleased {
			t.Fatalf("done %d: status %v, want released", i, rel[i].Status)
		}
	}
	if got := r.InEngine(); got != 0 {
		t.Fatalf("in-engine %d after balanced dispatch, want 0", got)
	}
	// Releasing the same grant twice must not free a second slot; the grant
	// token's shape is still valid, so it releases into the gate's accounting
	// only once per admission in normal use — a replayed done is the client's
	// bug, but the batch must stay structurally sound.
	for _, st := range r.Snapshot() {
		if st.Rejected+st.Admitted == 0 {
			t.Fatalf("class %s saw no traffic", st.Class)
		}
	}
}

// TestDispatchPredict: SQL and fingerprint admits run the full prediction
// pipeline; unknown fingerprints and unparseable SQL report per-op statuses.
func TestDispatchPredict(t *testing.T) {
	r := testRuntime(t)
	d := &Dispatcher{RT: r, Predict: testPredict(t, r)}
	sql := []byte("SELECT id, name FROM customers WHERE id = 42")
	res := d.Dispatch([]Op{
		{Code: OpAdmitSQL, Class: 0, SQL: sql},
		{Code: OpAdmitSQL, Class: 0, SQL: []byte("NOT EVEN SQL !!")},
		{Code: OpAdmitFP, Class: 0, FPHi: 1, FPLo: 2}, // nothing interned here
	}, nil)
	if res[0].Status != StatusAdmitted {
		t.Fatalf("sql admit: %v", res[0].Status)
	}
	if res[0].FPHi == 0 && res[0].FPLo == 0 {
		t.Fatal("sql admit carried no fingerprint")
	}
	if res[0].Cost <= 0 {
		t.Fatalf("sql admit cost %v, want > 0", res[0].Cost)
	}
	if res[1].Status != StatusParseError {
		t.Fatalf("bad sql: %v, want parse error", res[1].Status)
	}
	if res[2].Status != StatusUncachedFP {
		t.Fatalf("unknown fp: %v, want uncached", res[2].Status)
	}

	// Re-admitting by the fingerprint the first admit returned hits the cache.
	fpOps := []Op{{Code: OpAdmitFP, Class: 0, FPHi: res[0].FPHi, FPLo: res[0].FPLo}}
	fpRes := d.Dispatch(fpOps, nil)
	if fpRes[0].Status != StatusAdmitted {
		t.Fatalf("fp admit: %v", fpRes[0].Status)
	}
	if fpRes[0].Flags&FlagCacheHit == 0 {
		t.Fatal("fp admit did not report a cache hit")
	}

	// Done ops carrying the fingerprint train the model (and still release).
	done := doneOpFor(res[0])
	done.FPHi, done.FPLo = res[0].FPHi, res[0].FPLo
	done2 := doneOpFor(fpRes[0])
	done2.FPHi, done2.FPLo = fpRes[0].FPHi, fpRes[0].FPLo
	rel := d.Dispatch([]Op{done, done2}, nil)
	if rel[0].Status != StatusReleased || rel[1].Status != StatusReleased {
		t.Fatalf("fp done: %v, %v", rel[0].Status, rel[1].Status)
	}
	if got := r.InEngine(); got != 0 {
		t.Fatalf("in-engine %d, want 0", got)
	}
}

// TestServeFrameNonASCIISQL: a statement holding any byte 0x80–0xFF, sent as
// OpAdmitSQL through ServeFrame, is a per-op parse error and returns — a
// Latin-1 letter byte used to pin the dispatch goroutine in an identifier
// scan that never advanced.
func TestServeFrameNonASCIISQL(t *testing.T) {
	r := testRuntime(t)
	d := &Dispatcher{RT: r, Predict: testPredict(t, r)}
	var ops []Op
	for b := 0x80; b <= 0xFF; b++ {
		ops = append(ops, Op{Code: OpAdmitSQL, Class: 0,
			SQL: append([]byte("SELECT * FROM orders WHERE x = "), byte(b))})
	}
	payload, err := EncodeRequest(nil, ops)
	if err != nil {
		t.Fatal(err)
	}
	type served struct {
		out []byte
		err error
	}
	done := make(chan served, 1)
	go func() {
		var st FrameState
		out, err := d.ServeFrame(payload, &st)
		done <- served{append([]byte(nil), out...), err}
	}()
	var got served
	select {
	case got = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeFrame did not return on non-ASCII SQL")
	}
	if got.err != nil {
		t.Fatal(got.err)
	}
	var res BatchRes
	if err := DecodeResponse(got.out, &res); err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Results {
		if r.Status != StatusParseError {
			t.Fatalf("byte %#x: status %v, want parse error", 0x80+i, r.Status)
		}
	}
	if len(res.Results) != len(ops) {
		t.Fatalf("%d results for %d ops", len(res.Results), len(ops))
	}
}

// TestDispatchZeroAlloc pins the acceptance criterion: the steady-state batch
// dispatch path — plain admits and dones, recorder attached — allocates
// nothing per op once scratch is warm.
func TestDispatchZeroAlloc(t *testing.T) {
	r := testRuntime(t)
	d := &Dispatcher{RT: r}
	admits := make([]Op, 64)
	for i := range admits {
		admits[i] = Op{Code: OpAdmit, Class: 0, Cost: 10}
	}
	dones := make([]Op, 64)
	var res, rel []Result
	warm := func() {
		res = d.Dispatch(admits, res)
		for i := range res {
			if res[i].Status != StatusAdmitted {
				t.Fatal("gate unexpectedly closed")
			}
			dones[i] = doneOpFor(res[i])
		}
		rel = d.Dispatch(dones, rel)
	}
	warm()
	if avg := testing.AllocsPerRun(200, warm); avg != 0 {
		t.Fatalf("steady-state batch dispatch allocates %v allocs/run, want 0", avg)
	}
}

// TestServerFrames runs the TCP front end for real: a pipelined client writes
// request frames, reads in-order responses, then breaks the protocol and gets
// hung up on.
func TestServerFrames(t *testing.T) {
	r := testRuntime(t)
	srv := NewServer(&Dispatcher{RT: r})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := NewFrameConn(conn)

	// Two pipelined frames before reading anything.
	f1, err := EncodeRequest(nil, []Op{{Code: OpAdmit, Class: 0, Cost: 1},
		{Code: OpAdmit, Class: 0, Cost: 2}})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := EncodeRequest(nil, []Op{{Code: OpAdmit, Class: 1, Cost: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := fc.WriteFrame(f1); err != nil {
		t.Fatal(err)
	}
	if err := fc.WriteFrame(f2); err != nil {
		t.Fatal(err)
	}
	var res BatchRes
	var grants []Op
	for _, wantN := range []int{2, 1} {
		payload, err := fc.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeResponse(payload, &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Results) != wantN {
			t.Fatalf("got %d results, want %d", len(res.Results), wantN)
		}
		for _, r := range res.Results {
			if r.Status != StatusAdmitted {
				t.Fatalf("status %v, want admitted", r.Status)
			}
			grants = append(grants, doneOpFor(r))
		}
	}
	rel, err := EncodeRequest(nil, grants)
	if err != nil {
		t.Fatal(err)
	}
	if err := fc.WriteFrame(rel); err != nil {
		t.Fatal(err)
	}
	payload, err := fc.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeResponse(payload, &res); err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Results {
		if r.Status != StatusReleased {
			t.Fatalf("status %v, want released", r.Status)
		}
	}
	if got := r.InEngine(); got != 0 {
		t.Fatalf("in-engine %d, want 0", got)
	}

	// A corrupt frame kills the connection — ReadFrame hits EOF.
	bad := append([]byte{}, f1...)
	bad[0] = 0x00
	if err := fc.WriteFrame(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.ReadFrame(); err == nil {
		t.Fatal("read succeeded after protocol violation")
	} else if err != io.EOF {
		// A reset is also acceptable; what matters is the conn is dead.
		t.Logf("connection died with %v", err)
	}
	if st := srv.Stats(); st.Accepted != 1 || st.Frames != 3 || st.ProtoErrors != 1 {
		t.Fatalf("server stats %+v, want accepted 1, frames 3, protoErrors 1", st)
	}
}
