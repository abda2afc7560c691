package rt

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"dbwlm/internal/admission"
	"dbwlm/internal/metrics"
	"dbwlm/internal/obsv"
	"dbwlm/internal/policy"
)

// TestRecorderLifecycle drives one fast-path admission, one cost rejection,
// and one queued admission through a recorder-attached runtime and checks
// the flight recorder holds the full story: every decision carries its
// reason, and one request's events share a qid.
func TestRecorderLifecycle(t *testing.T) {
	// The waiter goroutine reads the clock too (its drain after parking).
	var clock atomic.Int64
	r, err := New([]ClassSpec{
		{Name: "oltp", Priority: policy.PriorityHigh, MaxMPL: 1, MaxCostTimerons: 1000},
	}, Options{Now: clock.Load})
	if err != nil {
		t.Fatal(err)
	}
	rec := obsv.NewRecorder(1024)
	r.SetRecorder(rec)

	g1 := r.Admit(0, 10) // fast path
	if !g1.Admitted() || g1.id == 0 {
		t.Fatalf("grant %+v", g1)
	}
	if g := r.Admit(0, 5000); g.Admitted() || g.id == 0 {
		t.Fatalf("over-cost grant %+v", g)
	}

	// Second admission parks (MPL 1 held by g1) and drains when g1 releases.
	got := make(chan Grant)
	go func() { got <- r.Admit(0, 20) }()
	waitForWaiters(t, r, 1)
	clock.Add(3_000_000) // 3ms queued
	r.Done(g1, 0.001)
	g2 := <-got
	if !g2.Admitted() || g2.id == 0 || g2.id == g1.id {
		t.Fatalf("drained grant %+v (g1 id %d)", g2, g1.id)
	}
	clock.Add(2_000_000)
	r.Done(g2, 0.002)

	type key struct {
		kind   obsv.Kind
		reason obsv.Reason
	}
	byKey := map[key][]obsv.Event{}
	for _, e := range rec.Tail(0, obsv.MatchAll) {
		byKey[key{e.Kind, e.Reason}] = append(byKey[key{e.Kind, e.Reason}], e)
	}
	fast := byKey[key{obsv.KindAdmit, obsv.ReasonFastPath}]
	if len(fast) != 1 || fast[0].QID != g1.id || fast[0].Verdict != uint8(Admitted) || fast[0].Value != 10 {
		t.Fatalf("fast-path events %+v", fast)
	}
	rejected := byKey[key{obsv.KindAdmit, obsv.ReasonCostLimit}]
	if len(rejected) != 1 || rejected[0].Verdict != uint8(RejectedCost) || rejected[0].Value != 5000 {
		t.Fatalf("cost-limit events %+v", rejected)
	}
	enq := byKey[key{obsv.KindEnqueue, obsv.ReasonGateFull}]
	if len(enq) != 1 || enq[0].QID != g2.id {
		t.Fatalf("enqueue events %+v (g2 id %d)", enq, g2.id)
	}
	drained := byKey[key{obsv.KindAdmit, obsv.ReasonDrained}]
	if len(drained) != 1 || drained[0].QID != g2.id || drained[0].Aux != 0.003 {
		t.Fatalf("drained events %+v, want 3ms wait", drained)
	}
	f := obsv.MatchAll
	f.Kind = obsv.KindDone
	dones := rec.Tail(0, f)
	if len(dones) != 2 {
		t.Fatalf("done events %+v", dones)
	}
	if dones[0].QID != g1.id || dones[0].Value != 0.003 {
		t.Fatalf("g1 done %+v, want 3ms elapsed", dones[0])
	}
	// One request's whole lifecycle shares its qid.
	f = obsv.MatchAll
	f.QID = g2.id
	if got := len(rec.Tail(0, f)); got != 3 { // enqueue, drained admit, done
		t.Fatalf("g2 lifecycle has %d events, want 3", got)
	}
}

// TestRecorderQueueTimeout: a waiter expiring at a retry point records the
// rejected-timeout decision with the time it waited.
func TestRecorderQueueTimeout(t *testing.T) {
	// The waiter goroutine reads the clock too (its drain after parking).
	var clock atomic.Int64
	r, err := New([]ClassSpec{
		{Name: "batch", MaxMPL: 1, MaxQueueDelay: 10 * time.Millisecond},
	}, Options{Now: clock.Load})
	if err != nil {
		t.Fatal(err)
	}
	rec := obsv.NewRecorder(1024)
	r.SetRecorder(rec)
	g1 := r.Admit(0, 0)
	got := make(chan Grant)
	go func() { got <- r.Admit(0, 0) }()
	waitForWaiters(t, r, 1)
	clock.Add(11_000_000) // past MaxQueueDelay
	r.RetryNow()
	g2 := <-got
	if g2.Verdict() != RejectedTimeout {
		t.Fatalf("verdict %v", g2.Verdict())
	}
	if n := r.waiting.Load(); n != 0 {
		t.Fatalf("global waiter count %d after the timeout", n)
	}
	f := obsv.MatchAll
	f.QID = g2.id
	f.Kind = obsv.KindAdmit
	events := rec.Tail(0, f)
	if len(events) != 1 || events[0].Reason != obsv.ReasonQueueTimeout ||
		events[0].Verdict != uint8(RejectedTimeout) || events[0].Aux != 0.011 {
		t.Fatalf("timeout events %+v", events)
	}
	r.Done(g1, 0)
}

func waitForWaiters(t *testing.T, r *Runtime, n int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for r.QueueLen(0) < n {
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestTokenCarriesID: recorder-attached grants round-trip the admission ID
// through the wire token; recorder-off grants keep the legacy 4-field token.
func TestTokenCarriesID(t *testing.T) {
	r, err := New([]ClassSpec{{Name: "a", MaxMPL: 4}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	off := r.Admit(0, 0)
	if off.id != 0 {
		t.Fatalf("recorder-off grant has id %d", off.id)
	}
	tok := off.Token()
	back, err := r.ParseToken(tok)
	if err != nil || back.id != 0 {
		t.Fatalf("legacy token %q: %+v %v", tok, back, err)
	}
	r.Done(back, 0)

	r.SetRecorder(obsv.NewRecorder(256))
	on := r.Admit(0, 0)
	if on.id == 0 {
		t.Fatal("recorder-on grant has no id")
	}
	back, err = r.ParseToken(on.Token())
	if err != nil || back.id != on.id {
		t.Fatalf("token %q: %+v %v", on.Token(), back, err)
	}
	r.Done(back, 0)
}

// TestRecorderOffAdmitZeroAlloc pins the acceptance bound directly: with no
// recorder attached, the admit+done cycle allocates nothing.
func TestRecorderOffAdmitZeroAlloc(t *testing.T) {
	r, err := New([]ClassSpec{{Name: "a", MaxMPL: 1 << 16}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		r.Done(r.Admit(0, 10), 0.001)
	}); avg != 0 {
		t.Fatalf("recorder-off admit+done allocates %v allocs/op, want 0", avg)
	}
}

// TestRecorderOnAdmitAllocBound: with the recorder attached the cycle
// allocates nothing (the ring itself is preallocated; nothing on the record
// path may allocate).
func TestRecorderOnAdmitAllocBound(t *testing.T) {
	r, err := New([]ClassSpec{{Name: "a", MaxMPL: 1 << 16}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r.SetRecorder(obsv.NewRecorder(4096))
	if avg := testing.AllocsPerRun(1000, func() {
		r.Done(r.Admit(0, 10), 0.001)
	}); avg != 0 {
		t.Fatalf("recorder-on admit+done allocates %v allocs/op, want 0", avg)
	}
}

// TestDoneReadsClockOnce: a release takes one clock reading for its latency
// sample, its SLO check and its done event. With a clock that advances on
// every reading, the done event's time less the admit event's time is
// exactly the service seconds it carries.
func TestDoneReadsClockOnce(t *testing.T) {
	clock := int64(0)
	r, err := New([]ClassSpec{{Name: "oltp", Priority: policy.PriorityHigh}},
		Options{Now: func() int64 { clock += 1_000_003; return clock }})
	if err != nil {
		t.Fatal(err)
	}
	rec := obsv.NewRecorder(1024)
	r.SetRecorder(rec)
	for i := 0; i < 16; i++ {
		r.Done(r.Admit(0, 10), 0.0005)
	}
	admitAt := map[int64]int64{}
	dones := 0
	for _, e := range rec.Tail(0, obsv.MatchAll) {
		switch e.Kind {
		case obsv.KindAdmit:
			admitAt[e.QID] = e.At
		case obsv.KindDone:
			dones++
			start, ok := admitAt[e.QID]
			if !ok {
				t.Fatalf("done event %+v has no admit event", e)
			}
			if want := float64(e.At-start) / 1e9; e.Value != want {
				t.Fatalf("done qid %d: value %v, want (At - start)/1e9 = %v", e.QID, e.Value, want)
			}
		}
	}
	if dones != 16 {
		t.Fatalf("%d done events, want 16", dones)
	}
}

// TestAdmitOneStripe: each decision draws one stripe, and its QID takes its
// shard from it — the one shard of the class's admitted counter that the same
// decision moved is the QID's shard (both are built StripeShards(0) wide), and
// the shard varies from decision to decision.
func TestAdmitOneStripe(t *testing.T) {
	r, err := New([]ClassSpec{{Name: "oltp", Priority: policy.PriorityHigh}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r.SetRecorder(obsv.NewRecorder(1024))
	admitted := r.classes[0].admitted
	if n := len(counterShards(admitted)); n != len(r.qids.shards) {
		t.Fatalf("admitted counter has %d shards, QID allocator %d", n, len(r.qids.shards))
	}
	seen := map[int64]bool{}
	for i := 0; i < 200; i++ {
		before := counterShards(admitted)
		g := r.Admit(0, 10)
		if !g.Admitted() {
			t.Fatalf("open gate rejected: %+v", g)
		}
		moved := -1
		for j, v := range counterShards(admitted) {
			if v != before[j] {
				if moved >= 0 {
					t.Fatalf("grant %+v moved admitted shards %d and %d", g, moved, j)
				}
				moved = j
			}
		}
		shard := g.id & int64(r.qids.mask)
		if int64(moved) != shard {
			t.Fatalf("grant %+v: QID shard %d, admitted counter moved shard %d", g, shard, moved)
		}
		seen[shard] = true
		r.Done(g, 0)
	}
	if len(seen) < 2 {
		t.Fatalf("200 decisions drew QIDs from %d of %d shards", len(seen), len(r.qids.shards))
	}
}

// counterShards reads a striped counter's per-shard values. The shards are
// unexported in package metrics, so this reads them through reflection; the
// callers are single-goroutine, so plain reads are race-free.
func counterShards(c *metrics.StripedCounter) []int64 {
	shards := reflect.ValueOf(c).Elem().FieldByName("shards")
	out := make([]int64, shards.Len())
	for i := range out {
		out[i] = shards.Index(i).FieldByName("v").FieldByName("v").Int()
	}
	return out
}

// BenchmarkLiveAdmitRecorded prices the flight recorder on the plain admit
// hot path; compare against BenchmarkLiveAdmit for the enabled overhead
// (obsv.record_ns in cmd/wlmbench is the in-harness price).
func BenchmarkLiveAdmitRecorded(b *testing.B) {
	r, err := New([]ClassSpec{
		{Name: "oltp", Priority: policy.PriorityHigh, MaxMPL: 1 << 16, MaxCostTimerons: 1e6},
	}, Options{GlobalMaxMPL: 1 << 17})
	if err != nil {
		b.Fatal(err)
	}
	r.SetRecorder(obsv.NewRecorder(16384))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			g := r.Admit(0, 10)
			r.Done(g, 0.001)
		}
	})
}

// BenchmarkPredictAdmitRecorded is the full wire-speed prediction pipeline
// with the flight recorder attached; compare against BenchmarkPredictAdmit
// for the enabled overhead.
func BenchmarkPredictAdmitRecorded(b *testing.B) {
	g := newPredictGate(b, admission.BucketMonster)
	train(g)
	g.rt.SetRecorder(obsv.NewRecorder(16384))
	grant, _, err := g.AdmitSQL(0, predictCheapSQL)
	if err != nil || !grant.Admitted() {
		b.Fatalf("warmup admit failed: %v %v", grant.Verdict(), err)
	}
	g.rt.Done(grant, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grant, _, _ := g.AdmitSQL(0, predictCheapSQL)
		g.rt.Done(grant, 0)
	}
}
