package obsv

import (
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsDisabled(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: KindAdmit}) // must not panic
	if got := r.Tail(10, MatchAll); got != nil {
		t.Fatalf("nil Tail returned %v", got)
	}
	if r.Recorded() != 0 || r.Overwritten() != 0 || r.Cap() != 0 {
		t.Fatal("nil recorder reports activity")
	}
}

func TestRecordTailRoundTrip(t *testing.T) {
	r := NewRecorder(1024)
	events := []Event{
		{At: 100, QID: 1, FP: 0xBEEF, Kind: KindAdmit, Reason: ReasonFastPath, Verdict: 0, Class: 2, Value: 1.5, Aux: 0.25},
		{At: 200, QID: 2, Kind: KindEnqueue, Reason: ReasonGateFull, Verdict: NoVerdict, Class: 0},
		{At: 300, QID: 1, Kind: KindDone, Verdict: NoVerdict, Class: 2, Value: 0.007},
		{At: 400, Kind: KindMAPEAction, Reason: ReasonThrottle, Verdict: NoVerdict, Class: NoClass, Value: 1},
	}
	for _, e := range events {
		r.Record(e)
	}
	got := r.Tail(0, MatchAll)
	if len(got) != len(events) {
		t.Fatalf("drained %d events, want %d", len(got), len(events))
	}
	for i, e := range events {
		g := got[i]
		g.Seq = 0 // assigned by the ring
		if g != e {
			t.Fatalf("event %d: got %+v want %+v", i, g, e)
		}
	}
	if r.Recorded() != uint64(len(events)) || r.Overwritten() != 0 {
		t.Fatalf("recorded %d overwritten %d", r.Recorded(), r.Overwritten())
	}
}

func TestTailFilters(t *testing.T) {
	r := NewRecorder(1024)
	r.Record(Event{At: 1, QID: 7, Kind: KindAdmit, Verdict: 0, Class: 0})
	r.Record(Event{At: 2, QID: 8, Kind: KindAdmit, Verdict: 2, Class: 1})
	r.Record(Event{At: 3, QID: 7, Kind: KindDone, Verdict: NoVerdict, Class: 0})
	r.Record(Event{At: 4, Kind: KindMAPEMonitor, Verdict: NoVerdict, Class: NoClass})

	if got := r.Tail(0, Filter{}); len(got) != 4 {
		t.Fatalf("zero-value filter drained %d, want all 4 (class 0 and verdict 0 must not be singled out)", len(got))
	}
	f := MatchAll
	f.Kind = KindAdmit
	if got := r.Tail(0, f); len(got) != 2 {
		t.Fatalf("kind filter drained %d, want 2", len(got))
	}
	f = MatchAll
	f.Class = 0
	if got := r.Tail(0, f); len(got) != 2 {
		t.Fatalf("class-0 filter drained %d, want 2", len(got))
	}
	f = MatchAll
	f.Verdict = 2
	got := r.Tail(0, f)
	if len(got) != 1 || got[0].QID != 8 {
		t.Fatalf("verdict filter drained %+v", got)
	}
	f = MatchAll
	f.QID = 7
	if got := r.Tail(0, f); len(got) != 2 {
		t.Fatalf("qid filter drained %d, want 2", len(got))
	}
	if got := r.Tail(1, MatchAll); len(got) != 1 || got[0].At != 4 {
		t.Fatalf("n=1 tail %+v, want the newest event", got)
	}
}

// TestTailClassZeroAdmitted: class 0 with verdict 0 (admitted) is a real
// selection, not the zero-value Filter{} that means "everything".
func TestTailClassZeroAdmitted(t *testing.T) {
	r := NewRecorder(1024)
	r.Record(Event{At: 1, QID: 1, Kind: KindAdmit, Verdict: 0, Class: 0})
	r.Record(Event{At: 2, QID: 1, Kind: KindDone, Verdict: NoVerdict, Class: 0})
	r.Record(Event{At: 3, QID: 2, Kind: KindAdmit, Verdict: 2, Class: 1})
	f := MatchAll
	f.Class = 0
	f.Verdict = 0
	got := r.Tail(0, f)
	if len(got) != 1 || got[0].QID != 1 || got[0].Kind != KindAdmit {
		t.Fatalf("class-0 admitted filter drained %+v, want the one class-0 admit", got)
	}
}

// TestRecordWaitsForHeldRing: a record made while a drain holds the ring
// lands after the drain releases it, and bumps RingBusy exactly once.
func TestRecordWaitsForHeldRing(t *testing.T) {
	r := NewRecorder(256)
	r.Record(Event{At: 1, QID: 1, Kind: KindAdmit})
	r.hold() // what a drain does for its pass
	done := make(chan struct{})
	go func() {
		r.Record(Event{At: 2, QID: 2, Kind: KindAdmit})
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	if r.cursor != 1 {
		t.Fatalf("a record landed in a held ring: cursor %d", r.cursor)
	}
	r.busy.Store(0)
	<-done
	r.Record(Event{At: 3, QID: 3, Kind: KindAdmit})
	if r.RingBusy() != 1 || r.Recorded() != 3 {
		t.Fatalf("ring busy %d recorded %d, want 1 and 3", r.RingBusy(), r.Recorded())
	}
	for i, e := range r.Tail(0, MatchAll) {
		if e.Seq != uint64(i+1) || e.QID != int64(i+1) {
			t.Fatalf("event %d: %+v, want seq and qid %d", i, e, i+1)
		}
	}
}

func TestRingOverwrites(t *testing.T) {
	r := NewRecorder(64)
	const n = 10000
	for i := 0; i < n; i++ {
		r.Record(Event{At: int64(i), Kind: KindAdmit})
	}
	if r.Recorded() != n {
		t.Fatalf("recorded %d, want %d", r.Recorded(), n)
	}
	if r.Overwritten() == 0 {
		t.Fatal("no overwrites after overflowing the ring")
	}
	if got, cap := len(r.Tail(0, MatchAll)), r.Cap(); got > cap {
		t.Fatalf("drained %d events from a %d-slot ring", got, cap)
	}
	if int(r.Recorded()-r.Overwritten()) != len(r.Tail(0, MatchAll)) {
		t.Fatalf("retained accounting: recorded %d - overwritten %d != drained %d",
			r.Recorded(), r.Overwritten(), len(r.Tail(0, MatchAll)))
	}
}

func TestKindAndReasonNames(t *testing.T) {
	for k := Kind(1); k < numKinds; k++ {
		got, ok := KindFromName(k.String())
		if !ok || got != k {
			t.Fatalf("kind %d round-trip through %q failed", k, k.String())
		}
	}
	for _, name := range []string{"nope", "ctl-action"} {
		if _, ok := KindFromName(name); ok {
			t.Fatalf("unknown kind %q resolved", name)
		}
	}
	seen := map[string]Reason{}
	for r := Reason(1); r < numReasons; r++ {
		name := r.String()
		if name == "" {
			t.Fatalf("reason %d has no name", r)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("reasons %d and %d share the name %q", prev, r, name)
		}
		seen[name] = r
	}
}

// TestConcurrentRecordDrain hammers the ring from many writers while Tail
// and Recorded drain continuously: every write must be counted exactly once,
// no drained event may mix two writes, and every drain must be a run of
// consecutive sequence numbers (run under -race in `make race`). The second
// case puts 64 writers on the one ring, so writers constantly find it held.
func TestConcurrentRecordDrain(t *testing.T) {
	for _, c := range []struct {
		name         string
		r            *Recorder
		writers, per int
	}{
		{"8-writers", NewRecorder(4096), 8, 5000},
		{"64-writers", NewRecorder(1024), 64, 500},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, total := c.r, uint64(c.writers*c.per)
			var drains, writers sync.WaitGroup
			stop := make(chan struct{})
			drain := func(f func()) {
				drains.Add(1)
				go func() {
					defer drains.Done()
					for {
						select {
						case <-stop:
							return
						default:
							f()
						}
					}
				}()
			}
			drain(func() {
				events := r.Tail(0, MatchAll)
				for i, e := range events {
					if e.QID != e.At {
						t.Errorf("torn event: at=%d qid=%d", e.At, e.QID)
					}
					if i > 0 && e.Seq != events[i-1].Seq+1 {
						t.Errorf("drain skipped from seq %d to %d", events[i-1].Seq, e.Seq)
					}
				}
			})
			drain(func() {
				if n := r.Recorded(); n > total {
					t.Errorf("recorded %d of at most %d", n, total)
				}
			})
			for w := 0; w < c.writers; w++ {
				writers.Add(1)
				go func(w int) {
					defer writers.Done()
					for i := 0; i < c.per; i++ {
						v := int64(w*c.per + i + 1)
						r.Record(Event{At: v, QID: v, Kind: KindAdmit, Verdict: NoVerdict, Class: NoClass})
					}
				}(w)
			}
			writers.Wait()
			close(stop)
			drains.Wait()
			if r.Recorded() != total {
				t.Fatalf("recorded %d, want %d", r.Recorded(), total)
			}
			retained := r.Tail(0, MatchAll)
			if uint64(len(retained)) != r.Recorded()-r.Overwritten() {
				t.Fatalf("retained %d, want recorded %d - overwritten %d",
					len(retained), r.Recorded(), r.Overwritten())
			}
			for i, e := range retained {
				if e.QID != e.At || e.QID < 1 || e.QID > int64(total) || e.Seq != r.Overwritten()+uint64(i+1) {
					t.Fatalf("corrupt retained event %d: %+v", i, e)
				}
			}
		})
	}
}

// BenchmarkTailFullRing prices a drain of a full 16384-event ring with
// MatchAll and n = 0, the longest the ring is ever held; ns/op is the hold
// plus the slice allocation made before it.
func BenchmarkTailFullRing(b *testing.B) {
	r := NewRecorder(16384)
	for i := 0; i < r.Cap(); i++ {
		r.Record(Event{At: int64(i), QID: int64(i), Kind: KindAdmit, Verdict: NoVerdict, Class: NoClass})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(r.Tail(0, MatchAll)) != r.Cap() {
			b.Fatal("short drain")
		}
	}
}

// FuzzRecorderMatchesReference records one random event sequence, replayed
// rounds times, into the owned ring and the seqlock reference at the same
// capacity, and requires the same Recorded, Overwritten and Tail answers for
// random filters and lengths. Each 6-byte chunk of events is one record
// (fingerprint, kind/reason, class, verdict, qid, time step); each 6-byte
// chunk of queries is one Tail (kind, class, verdict, qid, since, n).
func FuzzRecorderMatchesReference(f *testing.F) {
	f.Add(uint16(0), uint8(1), []byte{0, 1, 1, 0, 1, 1, 1, 3, 2, 3, 2, 0}, []byte{0, 0, 0, 0, 0, 0})
	f.Add(uint16(100), uint8(40), []byte{3, 0x21, 0, 0, 1, 1, 5, 0x13, 1, 1, 2, 0, 6, 0x42, 3, 2, 0, 2},
		[]byte{1, 1, 1, 0, 0, 3, 0, 0, 0, 1, 9, 0, 2, 2, 3, 0, 0, 1})
	f.Add(uint16(300), uint8(255), []byte{9, 0x11, 2, 3, 4, 1, 8, 0x71, 0, 0, 0, 0},
		[]byte{1, 2, 1, 2, 0x80, 0, 0, 0, 0, 0, 0, 200})
	f.Fuzz(func(t *testing.T, capacity uint16, rounds uint8, events, queries []byte) {
		if len(events) > 6*64 || len(queries) > 6*16 {
			return
		}
		r := NewRecorder(int(capacity))
		ref := newRefRecorder(r.Cap())
		at := int64(0)
		for round := 0; round <= int(rounds); round++ {
			for b := events; len(b) >= 6; b = b[6:] {
				at += int64(b[5]%4) - 1 // time may stand or step back: a drain is in record order
				e := Event{
					At:      at,
					QID:     int64(b[4] % 8),
					FP:      uint64(b[0]) << 32,
					Kind:    Kind(b[1] % uint8(numKinds)),
					Reason:  Reason(b[1] >> 4),
					Verdict: []uint8{0, 1, 2, NoVerdict}[b[3]%4],
					Class:   int32(b[2]%4) - 1,
					Value:   float64(b[4]),
					Aux:     float64(round),
				}
				r.Record(e)
				ref.Record(e)
			}
			if r.Recorded() != ref.Recorded() || r.Overwritten() != ref.Overwritten() {
				t.Fatalf("round %d: recorded/overwritten %d/%d, reference %d/%d", round,
					r.Recorded(), r.Overwritten(), ref.Recorded(), ref.Overwritten())
			}
		}
		type query struct {
			n int
			f Filter
		}
		tails := []query{{0, Filter{}}, {0, MatchAll}, {5, MatchAll}}
		for q := queries; len(q) >= 6; q = q[6:] {
			f := MatchAll
			if q[0]&0x80 != 0 {
				f = Filter{} // literal filters: class 0 and verdict 0 unless set
			}
			f.Kind = Kind(q[0] % uint8(numKinds))
			if q[1] != 0 {
				f.Class = int32(q[1]%4) - 1
			}
			if q[2] != 0 {
				f.Verdict = int16(q[2]%4) - 1
			}
			f.QID = int64(q[3] % 8)
			f.MinAt = int64(q[4]) * at / 256
			tails = append(tails, query{int(q[5]) - 1, f})
		}
		for _, c := range tails {
			got, want := r.Tail(c.n, c.f), ref.Tail(c.n, c.f)
			if len(got) != len(want) {
				t.Fatalf("Tail(%d, %+v): %d events, reference %d", c.n, c.f, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Tail(%d, %+v)[%d] = %+v, reference %+v", c.n, c.f, i, got[i], want[i])
				}
			}
		}
	})
}
