package obsv

import (
	"strings"
	"sync"
	"testing"
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

func TestRingOverwrites(t *testing.T) {
	r := NewRecorder(64) // rounds up to shards*64, still far below 10k
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
	if _, ok := KindFromName("nope"); ok {
		t.Fatal("unknown kind resolved")
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

func TestEventFormat(t *testing.T) {
	e := Event{At: 1_500_000_000, QID: 42, FP: 0xABC, Kind: KindAdmit,
		Reason: ReasonFastPath, Verdict: 0, Class: 1, Value: 2, Aux: 3}
	line := e.Format(func(id int32) string { return "reporting" })
	for _, want := range []string{"admit", "reason=fast-path", "class=reporting",
		"qid=42", "fp=0000000000000abc", "value=2", "aux=3", "1.500000s"} {
		if !strings.Contains(line, want) {
			t.Fatalf("formatted line %q missing %q", line, want)
		}
	}
}

// TestConcurrentRecordDrain hammers the ring from many writers while a
// reader drains continuously — the seqlock publish protocol must yield only
// fully-published events (run under -race in the `make race` target).
func TestConcurrentRecordDrain(t *testing.T) {
	r := NewRecorder(4096)
	const writers, per = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // continuous drain under write load
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range r.Tail(0, MatchAll) {
				// A torn read would surface as a mismatched At/QID pair.
				if e.QID != e.At {
					t.Errorf("torn event: at=%d qid=%d", e.At, e.QID)
					return
				}
			}
		}
	}()
	var writersWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWg.Add(1)
		go func(w int) {
			defer writersWg.Done()
			for i := 0; i < per; i++ {
				v := int64(w*per + i + 1)
				r.Record(Event{At: v, QID: v, Kind: KindAdmit, Verdict: NoVerdict, Class: NoClass})
			}
		}(w)
	}
	writersWg.Wait()
	close(stop)
	wg.Wait()
	if r.Recorded() != writers*per {
		t.Fatalf("recorded %d, want %d", r.Recorded(), writers*per)
	}
	for _, e := range r.Tail(0, MatchAll) {
		if e.QID != e.At || e.QID < 1 || e.QID > writers*per {
			t.Fatalf("corrupt retained event %+v", e)
		}
	}
}
