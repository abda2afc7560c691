package rt

import (
	"testing"
	"time"

	"dbwlm/internal/obsv"
	"dbwlm/internal/policy"
	"dbwlm/internal/slo"
)

func mapeSpecs() []ClassSpec {
	return []ClassSpec{
		{Name: "interactive", Priority: policy.PriorityHigh, MaxMPL: 32},
		{Name: "batch", Priority: policy.PriorityLow, MaxMPL: 4},
	}
}

// TestMAPELoopLive: the live autonomic loop closes the low-priority gate
// under fed congestion and reopens it on recovery, recording symptoms and
// actions in the flight recorder.
func TestMAPELoopLive(t *testing.T) {
	r, err := New(mapeSpecs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := obsv.NewRecorder(1024)
	r.SetRecorder(rec)
	loop := NewMAPELoop(r)

	r.SetLoad(1.5, 0, 0.9)
	loop.RunOnce()
	if !r.LowPriorityGate() {
		t.Fatal("gate open after overload cycle")
	}
	r.SetLoad(0.2, 0, 0.1)
	loop.RunOnce()
	if r.LowPriorityGate() {
		t.Fatal("gate closed after recovery cycle")
	}
	loop.RunOnce() // healthy and open: no symptom, no action
	if got := loop.Cycles(); got != 3 {
		t.Fatalf("cycles %d", got)
	}
	if got := loop.Symptoms(); got != 2 {
		t.Fatalf("symptoms %d", got)
	}
	f := obsv.MatchAll
	f.Kind = obsv.KindMAPEAction
	actions := rec.Tail(0, f)
	if len(actions) != 2 ||
		actions[0].Reason != obsv.ReasonThrottle || actions[1].Reason != obsv.ReasonResume {
		t.Fatalf("recorded actions %+v", actions)
	}
	f.Kind = obsv.KindMAPEMonitor
	if got := len(rec.Tail(0, f)); got != 3 {
		t.Fatalf("monitor snapshots %d", got)
	}
}

// TestStartMAPELoopTicker: the wall-clock ticker variant reacts to fed load
// without manual stepping.
func TestStartMAPELoopTicker(t *testing.T) {
	r, err := New(mapeSpecs(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r.SetLoad(2.0, 0, 0.9)
	stop := StartMAPELoop(NewMAPELoop(r), time.Millisecond)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for !r.LowPriorityGate() {
		if time.Now().After(deadline) {
			t.Fatal("MAPE loop never closed the gate under memory pressure")
		}
		time.Sleep(time.Millisecond)
	}
	r.SetLoad(0.1, 0, 0.1)
	for r.LowPriorityGate() {
		if time.Now().After(deadline) {
			t.Fatal("MAPE loop never reopened the gate")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMAPELoopBurnRate drives the live analyzer through the full burn-rate
// arc on an injected clock: a healthy class starts missing hard -> an
// slo-violation symptom with the burn-rate reason closes the low-priority
// gate while budget remains; sustained misses exhaust the cumulative budget
// -> the reason escalates to budget-exhausted at severity 1; the burst ages
// out of both windows -> underload reopens the gate.
func TestMAPELoopBurnRate(t *testing.T) {
	clock := int64(0)
	r, err := New(mapeSpecs(), Options{Now: func() int64 { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	// Windows short enough to age within the test.
	eng, err := slo.New([]slo.Spec{
		{Class: "interactive", Target: 0.001, MissBudget: 0.01,
			FastWindow: time.Second, SlowWindow: 4 * time.Second},
		{Class: "batch"},
	}, slo.Options{Now: r.NowNanos})
	if err != nil {
		t.Fatal(err)
	}
	r.SetSLO(eng)
	rec := obsv.NewRecorder(1024)
	r.SetRecorder(rec)
	loop := NewMAPELoop(r)

	// A healthy history: 10000 hits, aged out of both windows.
	for i := 0; i < 10000; i++ {
		eng.Observe(0, 0.0001)
	}
	clock = int64(10 * time.Second)
	loop.RunOnce() // healthy: no symptom
	if r.LowPriorityGate() {
		t.Fatal("gate closed while healthy")
	}

	// A pure-miss burst inside both windows: burning, budget still in hand.
	for i := 0; i < 20; i++ {
		eng.Observe(0, 1)
	}
	clock += int64(300 * time.Millisecond)
	loop.RunOnce()
	if !r.LowPriorityGate() {
		t.Fatal("gate open after burn-rate symptom")
	}

	// Sustained misses overdraw the cumulative budget: 20+200 misses in
	// 10220 observations is ~2.2%, past the 1% budget.
	for i := 0; i < 200; i++ {
		eng.Observe(0, 1)
	}
	clock += int64(300 * time.Millisecond)
	loop.RunOnce()

	// The burst ages out of both windows; the gate is holding work that
	// nothing justifies anymore, so the loop resumes it.
	clock += int64(20 * time.Second)
	loop.RunOnce()
	if r.LowPriorityGate() {
		t.Fatal("gate still closed after the burst aged out")
	}

	f := obsv.MatchAll
	f.Kind = obsv.KindMAPESymptom
	symptoms := rec.Tail(0, f)
	if len(symptoms) != 3 {
		t.Fatalf("symptom events %+v, want burn-rate, budget-exhausted, underload", symptoms)
	}
	if symptoms[0].Reason != obsv.ReasonBurnRate || symptoms[0].Class != 0 || symptoms[0].Value != 1 {
		t.Fatalf("first symptom %+v, want burn-rate on class 0 at severity 1", symptoms[0])
	}
	if symptoms[1].Reason != obsv.ReasonBudgetExhausted || symptoms[1].Value != 1 {
		t.Fatalf("second symptom %+v, want budget-exhausted", symptoms[1])
	}
	if symptoms[2].Reason != obsv.ReasonUnderload {
		t.Fatalf("third symptom %+v, want underload", symptoms[2])
	}
	f.Kind = obsv.KindMAPEAction
	actions := rec.Tail(0, f)
	if len(actions) != 3 ||
		actions[0].Reason != obsv.ReasonThrottle ||
		actions[1].Reason != obsv.ReasonThrottle ||
		actions[2].Reason != obsv.ReasonResume {
		t.Fatalf("recorded actions %+v", actions)
	}
}
