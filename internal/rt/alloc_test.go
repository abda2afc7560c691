package rt

import (
	"testing"

	"dbwlm/internal/policy"
)

// TestSteadyStateAdmitZeroAlloc pins the acceptance criterion: the open-gate
// admit/release cycle allocates nothing. Grants are plain values, and the
// counters and histograms update fields of the class record in place.
func TestSteadyStateAdmitZeroAlloc(t *testing.T) {
	r, err := New([]ClassSpec{
		{Name: "c", Priority: policy.PriorityHigh, MaxMPL: 1024, MaxCostTimerons: 1e6},
	}, Options{GlobalMaxMPL: 4096})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the gate once outside the measured runs.
	r.Done(r.Admit(0, 10), 0)

	if avg := testing.AllocsPerRun(1000, func() {
		g := r.Admit(0, 10)
		if !g.Admitted() {
			t.Fatal("gate unexpectedly closed")
		}
		r.Done(g, 0.001)
	}); avg != 0 {
		t.Fatalf("steady-state admit/release allocates %v allocs/op, want 0", avg)
	}

	// The snapshot read path is off the hot path but should still be modest;
	// what matters here is that reading stats does not disturb the gate.
	if got := r.InEngine(); got != 0 {
		t.Fatalf("in-engine %d after balanced admit/release", got)
	}
}

// TestSnapshotIntoZeroAlloc pins the monitoring loop's scratch-buffer path:
// once the buffer is warm, repeated snapshots allocate nothing (ClassStats is
// all scalars plus interned strings; the merged histogram state lives on the
// stack).
func TestSnapshotIntoZeroAlloc(t *testing.T) {
	r, err := New([]ClassSpec{
		{Name: "a", Priority: policy.PriorityHigh, MaxMPL: 64},
		{Name: "b", Priority: policy.PriorityLow, MaxMPL: 64},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		r.Done(r.Admit(ClassID(i%2), 10), 0.001)
	}
	buf := r.SnapshotInto(nil)
	if len(buf) != 2 || buf[0].Class != "a" || buf[0].Done != 50 {
		t.Fatalf("snapshot %+v", buf)
	}
	if avg := testing.AllocsPerRun(200, func() {
		buf = r.SnapshotInto(buf)
	}); avg != 0 {
		t.Fatalf("warm SnapshotInto allocates %v allocs/op, want 0", avg)
	}
	// A short buffer grows rather than truncating.
	if got := r.SnapshotInto(make([]ClassStats, 0, 1)); len(got) != 2 {
		t.Fatalf("short-buffer snapshot has %d classes, want 2", len(got))
	}
}
