package rt

import (
	"testing"

	"dbwlm/internal/policy"
)

// BenchmarkLiveAdmit measures the lock-free admit/release cycle under
// parallel load. Run with -cpu=1,2 to see admit throughput at GOMAXPROCS 1
// and 2: the striped recorders keep the parallel paths on disjoint cache
// lines, while every admit and release writes its gate's one counter.
func BenchmarkLiveAdmit(b *testing.B) {
	r, err := New([]ClassSpec{
		{Name: "oltp", Priority: policy.PriorityHigh, MaxMPL: 1 << 16, MaxCostTimerons: 1e6},
	}, Options{GlobalMaxMPL: 1 << 17})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			g := r.Admit(0, 10)
			r.Done(g, 0.001)
		}
	})
}

// BenchmarkLiveAdmitContended holds the gate one slot below its MPL limit,
// so every admit takes the last slot.
func BenchmarkLiveAdmitContended(b *testing.B) {
	const mpl = 8
	r, err := New([]ClassSpec{{Name: "oltp", MaxMPL: mpl}}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	// Pre-fill all but one slot so every admit fights for the last one.
	var held []Grant
	for i := 0; i < mpl-1; i++ {
		held = append(held, r.Admit(0, 0))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := r.Admit(0, 0)
		r.Done(g, 0)
	}
	b.StopTimer()
	for _, g := range held {
		r.Done(g, 0)
	}
}

// BenchmarkSnapshot prices the merged-shard monitoring read with a reused
// scratch buffer — the shape of the /stats polling loop.
func BenchmarkSnapshot(b *testing.B) {
	r, err := New([]ClassSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		r.Done(r.Admit(ClassID(i%3), 10), 0.001)
	}
	var buf []ClassStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = r.SnapshotInto(buf)
	}
}
