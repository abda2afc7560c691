// Equivalence tests: the live runtime's queue-timeout and retry-batch
// semantics must match the simulated Manager's decision-for-decision on the
// same trace. The Manager runs on virtual time; the runtime runs the same
// trace on an injected fake clock ticked at the Manager's retry cadence.
package rt_test

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	dbwlm "dbwlm"
	"dbwlm/internal/admission"
	"dbwlm/internal/engine"
	"dbwlm/internal/policy"
	"dbwlm/internal/rt"
	"dbwlm/internal/sim"
	"dbwlm/internal/workload"
)

func longQuery(id int64) *workload.Request {
	return &workload.Request{
		ID: id, Workload: "w", Priority: policy.PriorityMedium,
		True: engine.QuerySpec{CPUWork: 1000},
	}
}

// managerTimeoutTrace runs the boundary trace on the simulated Manager:
// MPL 1 gate held by a blocker, one victim queued at t=0 with
// MaxQueueDelay=1s and retries every 500ms. It returns the simulated second
// at which the victim timed out.
func managerTimeoutTrace(t *testing.T) float64 {
	t.Helper()
	s := sim.New(1)
	m := dbwlm.New(s, engine.Config{Cores: 4, MemoryMB: 4096, IOMBps: 400})
	m.Admission = &admission.MPLThreshold{Engine: m.Engine(), Max: 1}
	m.MaxQueueDelay = sim.Second
	var dispatched []int64
	m.OnDispatch = func(rr *dbwlm.Running) { dispatched = append(dispatched, rr.Req.ID) }

	m.Submit(longQuery(100)) // blocker: holds the only MPL slot
	m.Submit(longQuery(1))   // victim: queues at t=0
	// The only rejection on this trace is the victim's queue timeout; step
	// event by event so its instant is exact.
	at := -1.0
	for s.Now() < sim.Time(3*sim.Second) && s.Step() {
		if at < 0 && m.Stats().System.Rejected.Value() > 0 {
			at = s.Now().Seconds()
		}
	}

	if len(dispatched) != 1 || dispatched[0] != 100 {
		t.Fatalf("manager dispatched %v, want only the blocker", dispatched)
	}
	if n := m.Stats().System.Rejected.Value(); n != 1 {
		t.Fatalf("manager rejected %d requests, want the one queue timeout", n)
	}
	return at
}

// rtTimeoutTrace runs the identical trace on the live runtime with a fake
// clock, ticking RetryNow at the Manager's 500ms retry instants, and returns
// the logical second at which the victim timed out.
func rtTimeoutTrace(t *testing.T) float64 {
	t.Helper()
	var clock atomic.Int64
	r, err := rt.New([]rt.ClassSpec{
		{Name: "w", MaxMPL: 1, MaxQueueDelay: time.Second},
	}, rt.Options{Now: clock.Load})
	if err != nil {
		t.Fatal(err)
	}
	blocker := r.Admit(0, 0)
	if !blocker.Admitted() {
		t.Fatal("blocker not admitted")
	}
	verdictAt := make(chan float64, 1)
	go func() {
		g := r.Admit(0, 0)
		if g.Verdict() != rt.RejectedTimeout {
			t.Errorf("victim verdict %v, want timeout", g.Verdict())
		}
		verdictAt <- float64(clock.Load()) / 1e9
	}()
	for r.QueueLen(0) != 1 {
		time.Sleep(50 * time.Microsecond)
	}
	timedOutAt := -1.0
	for _, tick := range []float64{0.5, 1.0, 1.5, 2.0} {
		clock.Store(int64(tick * 1e9))
		r.RetryNow()
		select {
		case at := <-verdictAt:
			timedOutAt = at
		case <-time.After(20 * time.Millisecond):
			// Still parked. At tick 1.0 the victim has waited EXACTLY
			// MaxQueueDelay; the strictly-greater rule keeps it queued —
			// the boundary this test pins on both paths.
			if q := r.QueueLen(0); q != 1 {
				t.Fatalf("tick %.1fs: queue length %d, want 1", tick, q)
			}
		}
		if timedOutAt >= 0 {
			break
		}
	}
	if timedOutAt < 0 {
		t.Fatal("victim never timed out")
	}
	if got := r.StatsOf(0).Timeouts; got != 1 {
		t.Fatalf("timeout counter %d, want 1", got)
	}
	r.Done(blocker, 0)
	return timedOutAt
}

// TestQueueTimeoutEquivalence: a request that has waited exactly
// MaxQueueDelay survives the retry check on both paths; both reject it at the
// first retry instant strictly after the deadline — 1.5s on this trace.
func TestQueueTimeoutEquivalence(t *testing.T) {
	mgrAt := managerTimeoutTrace(t)
	rtAt := rtTimeoutTrace(t)
	if mgrAt != rtAt {
		t.Fatalf("manager timed out at %.1fs, runtime at %.1fs", mgrAt, rtAt)
	}
	if mgrAt != 1.5 {
		t.Fatalf("timeout fired at %.1fs, want 1.5s (first retry strictly after the 1s deadline)", mgrAt)
	}
}

// batchLine renders one retry tick's admissions for cross-path comparison.
func batchLine(sec float64, ids []int64) string {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return fmt.Sprintf("t=%.1fs admit %v", sec, ids)
}

// managerStormTrace: 10 requests queue behind an MPL-1 gate; the gate opens
// wide (Max=100) at t=0.45s, just before the first retry. RetryBatch=3 must
// meter the queued work out as 3/3/3/1 across successive retry cycles.
func managerStormTrace(t *testing.T) []string {
	t.Helper()
	s := sim.New(1)
	m := dbwlm.New(s, engine.Config{Cores: 4, MemoryMB: 4096, IOMBps: 400})
	ctrl := &admission.MPLThreshold{Engine: m.Engine(), Max: 1}
	m.Admission = ctrl
	m.RetryBatch = 3
	byTick := map[float64][]int64{}
	m.OnDispatch = func(rr *dbwlm.Running) {
		if rr.Req.ID == 100 {
			return // blocker
		}
		sec := m.Now().Seconds()
		byTick[sec] = append(byTick[sec], rr.Req.ID)
	}
	m.Submit(longQuery(100))
	for i := int64(0); i < 10; i++ {
		m.Submit(longQuery(i))
	}
	s.Schedule(sim.Duration(0.45*float64(sim.Second)), func() { ctrl.Max = 100 })
	s.Run(sim.Time(3 * sim.Second))
	return renderTicks(byTick)
}

// rtStormTrace replays the storm trace against the live runtime: the same
// gate-open happens via ApplyPolicy at logical t=0.45s, and RetryNow ticks at
// the Manager's retry instants.
func rtStormTrace(t *testing.T) []string {
	t.Helper()
	var clock atomic.Int64
	r, err := rt.New([]rt.ClassSpec{
		{Name: "w", MaxMPL: 1, RetryBatch: 3},
	}, rt.Options{Now: clock.Load})
	if err != nil {
		t.Fatal(err)
	}
	blocker := r.Admit(0, 0)
	var (
		mu      sync.Mutex
		order   []int64
		grants  []rt.Grant
		wg      sync.WaitGroup
		expectQ int64
	)
	for i := int64(0); i < 10; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			g := r.Admit(0, 0)
			if !g.Admitted() {
				t.Errorf("request %d verdict %v", i, g.Verdict())
				return
			}
			mu.Lock()
			order = append(order, i)
			grants = append(grants, g)
			mu.Unlock()
		}(i)
		expectQ++
		for r.QueueLen(0) != expectQ {
			time.Sleep(50 * time.Microsecond)
		}
	}
	clock.Store(int64(0.45 * 1e9))
	if err := r.ApplyPolicy(&policy.RuntimePolicy{Classes: []policy.RuntimeClassLimit{
		{Class: "w", MaxMPL: 100, RetryBatch: 3},
	}}); err != nil {
		t.Fatal(err)
	}
	// Reload parity: limits changed, but parked waiters flow only at retry
	// instants — nothing admits at 0.45s itself.
	time.Sleep(10 * time.Millisecond)
	if got := admittedCount(&mu, &order); got != 0 {
		t.Fatalf("reload admitted %d waiters before a retry cycle", got)
	}
	want := 0
	for _, tick := range []float64{0.5, 1.0, 1.5, 2.0} {
		clock.Store(int64(tick * 1e9))
		r.RetryNow()
		want += 3
		if want > 10 {
			want = 10
		}
		// Wait for exactly this tick's batch before advancing the clock, so
		// positional reconstruction below maps admissions to ticks.
		deadline := time.Now().Add(2 * time.Second)
		for admittedCount(&mu, &order) != want {
			if time.Now().After(deadline) {
				t.Fatalf("tick %.1fs: admitted %d, want %d", tick, admittedCount(&mu, &order), want)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	wg.Wait()
	// Reconstruct per-tick batches from the admission order: FIFO guarantees
	// batch k admitted waiters 3k..min(3k+2,9) at tick (k+1)*0.5s.
	out := map[float64][]int64{}
	mu.Lock()
	for k := 0; k*3 < len(order); k++ {
		hi := (k + 1) * 3
		if hi > len(order) {
			hi = len(order)
		}
		out[0.5*float64(k+1)] = append([]int64(nil), order[k*3:hi]...)
	}
	mu.Unlock()
	for _, g := range grants {
		r.Done(g, 0)
	}
	r.Done(blocker, 0)
	return renderTicks(out)
}

func admittedCount(mu *sync.Mutex, order *[]int64) int {
	mu.Lock()
	defer mu.Unlock()
	return len(*order)
}

func renderTicks(byTick map[float64][]int64) []string {
	secs := make([]float64, 0, len(byTick))
	for sec := range byTick {
		secs = append(secs, sec)
	}
	sort.Float64s(secs)
	out := make([]string, 0, len(secs))
	for _, sec := range secs {
		out = append(out, batchLine(sec, byTick[sec]))
	}
	return out
}

// TestRetryBatchStormEquivalence: when a closed gate opens wide, both paths
// meter the queued backlog at RetryBatch per retry cycle — same requests, in
// the same cycles, at the same instants.
func TestRetryBatchStormEquivalence(t *testing.T) {
	mgr := managerStormTrace(t)
	live := rtStormTrace(t)
	want := []string{
		"t=0.5s admit [0 1 2]",
		"t=1.0s admit [3 4 5]",
		"t=1.5s admit [6 7 8]",
		"t=2.0s admit [9]",
	}
	if fmt.Sprint(mgr) != fmt.Sprint(want) {
		t.Fatalf("manager trace %v, want %v", mgr, want)
	}
	if fmt.Sprint(live) != fmt.Sprint(want) {
		t.Fatalf("runtime trace %v, want %v", live, want)
	}
}
