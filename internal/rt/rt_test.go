package rt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbwlm/internal/admission"
	"dbwlm/internal/policy"
	"dbwlm/internal/workload"
)

// Admitted reports whether the request holds a slot.
func (g Grant) Admitted() bool { return g.verdict == Admitted }

func testRuntime(t *testing.T, specs []ClassSpec, opts Options) *Runtime {
	t.Helper()
	r, err := New(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestGateExactLimit: the gate admits exactly maxMPL concurrent holders.
func TestGateExactLimit(t *testing.T) {
	for _, limit := range []int64{1, 3, 5, 8, 17} {
		g := newGate(gateLimits{maxMPL: limit})
		var taken int64
		for g.tryEnter() {
			taken++
		}
		if taken != limit {
			t.Fatalf("limit=%d: admitted %d", limit, taken)
		}
		if g.occupancy() != limit {
			t.Fatalf("occupancy %d != limit %d", g.occupancy(), limit)
		}
		for ; taken > 0; taken-- {
			g.leave()
		}
		if g.occupancy() != 0 {
			t.Fatalf("occupancy %d after full release", g.occupancy())
		}
	}
}

// TestGateNeverFullBelowLimit: with fewer concurrent callers than the class
// MPL, AdmitNoWait never finds the gate full — the Table 2 MPL row admits
// whenever occupancy is below the limit — and the occupancy sampled along
// the way stays within [0, limit]. The second case stacks a global limit
// above the class limit, so an admit passes both gates.
func TestGateNeverFullBelowLimit(t *testing.T) {
	const (
		limit   = 3
		workers = limit - 1
		perWork = 50_000
	)
	for _, tc := range []struct {
		name   string
		global int
	}{
		{"class", 0},
		{"class-under-global", limit + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := testRuntime(t, []ClassSpec{{Name: "c", MaxMPL: limit}},
				Options{GlobalMaxMPL: tc.global})
			cs := r.classes[0]
			var refused, outside atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perWork; i++ {
						g := r.AdmitNoWait(0, 0)
						if !g.Admitted() {
							refused.Add(1)
							continue
						}
						// One class and fewer callers than the limit: both
						// gates hold at most limit.
						if i%64 == 0 {
							for _, n := range []int64{cs.gate.occupancy(), r.global.occupancy()} {
								if n < 0 || n > limit {
									outside.Add(1)
								}
							}
						}
						r.Done(g, 0)
					}
				}()
			}
			wg.Wait()
			if n := refused.Load(); n != 0 {
				t.Errorf("%d of %d admits refused with %d callers below limit %d",
					n, workers*perWork, workers, limit)
			}
			if n := outside.Load(); n != 0 {
				t.Errorf("%d occupancy samples outside [0, %d]", n, limit)
			}
			if n := r.InEngine(); n != 0 {
				t.Errorf("in-engine %d after drain", n)
			}
		})
	}
}

// TestStressConcurrentAdmit is the ≥64-goroutine stress test: concurrent
// admit/complete cycles against shared gates never exceed the class MPL or
// the global MPL, lose no request, and drain to zero.
func TestStressConcurrentAdmit(t *testing.T) {
	const (
		workers  = 64
		perWork  = 200
		classMPL = 7
		global   = 11
	)
	r := testRuntime(t, []ClassSpec{
		{Name: "a", Priority: policy.PriorityHigh, MaxMPL: classMPL},
		{Name: "b", Priority: policy.PriorityLow, MaxMPL: classMPL},
	}, Options{GlobalMaxMPL: global, RetryEvery: time.Millisecond})
	r.Start()
	defer r.Stop()

	var inA, inAll, maxA, maxAll atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			class := ClassID(w % 2)
			for i := 0; i < perWork; i++ {
				g := r.Admit(class, 100)
				if !g.Admitted() {
					t.Errorf("worker %d: unexpected verdict %v", w, g.Verdict())
					return
				}
				cur := inAll.Add(1)
				for {
					m := maxAll.Load()
					if cur <= m || maxAll.CompareAndSwap(m, cur) {
						break
					}
				}
				if class == 0 {
					curA := inA.Add(1)
					for {
						m := maxA.Load()
						if curA <= m || maxA.CompareAndSwap(m, curA) {
							break
						}
					}
				}
				if class == 0 {
					inA.Add(-1)
				}
				inAll.Add(-1)
				r.Done(g, 0)
			}
		}(w)
	}
	wg.Wait()
	if m := maxA.Load(); m > classMPL {
		t.Fatalf("class MPL exceeded: observed %d > %d", m, classMPL)
	}
	if m := maxAll.Load(); m > global {
		t.Fatalf("global MPL exceeded: observed %d > %d", m, global)
	}
	if got := r.InEngine(); got != 0 {
		t.Fatalf("in-engine after drain = %d", got)
	}
	total := r.StatsOf(0).Done + r.StatsOf(1).Done
	if total != workers*perWork {
		t.Fatalf("completed %d, want %d", total, workers*perWork)
	}
	for _, id := range []ClassID{0, 1} {
		if q := r.QueueLen(id); q != 0 {
			t.Fatalf("class %d queue not drained: %d", id, q)
		}
	}
}

// TestFIFOWithinClass: waiters admit in enqueue order as slots free up.
func TestFIFOWithinClass(t *testing.T) {
	r := testRuntime(t, []ClassSpec{{Name: "c", MaxMPL: 1}}, Options{})
	holder := r.Admit(0, 0)
	if !holder.Admitted() {
		t.Fatal("holder not admitted")
	}
	const n = 8
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := r.Admit(0, 0)
			if !g.Admitted() {
				t.Errorf("waiter %d: %v", i, g.Verdict())
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			r.Done(g, 0)
		}(i)
		// Ensure waiter i is parked before launching waiter i+1, so the
		// FIFO expectation is well-defined.
		for r.QueueLen(0) != int64(i+1) {
			time.Sleep(50 * time.Microsecond)
		}
	}
	r.Done(holder, 0) // cascade: each Done drains the next waiter
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("admission order %v not FIFO", order)
		}
	}
}

// TestGlobalReleaseWakesOtherClass: a waiter parked on the global gate is
// seated by the release of another class's holder, not at the next retry
// tick. Class a has no limit of its own; b holds the one global slot.
func TestGlobalReleaseWakesOtherClass(t *testing.T) {
	r := testRuntime(t, []ClassSpec{{Name: "a"}, {Name: "b"}},
		Options{GlobalMaxMPL: 1, RetryEvery: time.Hour})
	r.Start()
	defer r.Stop()
	holder := r.Admit(1, 0)
	if !holder.Admitted() {
		t.Fatal("holder not admitted")
	}
	admitted := make(chan Grant, 1)
	go func() { admitted <- r.Admit(0, 0) }()
	for r.QueueLen(0) != 1 {
		time.Sleep(50 * time.Microsecond)
	}
	r.Done(holder, 0)
	select {
	case g := <-admitted:
		if !g.Admitted() {
			t.Fatalf("waiter verdict %v, want admitted", g.Verdict())
		}
		if n := r.InEngine(); n != 1 {
			t.Fatalf("InEngine() = %d after the waiter was seated, want 1", n)
		}
		r.Done(g, 0)
	case <-time.After(2 * time.Second):
		t.Fatalf("waiter still parked 2s after the global slot freed (InEngine() = %d)", r.InEngine())
	}
	if n := r.waiting.Load(); n != 0 {
		t.Fatalf("global waiter count %d after the queue emptied", n)
	}
}

// TestGlobalReleaseDrainsByPriority: when the one global slot frees and two
// classes have waiters parked on it, the higher-priority class is seated
// first, whatever the class IDs' order.
func TestGlobalReleaseDrainsByPriority(t *testing.T) {
	r := testRuntime(t, []ClassSpec{
		{Name: "lo", Priority: policy.PriorityLow},
		{Name: "hi", Priority: policy.PriorityHigh},
		{Name: "holder"},
	}, Options{GlobalMaxMPL: 1, RetryEvery: time.Hour})
	r.Start()
	defer r.Stop()
	holder := r.Admit(2, 0)
	if !holder.Admitted() {
		t.Fatal("holder not admitted")
	}
	grants := make(chan Grant, 2)
	for id := ClassID(0); id < 2; id++ {
		go func() { grants <- r.Admit(id, 0) }()
		for r.QueueLen(id) != 1 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	for _, want := range []ClassID{1, 0} {
		r.Done(holder, 0)
		select {
		case holder = <-grants:
			if !holder.Admitted() || holder.class != want {
				t.Fatalf("seated %+v, want class %d admitted", holder, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("no waiter seated 2s after the global slot freed; want class %d", want)
		}
	}
	r.Done(holder, 0)
}

// TestParkAfterLastReleaseIsSeated: a request whose fast path failed while
// a holder existed, and whose holder released before it parked — seeing
// nobody waiting, so draining nothing — is seated by its own re-check after
// parking, not at the next retry tick.
func TestParkAfterLastReleaseIsSeated(t *testing.T) {
	r := testRuntime(t, []ClassSpec{{Name: "c", MaxMPL: 1}}, Options{RetryEvery: time.Hour})
	r.Start()
	defer r.Stop()
	admitted := make(chan Grant, 1)
	go func() { admitted <- r.await(r.classes[0], 0, 0, 0, 0, 0, false) }()
	select {
	case g := <-admitted:
		if !g.Admitted() {
			t.Fatalf("verdict %v, want admitted", g.Verdict())
		}
		r.Done(g, 0)
	case <-time.After(2 * time.Second):
		t.Fatalf("request parked 2s at an empty gate (queue %d)", r.QueueLen(0))
	}
	if n := r.waiting.Load(); n != 0 {
		t.Fatalf("global waiter count %d after the queue emptied", n)
	}
}

// TestCostThresholdRejects: per-class cost limits reject on the fast path
// and re-evaluate queued work after a policy tightens.
func TestCostThresholdRejects(t *testing.T) {
	r := testRuntime(t, []ClassSpec{{Name: "c", MaxCostTimerons: 500}}, Options{})
	if g := r.Admit(0, 501); g.Verdict() != RejectedCost {
		t.Fatalf("over-cost verdict = %v", g.Verdict())
	}
	if g := r.Admit(0, 500); !g.Admitted() {
		t.Fatalf("at-cost verdict = %v", g.Verdict())
	} else {
		r.Done(g, 0)
	}
	st := r.StatsOf(0)
	if st.Rejected != 1 || st.Admitted != 1 {
		t.Fatalf("stats %+v", st)
	}

	// A parked request is re-judged against the tightened limit at the next
	// retry cycle, and leaves both waiter counts.
	if err := r.ApplyPolicy(&policy.RuntimePolicy{Classes: []policy.RuntimeClassLimit{
		{Class: "c", MaxMPL: 1, MaxCostTimerons: 500},
	}}); err != nil {
		t.Fatal(err)
	}
	hold := r.Admit(0, 0)
	parked := make(chan Grant)
	go func() { parked <- r.Admit(0, 400) }()
	for r.QueueLen(0) != 1 {
		time.Sleep(50 * time.Microsecond)
	}
	if err := r.ApplyPolicy(&policy.RuntimePolicy{Classes: []policy.RuntimeClassLimit{
		{Class: "c", MaxMPL: 1, MaxCostTimerons: 300},
	}}); err != nil {
		t.Fatal(err)
	}
	r.RetryNow()
	if g := <-parked; g.Verdict() != RejectedCost {
		t.Fatalf("parked over-cost verdict = %v", g.Verdict())
	}
	if q, n := r.QueueLen(0), r.waiting.Load(); q != 0 || n != 0 {
		t.Fatalf("queue %d, global waiter count %d after the rejection", q, n)
	}
	r.Done(hold, 0)
}

// TestPolicyReload: ApplyPolicy swaps limits atomically; the fast path sees
// them immediately, parked waiters at the next retry cycle (Manager parity).
func TestPolicyReload(t *testing.T) {
	r := testRuntime(t, []ClassSpec{{Name: "c", MaxMPL: 1}}, Options{})
	hold := r.Admit(0, 0)
	done := make(chan Grant)
	go func() { done <- r.Admit(0, 0) }()
	for r.QueueLen(0) != 1 {
		time.Sleep(50 * time.Microsecond)
	}
	if err := r.ApplyPolicy(&policy.RuntimePolicy{Classes: []policy.RuntimeClassLimit{
		{Class: "c", MaxMPL: 4},
	}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
		t.Fatal("waiter admitted before a retry cycle")
	case <-time.After(10 * time.Millisecond):
	}
	r.RetryNow()
	g := <-done
	if !g.Admitted() {
		t.Fatalf("waiter verdict after reload = %v", g.Verdict())
	}
	r.Done(g, 0)
	r.Done(hold, 0)

	if err := r.ApplyPolicy(&policy.RuntimePolicy{Classes: []policy.RuntimeClassLimit{
		{Class: "nope", MaxMPL: 1},
	}}); err == nil {
		t.Fatal("unknown class accepted")
	}
	p := r.Policy()
	if len(p.Classes) != 1 || p.Classes[0].MaxMPL != 4 {
		t.Fatalf("rendered policy %+v", p)
	}
}

// TestControllersConsumeView: the unchanged threshold/indicator controllers
// from internal/admission run against the live runtime through the View
// interface — the snapshot contract of the refactor.
func TestControllersConsumeView(t *testing.T) {
	r := testRuntime(t, []ClassSpec{{Name: "c", Priority: policy.PriorityLow}}, Options{})
	mpl := &admission.MPLThreshold{Engine: r, Max: 2}
	req := &workload.Request{Priority: policy.PriorityLow}
	if d := mpl.Decide(req, 0); d != admission.Admit {
		t.Fatalf("empty runtime: %v", d)
	}
	g1, g2 := r.Admit(0, 0), r.Admit(0, 0)
	if d := mpl.Decide(req, 0); d != admission.Queue {
		t.Fatalf("full runtime: %v", d)
	}

	ind := &admission.Indicators{Engine: r}
	if ind.Congested() {
		t.Fatal("unloaded runtime congested")
	}
	r.SetLoad(1.5, 0, 0.9)
	if !ind.Congested() {
		t.Fatal("mem-pressure 1.5 not congested")
	}
	if d := ind.Decide(req, 0); d != admission.Queue {
		t.Fatalf("indicator decision for low-priority: %v", d)
	}

	cr := &admission.ConflictRatio{Engine: r}
	r.SetLoad(0, 2.0, 0)
	if d := cr.Decide(req, 0); d != admission.Queue {
		t.Fatalf("conflict-ratio decision: %v", d)
	}
	r.Done(g1, 0)
	r.Done(g2, 0)
}

// TestLowPriorityGate: the congestion flag published by an indicator loop
// queues low-priority admits on the fast path while high-priority work flows.
func TestLowPriorityGate(t *testing.T) {
	r := testRuntime(t, []ClassSpec{
		{Name: "lo", Priority: policy.PriorityLow},
		{Name: "hi", Priority: policy.PriorityHigh},
	}, Options{})
	r.SetLowPriorityGate(true)
	if g := r.Admit(1, 0); !g.Admitted() {
		t.Fatalf("high-priority gated: %v", g.Verdict())
	} else {
		r.Done(g, 0)
	}
	done := make(chan Grant)
	go func() { done <- r.Admit(0, 0) }()
	for r.QueueLen(0) != 1 {
		time.Sleep(50 * time.Microsecond)
	}
	r.SetLowPriorityGate(false)
	r.RetryNow()
	if g := <-done; !g.Admitted() {
		t.Fatalf("low-priority verdict after gate opened: %v", g.Verdict())
	} else {
		r.Done(g, 0)
	}
}

// TestTokenRoundTrip: wlmd's grant token survives serialization; malformed
// tokens are refused.
func TestTokenRoundTrip(t *testing.T) {
	r := testRuntime(t, []ClassSpec{{Name: "c"}}, Options{})
	g := r.Admit(0, 0)
	tok := g.Token()
	back, err := r.ParseToken(tok)
	if err != nil {
		t.Fatal(err)
	}
	if back != g {
		t.Fatalf("round-trip %+v != %+v", back, g)
	}
	r.Done(back, 0)
	for _, bad := range []string{"", "0", "0:1:2:3", "0:0:0:0:0", "x:0", "9:0", "0:x"} {
		if _, err := r.ParseToken(bad); err == nil {
			t.Fatalf("token %q accepted", bad)
		}
	}
	if (Grant{verdict: RejectedCost}).Token() != "" {
		t.Fatal("non-admitted grant produced a token")
	}
}

// TestVelocityAndLatencyRecorded: Done folds service latency and execution
// velocity into the class's histograms.
func TestVelocityAndLatencyRecorded(t *testing.T) {
	var clock atomic.Int64
	r := testRuntime(t, []ClassSpec{{Name: "c"}}, Options{Now: clock.Load})
	g := r.Admit(0, 0)
	clock.Store(int64(2 * time.Second))
	r.Done(g, 1.0) // ideal 1s over 2s elapsed -> velocity 0.5
	st := r.StatsOf(0)
	if st.Latency.Count != 1 || st.Latency.Mean != 2.0 {
		t.Fatalf("latency %+v", st.Latency)
	}
	if st.Velocity.Count != 1 || st.Velocity.Max > 0.6 || st.Velocity.Max < 0.4 {
		t.Fatalf("velocity %+v", st.Velocity)
	}
}
