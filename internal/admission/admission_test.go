package admission

import (
	"testing"

	"dbwlm/internal/engine"
	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
	"dbwlm/internal/sqlmini"
	"dbwlm/internal/workload"
)

func mkReq(pri policy.Priority, timerons float64) *workload.Request {
	return &workload.Request{
		Priority: pri,
		Type:     sqlmini.StmtRead,
		Est:      workload.Estimates{Timerons: timerons, Rows: 100, MemMB: 10, IOMB: timerons / 10},
	}
}

func TestAdmitAll(t *testing.T) {
	var c AdmitAll
	if c.Decide(mkReq(policy.PriorityLow, 1e12), 0) != Admit {
		t.Fatal("AdmitAll rejected")
	}
	if c.Name() == "" {
		t.Fatal("no name")
	}
}

func TestCostThreshold(t *testing.T) {
	c := &CostThreshold{Limits: map[policy.Priority]float64{
		policy.PriorityLow:  1000,
		policy.PriorityHigh: 0, // unlimited
	}}
	if c.Decide(mkReq(policy.PriorityLow, 500), 0) != Admit {
		t.Fatal("under-limit rejected")
	}
	if c.Decide(mkReq(policy.PriorityLow, 5000), 0) != Reject {
		t.Fatal("over-limit admitted")
	}
	if c.Decide(mkReq(policy.PriorityHigh, 1e9), 0) != Admit {
		t.Fatal("unlimited priority rejected")
	}
	c.QueueInstead = true
	if c.Decide(mkReq(policy.PriorityLow, 5000), 0) != Queue {
		t.Fatal("QueueInstead not honored")
	}
}

func TestMPLThreshold(t *testing.T) {
	s := sim.New(1)
	e := engine.New(s, engine.Config{})
	c := &MPLThreshold{Engine: e, Max: 2}
	if c.Decide(mkReq(policy.PriorityLow, 1), 0) != Admit {
		t.Fatal("empty engine should admit")
	}
	e.Submit(engine.QuerySpec{CPUWork: 100}, 1, nil)
	e.Submit(engine.QuerySpec{CPUWork: 100}, 1, nil)
	if c.Decide(mkReq(policy.PriorityLow, 1), 0) != Queue {
		t.Fatal("full engine should queue")
	}
}

func TestConflictRatioController(t *testing.T) {
	s := sim.New(1)
	e := engine.New(s, engine.Config{Cores: 4, IOMBps: 1e9})
	c := &ConflictRatio{Engine: e}
	if c.Decide(mkReq(policy.PriorityLow, 1), 0) != Admit {
		t.Fatal("idle engine should admit")
	}
	// Create contention: one holder, several holder-waiters each holding
	// another lock — conflict ratio climbs above 1.3.
	e.Submit(engine.QuerySpec{CPUWork: 50, Parallelism: 1, Locks: []engine.LockReq{
		{Key: 1, Exclusive: true}}}, 1, nil)
	for i := 0; i < 4; i++ {
		e.Submit(engine.QuerySpec{CPUWork: 50, Parallelism: 1, Locks: []engine.LockReq{
			{Key: 100 + i, Exclusive: true},
			{Key: 1, Exclusive: true},
		}}, 1, nil)
	}
	s.Run(sim.Time(500 * sim.Millisecond))
	if got := e.StatsNow().ConflictRatio; got <= 1.3 {
		t.Fatalf("conflict ratio = %v, expected > 1.3 in contention scenario", got)
	}
	if c.Decide(mkReq(policy.PriorityLow, 1), 0) != Queue {
		t.Fatal("contended engine should queue new transactions")
	}
}

func TestIndicatorsGateLowPriorityOnly(t *testing.T) {
	s := sim.New(1)
	e := engine.New(s, engine.Config{Cores: 4, MemoryMB: 100, IOMBps: 1e9})
	c := &Indicators{Engine: e}
	// Overcommit memory to trip the mem-pressure indicator.
	e.Submit(engine.QuerySpec{CPUWork: 50, MemMB: 300, Parallelism: 1}, 1, nil)
	s.Run(sim.Time(100 * sim.Millisecond))
	if !c.Congested() {
		t.Fatal("indicators should report congestion")
	}
	if c.Decide(mkReq(policy.PriorityLow, 1), 0) != Queue {
		t.Fatal("low priority should be delayed under congestion")
	}
	if c.Decide(mkReq(policy.PriorityHigh, 1), 0) != Admit {
		t.Fatal("high priority should pass")
	}
}

func TestChainFirstNonAdmitWins(t *testing.T) {
	c := &Chain{Controllers: []Controller{
		&CostThreshold{Limits: map[policy.Priority]float64{policy.PriorityLow: 100}},
		AdmitAll{},
	}}
	if c.Decide(mkReq(policy.PriorityLow, 1000), 0) != Reject {
		t.Fatal("chain did not propagate reject")
	}
	if c.Decide(mkReq(policy.PriorityLow, 10), 0) != Admit {
		t.Fatal("chain rejected admissible request")
	}
}

func TestThroughputFeedbackHillClimbs(t *testing.T) {
	s := sim.New(1)
	e := engine.New(s, engine.Config{})
	c := &ThroughputFeedback{Engine: e, Interval: sim.Second, InitialMPL: 4, Step: 2, MaxMPL: 64}
	c.Start()
	// Feed rising throughput: MPL should keep climbing.
	for i := 0; i < 5; i++ {
		for j := 0; j < (i+1)*10; j++ {
			c.ObserveCompletion(nil, 0, 0)
		}
		s.Run(s.Now().Add(sim.Duration(1) * sim.Second))
	}
	up := c.MPL()
	if up <= 4 {
		t.Fatalf("MPL did not climb under rising throughput: %d", up)
	}
	// Now collapse throughput: direction must reverse and MPL drop.
	for i := 0; i < 5; i++ {
		s.Run(s.Now().Add(sim.Duration(1) * sim.Second)) // zero completions
	}
	if c.MPL() >= up {
		t.Fatalf("MPL did not back off after throughput collapse: %d vs %d", c.MPL(), up)
	}
}

func TestThroughputFeedbackDecide(t *testing.T) {
	s := sim.New(1)
	e := engine.New(s, engine.Config{})
	c := &ThroughputFeedback{Engine: e, InitialMPL: 1}
	if c.Decide(mkReq(policy.PriorityLow, 1), 0) != Admit {
		t.Fatal("should admit under MPL")
	}
	e.Submit(engine.QuerySpec{CPUWork: 100}, 1, nil)
	if c.Decide(mkReq(policy.PriorityLow, 1), 0) != Queue {
		t.Fatal("should queue at MPL")
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		s float64
		b RuntimeBucket
	}{{0.5, BucketShort}, {5, BucketMedium}, {50, BucketLong}, {5000, BucketMonster}}
	for _, c := range cases {
		if BucketOf(c.s) != c.b {
			t.Fatalf("BucketOf(%v) = %v, want %v", c.s, BucketOf(c.s), c.b)
		}
		if c.b.String() == "unknown" {
			t.Fatal("missing bucket name")
		}
	}
}

func TestTreePredictorLearnsToGateMonsters(t *testing.T) {
	p := &TreePredictor{MaxBucket: BucketMedium, MinTraining: 30, RetrainEvery: 10}
	// Before training: admits everything.
	monster := mkReq(policy.PriorityLow, 1e6)
	if p.Decide(monster, 0) != Admit {
		t.Fatal("untrained predictor should admit")
	}
	// Train: cheap queries are fast, expensive ones are slow — a learnable
	// relationship between timerons and runtime.
	for i := 0; i < 60; i++ {
		cheap := mkReq(policy.PriorityLow, float64(100+i))
		p.ObserveCompletion(cheap, 0.2, 0)
		big := mkReq(policy.PriorityLow, float64(500000+i*1000))
		p.ObserveCompletion(big, 200, 0)
	}
	if p.model.Load() == nil {
		t.Fatal("predictor did not train")
	}
	if p.Decide(monster, 0) != Queue {
		t.Fatal("trained predictor should gate the monster")
	}
	if p.Decide(mkReq(policy.PriorityLow, 150), 0) != Admit {
		t.Fatal("trained predictor should admit cheap work")
	}
	p.Reject = true
	if p.Decide(monster, 0) != Reject {
		t.Fatal("Reject mode not honored")
	}
}

func TestKNNPredictorGatesByPredictedSeconds(t *testing.T) {
	p := &KNNPredictor{MaxSeconds: 10, MinTraining: 30}
	if p.Decide(mkReq(policy.PriorityLow, 1e6), 0) != Admit {
		t.Fatal("untrained knn should admit")
	}
	for i := 0; i < 40; i++ {
		p.ObserveCompletion(mkReq(policy.PriorityLow, 100), 0.5, 0)
		p.ObserveCompletion(mkReq(policy.PriorityLow, 1e6), 300, 0)
	}
	var f FeatureVec
	RequestFeaturesInto(mkReq(policy.PriorityLow, 1e6), &f)
	if s, _ := p.PredictSeconds(&f); s < 100 {
		t.Fatalf("knn prediction too low: %v", s)
	}
	if p.Decide(mkReq(policy.PriorityLow, 1e6), 0) != Queue {
		t.Fatal("knn did not gate expensive query")
	}
	if p.Decide(mkReq(policy.PriorityLow, 100), 0) != Admit {
		t.Fatal("knn gated cheap query")
	}
}

func TestKNNHistoryBound(t *testing.T) {
	p := &KNNPredictor{MaxSeconds: 10, MaxHistory: 50}
	for i := 0; i < 200; i++ {
		p.ObserveCompletion(mkReq(policy.PriorityLow, float64(i)), 1, 0)
	}
	if got := p.historySize(); got > 50 {
		t.Fatalf("history grew to %d despite cap", got)
	}
}

func TestChainForwardsCompletions(t *testing.T) {
	tf := &ThroughputFeedback{Engine: nil, InitialMPL: 4}
	c := &Chain{Controllers: []Controller{tf}}
	c.ObserveCompletion(mkReq(policy.PriorityLow, 1), 1, 0)
	if tf.count != 1 {
		t.Fatal("chain did not forward completion")
	}
}

func TestDecisionString(t *testing.T) {
	for _, d := range []Decision{Admit, Queue, Reject} {
		if d.String() == "" {
			t.Fatal("empty decision name")
		}
	}
}
