package workload

import (
	"math"
	"testing"

	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
	"dbwlm/internal/sqlmini"
)

func TestOLTPGenProducesRequests(t *testing.T) {
	s := sim.New(1)
	seq := &Sequence{}
	g := &OLTPGen{
		WorkloadName: "oltp",
		Rate:         100,
		Priority:     policy.PriorityHigh,
		SLO:          policy.AvgResponseTime(100 * sim.Millisecond),
		Seq:          seq,
	}
	var got []*Request
	g.Start(s, sim.Time(10*sim.Second), func(r *Request) { got = append(got, r) })
	s.RunAll(1 << 20)
	// ~1000 arrivals expected over 10s at 100/s.
	if len(got) < 800 || len(got) > 1200 {
		t.Fatalf("arrivals = %d, want ~1000", len(got))
	}
	for _, r := range got[:10] {
		if r.Workload != "oltp" || r.Priority != policy.PriorityHigh {
			t.Fatalf("labeling wrong: %+v", r)
		}
		if r.True.CPUWork <= 0 {
			t.Fatal("no CPU work")
		}
		if len(r.SQL) == 0 {
			t.Fatal("no statement text")
		}
		if r.Est.Timerons <= 0 {
			t.Fatal("no timeron estimate")
		}
	}
	// IDs unique and increasing.
	seen := map[int64]bool{}
	for _, r := range got {
		if seen[r.ID] {
			t.Fatal("duplicate request ID")
		}
		seen[r.ID] = true
	}
}

func TestOLTPGenDeterminism(t *testing.T) {
	runOnce := func() []int64 {
		s := sim.New(7)
		g := &OLTPGen{WorkloadName: "oltp", Rate: 50, Seq: &Sequence{}}
		var ids []int64
		var times []sim.Time
		g.Start(s, sim.Time(5*sim.Second), func(r *Request) {
			ids = append(ids, r.ID)
			times = append(times, r.Arrive)
		})
		s.RunAll(1 << 20)
		out := append([]int64{}, ids...)
		for _, tt := range times {
			out = append(out, int64(tt))
		}
		return out
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatal("different lengths across identical runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic generation")
		}
	}
}

func TestBIGenCostsDwarfOLTP(t *testing.T) {
	s := sim.New(1)
	seq := &Sequence{}
	em := NewEstimateModel(s.RNG().Fork(99), 0.3)
	bi := &BIGen{WorkloadName: "bi", Rate: 2, Priority: policy.PriorityMedium,
		SLO: policy.BestEffort(), Seq: seq, Est: em}
	var reqs []*Request
	bi.Start(s, sim.Time(20*sim.Second), func(r *Request) { reqs = append(reqs, r) })
	s.RunAll(1 << 20)
	if len(reqs) < 10 {
		t.Fatalf("BI arrivals = %d", len(reqs))
	}
	for _, r := range reqs {
		if r.True.CPUWork < 0.5 {
			t.Fatalf("BI query too cheap: %+v", r.True)
		}
		if r.Type != sqlmini.StmtRead {
			t.Fatalf("BI type = %v", r.Type)
		}
	}
}

func TestEstimateModelNoise(t *testing.T) {
	rng := sim.NewRNG(5)
	em := NewEstimateModel(rng, 0.5)
	cat := sqlmini.DefaultCatalog()
	cm := sqlmini.NewCostModel(cat)
	plan, err := cm.PlanSQL("SELECT COUNT(*) FROM sales_fact")
	if err != nil {
		t.Fatal(err)
	}
	var ratioSum float64
	const n = 500
	for i := 0; i < n; i++ {
		est, spec := em.FromPlan(plan, 2)
		if est.CPUSeconds != sqlmini.CostOf(plan).CPUSeconds {
			t.Fatal("estimate should equal plan totals")
		}
		ratioSum += spec.CPUWork / est.CPUSeconds
	}
	mean := ratioSum / n
	if math.Abs(mean-1) > 0.1 {
		t.Fatalf("true/est ratio mean = %v, want ~1 (unbiased)", mean)
	}
	// Exact estimates with sigma 0.
	em0 := NewEstimateModel(rng, 0)
	_, spec := em0.FromPlan(plan, 2)
	if spec.CPUWork != sqlmini.CostOf(plan).CPUSeconds {
		t.Fatal("sigma=0 should be exact")
	}
}

func TestBatchGen(t *testing.T) {
	s := sim.New(1)
	seq := &Sequence{}
	g := &BatchGen{
		WorkloadName: "reports",
		At:           sim.Time(5 * sim.Second),
		Count:        25,
		Priority:     policy.PriorityLow,
		SLO:          policy.PercentileResponseTime(90, 10*sim.Minute),
		Draw: func(i int, now sim.Time) *Request {
			return &Request{ID: seq.Next(), SQL: []byte("SELECT id FROM orders"), Arrive: now}
		},
	}
	var got []*Request
	g.Start(s, sim.Time(sim.Minute), func(r *Request) { got = append(got, r) })
	s.RunAll(1000)
	if len(got) != 25 {
		t.Fatalf("batch size = %d", len(got))
	}
	for _, r := range got {
		if r.Arrive != sim.Time(5*sim.Second) || r.Workload != "reports" {
			t.Fatalf("batch labeling: %+v", r)
		}
	}
	// A batch past the horizon produces nothing.
	s2 := sim.New(1)
	g.At = sim.Time(2 * sim.Minute)
	count := 0
	g.Start(s2, sim.Time(sim.Minute), func(*Request) { count++ })
	s2.RunAll(1000)
	if count != 0 {
		t.Fatal("batch past horizon fired")
	}
}

func TestUtilityGenKinds(t *testing.T) {
	for _, kind := range []string{"backup", "reorg", "runstats"} {
		s := sim.New(1)
		g := &UtilityGen{WorkloadName: "util", Times: []sim.Time{sim.Time(sim.Second)},
			Priority: policy.PriorityLow, Seq: &Sequence{}, Kind: kind}
		var got []*Request
		g.Start(s, sim.Time(sim.Minute), func(r *Request) { got = append(got, r) })
		s.RunAll(100)
		if len(got) != 1 {
			t.Fatalf("%s: got %d requests", kind, len(got))
		}
		if got[0].True.IOWork < 500 {
			t.Fatalf("%s: utility should be IO-heavy: %+v", kind, got[0].True)
		}
		if got[0].Type != sqlmini.StmtCall {
			t.Fatalf("%s: type = %v", kind, got[0].Type)
		}
	}
}

func TestAdHocGenMonsters(t *testing.T) {
	s := sim.New(3)
	g := &AdHocGen{WorkloadName: "adhoc", Rate: 5, Priority: policy.PriorityLow,
		SLO: policy.BestEffort(), Seq: &Sequence{}, MonsterProb: 0.5}
	var monsters, normal int
	g.Start(s, sim.Time(60*sim.Second), func(r *Request) {
		if r.True.CPUWork > 10 {
			monsters++
			// Monsters are underestimated.
			if r.Est.CPUSeconds >= r.True.CPUWork/2 {
				t.Fatalf("monster not underestimated: est=%v true=%v", r.Est.CPUSeconds, r.True.CPUWork)
			}
		} else {
			normal++
		}
	})
	s.RunAll(1 << 20)
	if monsters == 0 || normal == 0 {
		t.Fatalf("monsters=%d normal=%d; want a mix", monsters, normal)
	}
}

func TestRequestString(t *testing.T) {
	r := &Request{ID: 1, Workload: "w", Priority: policy.PriorityHigh}
	if r.String() == "" {
		t.Fatal("empty string")
	}
}

func TestTimerons(t *testing.T) {
	if TimeronsOf(1, 0) != 1000 || TimeronsOf(0, 1) != 10 {
		t.Fatal("timeron constants changed unexpectedly")
	}
}

func TestPoissonRateZero(t *testing.T) {
	s := sim.New(1)
	g := &OLTPGen{WorkloadName: "idle", Rate: 0, Seq: &Sequence{}}
	count := 0
	g.Start(s, sim.Time(10*sim.Second), func(*Request) { count++ })
	s.RunAll(10)
	if count != 0 {
		t.Fatal("rate 0 generated arrivals")
	}
}
