package characterize

import (
	"math"
	"testing"
	"testing/quick"

	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
	"dbwlm/internal/sqlmini"
	"dbwlm/internal/workload"
)

func req(app, user string, typ sqlmini.StatementType, timerons, rows float64) *workload.Request {
	return &workload.Request{
		Origin: workload.Origin{App: app, User: user, ClientIP: "10.0.0.1"},
		Type:   typ,
		Est:    workload.Estimates{Timerons: timerons, Rows: rows},
	}
}

func TestOriginMatcher(t *testing.T) {
	m := OriginMatcher{App: "pos-terminal"}
	if !m.Match(req("pos-terminal", "x", sqlmini.StmtRead, 1, 1)) {
		t.Fatal("app match failed")
	}
	if m.Match(req("other", "x", sqlmini.StmtRead, 1, 1)) {
		t.Fatal("wrong app matched")
	}
	// Wildcards.
	if !(OriginMatcher{}).Match(req("a", "b", sqlmini.StmtRead, 1, 1)) {
		t.Fatal("empty matcher should match everything")
	}
}

func TestTypeMatcherBounds(t *testing.T) {
	m := TypeMatcher{
		Types:       []sqlmini.StatementType{sqlmini.StmtRead},
		MinTimerons: 1000,
		MaxRows:     500000,
	}
	if !m.Match(req("a", "u", sqlmini.StmtRead, 5000, 100)) {
		t.Fatal("in-bounds read rejected")
	}
	if m.Match(req("a", "u", sqlmini.StmtWrite, 5000, 100)) {
		t.Fatal("write matched read-only matcher")
	}
	if m.Match(req("a", "u", sqlmini.StmtRead, 500, 100)) {
		t.Fatal("below-min cost matched")
	}
	if m.Match(req("a", "u", sqlmini.StmtRead, 5000, 1e6)) {
		t.Fatal("above-max rows matched")
	}
}

func TestCriteriaAndCombinators(t *testing.T) {
	big := CriteriaFunc{Name: "big", Fn: func(r *workload.Request) bool { return r.Est.Timerons > 100 }}
	fromApp := OriginMatcher{App: "bi"}
	and := All{big, fromApp}
	or := Any{big, fromApp}
	r1 := req("bi", "u", sqlmini.StmtRead, 500, 1)  // both
	r2 := req("bi", "u", sqlmini.StmtRead, 1, 1)    // app only
	r3 := req("pos", "u", sqlmini.StmtRead, 500, 1) // big only
	r4 := req("pos", "u", sqlmini.StmtRead, 1, 1)   // neither
	if !and.Match(r1) || and.Match(r2) || and.Match(r3) {
		t.Fatal("All combinator wrong")
	}
	if !or.Match(r1) || !or.Match(r2) || !or.Match(r3) || or.Match(r4) {
		t.Fatal("Any combinator wrong")
	}
}

func TestRouterClassification(t *testing.T) {
	router := NewRouter(nil).
		AddClass(&ServiceClass{Name: "gold", Priority: policy.PriorityHigh}).
		AddClass(&ServiceClass{Name: "bronze", Priority: policy.PriorityLow}).
		AddDef(&WorkloadDef{
			Name: "oltp", Match: OriginMatcher{App: "pos"}, ServiceClass: "gold",
			Priority: policy.PriorityCritical, HasPriority: true,
		}).
		AddDef(&WorkloadDef{
			Name: "bi", Match: TypeMatcher{MinTimerons: 1000}, ServiceClass: "bronze",
		})
	r := req("pos", "cashier", sqlmini.StmtWrite, 10, 1)
	def, cls := router.Classify(r)
	if def == nil || def.Name != "oltp" || cls.Name != "gold" {
		t.Fatalf("classify = %v, %v", def, cls)
	}
	if r.Workload != "oltp" || r.Priority != policy.PriorityCritical {
		t.Fatalf("request not labeled: %+v", r)
	}
	// Second def by cost.
	r2 := req("any", "x", sqlmini.StmtRead, 50000, 1)
	def2, cls2 := router.Classify(r2)
	if def2.Name != "bi" || cls2.Name != "bronze" {
		t.Fatalf("classify = %v %v", def2, cls2)
	}
	// Unmatched goes to default, definition nil.
	r3 := req("any", "x", sqlmini.StmtRead, 10, 1)
	def3, cls3 := router.Classify(r3)
	if def3 != nil || cls3.Name != "default" {
		t.Fatalf("default routing = %v %v", def3, cls3)
	}
	// Def pointing at a missing class falls back to default.
	router.AddDef(&WorkloadDef{Name: "ghost", Match: OriginMatcher{App: "ghost"}, ServiceClass: "nope"})
	_, cls4 := router.Classify(req("ghost", "x", sqlmini.StmtRead, 10, 1))
	if cls4.Name != "default" {
		t.Fatal("missing class did not fall back")
	}
	if len(router.defs) != 3 || router.Class("gold") == nil || router.Default() == nil {
		t.Fatal("accessors wrong")
	}
}

func TestServiceClassWeights(t *testing.T) {
	c := &ServiceClass{Name: "c", Priority: policy.PriorityHigh}
	if c.EffectiveWeight() != policy.PriorityHigh.Weight() {
		t.Fatal("weight should default to priority weight")
	}
	c.Weight = 10
	if c.EffectiveWeight() != 10 {
		t.Fatal("explicit weight ignored")
	}
	c.Tiers = []ServiceTier{{"t0", 8}, {"t1", 4}, {"t2", 1}}
	if c.EffectiveWeight() != 8 {
		t.Fatal("tiered weight should be top tier")
	}
}

func TestPoolSetValidation(t *testing.T) {
	_, err := NewPoolSet(
		&ResourcePool{Name: "a", MinCPU: 0.6, MaxCPU: 1},
		&ResourcePool{Name: "b", MinCPU: 0.6, MaxCPU: 1},
	)
	if err == nil {
		t.Fatal("MIN sum > 100% accepted")
	}
	_, err = NewPoolSet(&ResourcePool{Name: "a", MinCPU: 0.5, MaxCPU: 0.2})
	if err == nil {
		t.Fatal("MAX < MIN accepted")
	}
	_, err = NewPoolSet(
		&ResourcePool{Name: "a", MinCPU: 0.2, MaxCPU: 1, MaxMem: 1},
		&ResourcePool{Name: "a", MinCPU: 0.1, MaxCPU: 1, MaxMem: 1},
	)
	if err == nil {
		t.Fatal("duplicate pool accepted")
	}
}

func TestPoolAllocation(t *testing.T) {
	ps, err := NewPoolSet(
		&ResourcePool{Name: "oltp", MinCPU: 0.5, MaxCPU: 1.0, MaxMem: 1},
		&ResourcePool{Name: "bi", MinCPU: 0.2, MaxCPU: 0.4, MaxMem: 1},
		&ResourcePool{Name: "default", MinCPU: 0, MaxCPU: 1.0, MaxMem: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	const oltp, bi = 0, 1
	// Everyone demanding: oltp >= 0.5, bi in [0.2, 0.4], total <= 1.
	alloc := ps.AllocateCPU([]bool{true, true, true}, nil)
	if alloc[oltp] < 0.5 {
		t.Fatalf("oltp below MIN: %v", alloc)
	}
	if alloc[bi] < 0.2 || alloc[bi] > 0.4+1e-9 {
		t.Fatalf("bi outside [MIN,MAX]: %v", alloc)
	}
	var total float64
	for _, v := range alloc {
		total += v
	}
	if total > 1+1e-9 {
		t.Fatalf("allocation exceeds capacity: %v", alloc)
	}
	// Idle pools release their reservation: bi alone can reach its MAX. The
	// call writes over the previous result's array.
	again := ps.AllocateCPU([]bool{false, true, false}, alloc)
	if &again[0] != &alloc[0] {
		t.Fatal("shares array not reused")
	}
	if math.Abs(again[bi]-0.4) > 1e-9 {
		t.Fatalf("solo bi should hit MAX 0.4: %v", again)
	}
	if again[oltp] != 0 {
		t.Fatal("idle pool allocated")
	}
	// No demand at all.
	for i, v := range ps.AllocateCPU(nil, nil) {
		if v != 0 {
			t.Fatalf("idle allocation %d=%v", i, v)
		}
	}
}

// refAllocateCPU is AllocateCPU as it was when it took demand and returned
// shares in maps keyed by pool name.
func refAllocateCPU(s *PoolSet, demand map[string]bool) map[string]float64 {
	out := make(map[string]float64, len(s.pools))
	var demanding []*ResourcePool
	var reservedIdle float64
	for _, p := range s.pools {
		if demand[p.Name] {
			demanding = append(demanding, p)
			out[p.Name] = p.MinCPU
		} else {
			out[p.Name] = 0
			reservedIdle += p.MinCPU
		}
	}
	if len(demanding) == 0 {
		return out
	}
	var reservedAll float64
	for _, p := range s.pools {
		reservedAll += p.MinCPU
	}
	free := (1 - reservedAll) + reservedIdle
	remaining := free
	open := append([]*ResourcePool(nil), demanding...)
	for remaining > 1e-12 && len(open) > 0 {
		share := remaining / float64(len(open))
		var next []*ResourcePool
		progressed := false
		for _, p := range open {
			room := p.MaxCPU - out[p.Name]
			if room <= share {
				out[p.Name] += room
				remaining -= room
				progressed = true
			} else {
				next = append(next, p)
			}
		}
		if !progressed {
			for _, p := range next {
				out[p.Name] += share
				remaining -= share
			}
			break
		}
		open = next
	}
	return out
}

func TestPoolAllocationInvariantProperty(t *testing.T) {
	// Property: for random valid pool sets and demand patterns, allocations
	// respect MIN (when demanding), MAX, and sum <= 1, and are bit for bit
	// the map-keyed reference's.
	var shares []float64
	f := func(mins [3]uint8, maxs [3]uint8, demand [3]bool) bool {
		pools := make([]*ResourcePool, 3)
		var sumMin float64
		for i := range pools {
			mn := float64(mins[i]%30) / 100 // 0..0.29 so sum <= 0.87
			mx := mn + float64(maxs[i]%50)/100
			if mx > 1 {
				mx = 1
			}
			pools[i] = &ResourcePool{Name: string(rune('a' + i)), MinCPU: mn, MaxCPU: mx, MaxMem: 1}
			sumMin += mn
		}
		ps, err := NewPoolSet(pools...)
		if err != nil {
			return true // invalid set correctly rejected
		}
		d := map[string]bool{}
		for i, want := range demand {
			if want {
				d[pools[i].Name] = true
			}
		}
		shares = ps.AllocateCPU(demand[:], shares)
		ref := refAllocateCPU(ps, d)
		var total float64
		for i, p := range pools {
			a := shares[i]
			if math.Float64bits(a) != math.Float64bits(ref[p.Name]) {
				return false
			}
			if demand[i] && a < p.MinCPU-1e-9 {
				return false
			}
			if a > p.MaxCPU+1e-9 {
				return false
			}
			total += a
		}
		return total <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// genWindows builds labeled training windows from the synthetic generators.
func genWindows(t *testing.T, seed uint64, perType int) []LabeledWindow {
	t.Helper()
	var windows []LabeledWindow
	collect := func(g workload.Generator, horizon sim.Time, seedOff uint64) []*workload.Request {
		s := sim.New(seed + seedOff)
		var reqs []*workload.Request
		g.Start(s, horizon, func(r *workload.Request) { reqs = append(reqs, r) })
		s.RunAll(1 << 22)
		return reqs
	}
	for i := 0; i < perType; i++ {
		off := uint64(i) * 101
		oltp := collect(&workload.OLTPGen{WorkloadName: "oltp", Rate: 80, Seq: &workload.Sequence{}},
			sim.Time(5*sim.Second), off)
		windows = append(windows, LabeledWindow{Requests: oltp, Label: TypeOLTP})

		s := sim.New(seed + off + 7)
		em := workload.NewEstimateModel(s.RNG().Fork(3), 0.2)
		var olap []*workload.Request
		bg := &workload.BIGen{WorkloadName: "bi", Rate: 3, Seq: &workload.Sequence{}, Est: em}
		bg.Start(s, sim.Time(20*sim.Second), func(r *workload.Request) { olap = append(olap, r) })
		s.RunAll(1 << 22)
		windows = append(windows, LabeledWindow{Requests: olap, Label: TypeOLAP})

		mixed := append(append([]*workload.Request{}, oltp[:len(oltp)/2]...), olap...)
		windows = append(windows, LabeledWindow{Requests: mixed, Label: TypeMixed})
	}
	return windows
}

func TestDynamicClassifierIdentifiesWorkloadTypes(t *testing.T) {
	train := genWindows(t, 1, 8)
	test := genWindows(t, 1000, 4)
	c := TrainDynamicClassifier(train)
	right := 0
	for _, w := range test {
		if c.Classify(w.Requests) == w.Label {
			right++
		}
	}
	if acc := float64(right) / float64(len(test)); acc < 0.8 {
		t.Fatalf("tree classifier accuracy = %v, want >= 0.8", acc)
	}
}

func TestSnapshotFeaturesEmpty(t *testing.T) {
	f := SnapshotFeatures(nil)
	if len(f) != 5 {
		t.Fatalf("feature vector length %d", len(f))
	}
}

func TestWorkloadTypeString(t *testing.T) {
	if TypeOLTP.String() != "OLTP" || TypeOLAP.String() != "OLAP" || TypeMixed.String() != "MIXED" {
		t.Fatal("type names wrong")
	}
}
