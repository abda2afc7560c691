package execctl

import (
	"testing"

	"dbwlm/internal/sqlmini"
)

func biPlan(t *testing.T) *sqlmini.Plan {
	t.Helper()
	cm := sqlmini.NewCostModel(sqlmini.DefaultCatalog())
	p, err := cm.PlanSQL(`SELECT store_id, SUM(amount) FROM sales_fact
		JOIN store_dim ON sales_fact.store_id = store_dim.id
		GROUP BY store_id ORDER BY store_id`)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSuspendCostsFromPlanBoundaries(t *testing.T) {
	plan := biPlan(t)
	n := len(plan.Operators())

	// At zero progress nothing is saved or redone.
	costs := SuspendCostsFromPlan(plan, 0, 0.1)
	if len(costs) != n {
		t.Fatalf("costs = %d ops, want %d", len(costs), n)
	}
	for _, c := range costs {
		if c.StateMB != 0 || c.RedoSeconds != 0 {
			t.Fatalf("zero progress should be free: %+v", c)
		}
	}

	// At exactly a checkpoint boundary there is no redo at all.
	costs = SuspendCostsFromPlan(plan, 0.2, 0.1)
	var redo float64
	for _, c := range costs {
		redo += c.RedoSeconds
	}
	if redo > 1e-9 {
		t.Fatalf("redo at checkpoint boundary = %v, want 0", redo)
	}

	// Mid-interval: redo equals the work since the last checkpoint.
	costs = SuspendCostsFromPlan(plan, 0.25, 0.1)
	redo = 0
	for _, c := range costs {
		redo += c.RedoSeconds
	}
	want := 0.05 * sqlmini.CostOf(plan).CPUSeconds
	if redo < want*0.9 || redo > want*1.1 {
		t.Fatalf("redo = %v, want ~%v (5%% of total CPU)", redo, want)
	}
}

func TestSuspendCostsStateGrowsWithProgress(t *testing.T) {
	plan := biPlan(t)
	sum := func(progress float64) float64 {
		var s float64
		for _, c := range SuspendCostsFromPlan(plan, progress, 0.1) {
			s += c.StateMB
		}
		return s
	}
	early := sum(0.1)
	late := sum(0.9)
	if late <= early {
		t.Fatalf("dumpable state should grow with progress: %v -> %v", early, late)
	}
	// And never exceeds the plan's total state.
	if total := sqlmini.CostOf(plan).StateMB; late > total+1e-9 {
		t.Fatalf("state %v exceeds plan total %v", late, total)
	}
}

func TestSuspendCostsFeedOptimizer(t *testing.T) {
	plan := biPlan(t)
	costs := SuspendCostsFromPlan(plan, 0.55, 0.1)
	p := OptimalSuspendPlan(costs, 800, 0.25)
	if p.SuspendSeconds > 0.25+1e-9 {
		t.Fatalf("optimizer violated budget: %v", p.SuspendSeconds)
	}
	if len(p.Choices) != len(costs) {
		t.Fatal("choice count mismatch")
	}
}

func TestSuspendCostsEmptyAndDegenerate(t *testing.T) {
	if got := SuspendCostsFromPlan(&sqlmini.Plan{}, 0.5, 0.1); got != nil {
		t.Fatal("empty plan should return nil")
	}
}
