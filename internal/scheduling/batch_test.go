package scheduling

import (
	"testing"
	"testing/quick"

	"dbwlm/internal/workload"
)

func bq(id int64, memMB float64, tables ...string) BatchQuery {
	return BatchQuery{
		Req: &workload.Request{ID: id,
			Est: workload.Estimates{MemMB: memMB, Timerons: float64(id)}},
		Tables: tables,
	}
}

func TestInteractionScore(t *testing.T) {
	m := InteractionModel{MemoryMB: 1000}
	a := bq(1, 300, "sales", "dates")
	b := bq(2, 300, "sales")
	c := bq(3, 900, "inventory")
	if got := m.Score(a, b); got != 1 {
		t.Fatalf("shared-scan score = %v, want 1", got)
	}
	// a+c overflow 1000 by 200 -> penalty 2, no shared tables.
	if got := m.Score(a, c); got != -2 {
		t.Fatalf("overflow score = %v, want -2", got)
	}
}

func TestPlanBatchGroupsSharedScans(t *testing.T) {
	m := InteractionModel{MemoryMB: 100000}
	batch := []BatchQuery{
		bq(1, 10, "sales"),
		bq(2, 10, "inventory"),
		bq(3, 10, "sales"),
		bq(4, 10, "inventory"),
		bq(5, 10, "sales"),
	}
	order := PlanBatch(batch, m)
	if len(order) != 5 {
		t.Fatalf("order length = %d", len(order))
	}
	// All sales queries adjacent, all inventory queries adjacent: the order
	// score equals 3 (two sales adjacencies + one inventory adjacency).
	if got := m.OrderScore(order); got != 3 {
		t.Fatalf("order score = %v, want 3 (fully grouped); order=%v", got, ids(order))
	}
}

func TestPlanBatchSeparatesMemoryHogs(t *testing.T) {
	m := InteractionModel{MemoryMB: 1000}
	batch := []BatchQuery{
		bq(1, 900, "a"),
		bq(2, 900, "b"),
		bq(3, 10, "c"),
		bq(4, 10, "d"),
	}
	order := PlanBatch(batch, m)
	// The two hogs must not be adjacent (adjacency costs -8).
	for i := 0; i+1 < len(order); i++ {
		if order[i].Req.Est.MemMB > 500 && order[i+1].Req.Est.MemMB > 500 {
			t.Fatalf("memory hogs adjacent: %v", ids(order))
		}
	}
}

func TestPlanBatchNeverWorseThanInputOrder(t *testing.T) {
	f := func(mems [7]uint8, tbls [7]uint8) bool {
		names := []string{"s", "i", "d", "p"}
		m := InteractionModel{MemoryMB: 300}
		var batch []BatchQuery
		for i := 0; i < 7; i++ {
			batch = append(batch, bq(int64(i+1), float64(mems[i]%200)+10, names[tbls[i]%4]))
		}
		planned := PlanBatch(batch, m)
		if len(planned) != len(batch) {
			return false
		}
		// Permutation check.
		seen := map[int64]bool{}
		for _, q := range planned {
			if seen[q.Req.ID] {
				return false
			}
			seen[q.Req.ID] = true
		}
		return m.OrderScore(planned) >= m.OrderScore(batch)-1e-9
	}
	// The greedy seed's local optimum scores 1.26 on this batch against 1.44
	// for the input order.
	if !f([7]uint8{0xc5, 0x70, 0xae, 0xa5, 0x95, 0x74, 0xc0}, [7]uint8{0x78, 0xe4, 0xce, 0x85, 0x83, 0xdf, 0x6f}) {
		t.Fatal("planned order scores below the input order on the pinned counterexample")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanBatchSmall(t *testing.T) {
	m := InteractionModel{}
	if got := PlanBatch(nil, m); len(got) != 0 {
		t.Fatal("empty batch")
	}
	one := []BatchQuery{bq(1, 10, "t")}
	if got := PlanBatch(one, m); len(got) != 1 {
		t.Fatal("singleton batch")
	}
}

func ids(order []BatchQuery) []int64 {
	out := make([]int64, len(order))
	for i, q := range order {
		out[i] = q.Req.ID
	}
	return out
}
