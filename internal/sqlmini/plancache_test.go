package sqlmini

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// Plan and PlanInfo are the string-typed forms these tests are written
// against, over PlanInfoBytes.
func (c *PlanCache) Plan(sql string) (*CachedPlan, error) {
	e, _, err := c.PlanInfo(sql)
	return e, err
}

func (c *PlanCache) PlanInfo(sql string) (entry *CachedPlan, hit bool, err error) {
	return c.PlanInfoBytes([]byte(sql))
}

// corpus is a spread of statement shapes across the dialect.
var cacheCorpus = []string{
	"SELECT id, name FROM customers WHERE id = 42",
	"SELECT * FROM orders",
	"SELECT DISTINCT region FROM store_dim ORDER BY region LIMIT 5",
	"SELECT d.year, SUM(f.amount) FROM sales_fact f JOIN date_dim d ON f.date_id = d.id GROUP BY d.year",
	"SELECT COUNT(*) FROM orders WHERE total > 100 AND region = 'west'",
	"INSERT INTO orders (id, total) VALUES (1, 10), (2, 20), (3, 30)",
	"UPDATE accounts SET balance = balance + 10 WHERE id = 7",
	"DELETE FROM orders WHERE id = 9",
	"CREATE INDEX idx ON orders",
	"LOAD INTO sales_fact 50000",
	"CALL nightly_etl",
}

func TestFingerprintStripsLiterals(t *testing.T) {
	same := [][2]string{
		{"SELECT a FROM t WHERE id = 42", "SELECT a FROM t WHERE id = 99999"},
		{"SELECT a FROM t WHERE name = 'bob'", "SELECT a FROM t WHERE name = 'alice'"},
		{"select A from T where ID = 1", "SELECT a FROM t WHERE id = 2"},
		{"SELECT a FROM t -- comment\nWHERE x = 1", "SELECT a  FROM  t WHERE x = 2"},
		{"SELECT a FROM t WHERE x BETWEEN 1 AND 5", "SELECT a FROM t WHERE x BETWEEN 10 AND 50"},
		{"INSERT INTO t (a, b) VALUES (1, 2)", "INSERT INTO t (a, b) VALUES (7, 8)"},
	}
	for _, pair := range same {
		if FingerprintSQL(pair[0]) != FingerprintSQL(pair[1]) {
			t.Errorf("fingerprints differ:\n  %q\n  %q", pair[0], pair[1])
		}
	}
	diff := [][2]string{
		{"SELECT a FROM t", "SELECT b FROM t"},
		{"SELECT a FROM t", "SELECT a FROM u"},
		{"SELECT a FROM t WHERE x = 1", "SELECT a FROM t WHERE x > 1"},
		// Cost-relevant literals stay significant.
		{"SELECT a FROM t LIMIT 5", "SELECT a FROM t LIMIT 500"},
		{"LOAD INTO t 100", "LOAD INTO t 100000"},
		// VALUES row count is structural.
		{"INSERT INTO t (a) VALUES (1)", "INSERT INTO t (a) VALUES (1), (2)"},
		{"SELECT a, b FROM t", "SELECT ab FROM t"},
	}
	for _, pair := range diff {
		if FingerprintSQL(pair[0]) == FingerprintSQL(pair[1]) {
			t.Errorf("fingerprints collide:\n  %q\n  %q", pair[0], pair[1])
		}
	}
}

func TestFingerprintZeroAlloc(t *testing.T) {
	sql := cacheCorpus[3]
	if avg := testing.AllocsPerRun(1000, func() {
		_ = FingerprintSQL(sql)
	}); avg != 0 {
		t.Fatalf("FingerprintSQL allocates %v allocs/op, want 0", avg)
	}
}

// TestPlanCacheEquivalence pins the acceptance criterion: a cached entry
// carries the costs of a freshly built plan, under the statement's own
// fingerprint, for every corpus shape, both on the miss that populates it and
// on later hits.
func TestPlanCacheEquivalence(t *testing.T) {
	model := NewCostModel(DefaultCatalog())
	cache := NewPlanCache(model, 64, 4)
	for _, sql := range cacheCorpus {
		fresh, err := model.PlanSQL(sql)
		if err != nil {
			t.Fatalf("PlanSQL(%q): %v", sql, err)
		}
		miss, err := cache.Plan(sql)
		if err != nil {
			t.Fatalf("cache.Plan(%q): %v", sql, err)
		}
		hit, err := cache.Plan(sql)
		if err != nil {
			t.Fatal(err)
		}
		if miss != hit {
			t.Fatalf("%q: hit returned a different entry than the populating miss", sql)
		}
		if hit.FP != FingerprintSQL(sql) {
			t.Fatalf("%q cached under %v, not its fingerprint", sql, hit.FP)
		}
		if got, want := hit.Cost, CostOf(fresh); got != want {
			t.Fatalf("%q cached cost %+v != fresh %+v", sql, got, want)
		}
	}
	// Literal-variant statements hit the entry their shape populated.
	a, _ := cache.Plan("SELECT id, name FROM customers WHERE id = 42")
	b, err := cache.Plan("SELECT id, name FROM customers WHERE id = 77")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("literal variant missed the cache")
	}
}

func TestPlanCacheErrorsNotCached(t *testing.T) {
	cache := NewPlanCache(NewCostModel(DefaultCatalog()), 16, 1)
	for i := 0; i < 2; i++ {
		if _, err := cache.Plan("SELECT FROM WHERE"); err == nil {
			t.Fatal("expected parse error")
		}
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Fatalf("error statement was cached: %+v", st)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	// One shard, capacity 2: the least-recently-touched entry is evicted.
	cache := NewPlanCache(NewCostModel(DefaultCatalog()), 2, 1)
	q := func(i int) string { return fmt.Sprintf("SELECT c%d FROM orders", i) }
	mustPlan := func(sql string) *CachedPlan {
		t.Helper()
		e, err := cache.Plan(sql)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e0 := mustPlan(q(0))
	mustPlan(q(1))
	mustPlan(q(0)) // touch 0 so 1 is now LRU
	mustPlan(q(2)) // evicts 1
	if cache.Lookup(FingerprintSQL(q(1))) != nil {
		t.Fatal("LRU entry q1 survived eviction")
	}
	if got := cache.Lookup(FingerprintSQL(q(0))); got != e0 {
		t.Fatal("recently touched q0 was evicted")
	}
	if st := cache.Stats(); st.Entries != 2 {
		t.Fatalf("entries %d, want 2", st.Entries)
	}
}

func TestPlanCacheHitZeroAlloc(t *testing.T) {
	cache := NewPlanCache(NewCostModel(DefaultCatalog()), 64, 4)
	sql := []byte(cacheCorpus[3])
	if _, _, err := cache.PlanInfoBytes(sql); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		e, hit, err := cache.PlanInfoBytes(sql)
		if err != nil || e == nil || !hit {
			t.Fatal("unexpected miss")
		}
	}); avg != 0 {
		t.Fatalf("cache hit allocates %v allocs/op, want 0", avg)
	}
}

// TestPlanCacheConcurrent exercises the lock-free read path against writers;
// run under -race via make race.
func TestPlanCacheConcurrent(t *testing.T) {
	cache := NewPlanCache(NewCostModel(DefaultCatalog()), 8, 2)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sql := fmt.Sprintf("SELECT c%d FROM orders WHERE id = %d", (w+i)%12, i)
				e, err := cache.Plan(sql)
				if err != nil || e == nil {
					t.Errorf("plan: %v", err)
					return
				}
				if e.Cost.CPUSeconds <= 0 {
					t.Error("zero-cost cached plan")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := cache.Stats(); st.Entries > 8 {
		t.Fatalf("cache overflowed its capacity: %+v", st)
	}
}

// BenchmarkPlanCacheHit prices the hot path: fingerprint + lock-free lookup.
// The acceptance criterion wants >= 10x speedup over the miss path and 0
// allocs/op here.
func BenchmarkPlanCacheHit(b *testing.B) {
	cache := NewPlanCache(NewCostModel(DefaultCatalog()), 1024, 8)
	sql := cacheCorpus[3]
	if _, err := cache.Plan(sql); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.Plan(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCacheMiss prices the cold path the cache skips: a full
// parse+plan (plus fingerprint and insert) for the same statement shape, into
// an empty cache — small, so building it is not what gets timed. The miss the
// live path pays, into a full cache, is BenchmarkPlanCacheMissEvict.
func BenchmarkPlanCacheMiss(b *testing.B) {
	model := NewCostModel(DefaultCatalog())
	sql := cacheCorpus[3]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cache := NewPlanCache(model, 8, 1)
		if _, err := cache.Plan(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanUncached is the no-cache baseline (pure parse+plan).
func BenchmarkPlanUncached(b *testing.B) {
	model := NewCostModel(DefaultCatalog())
	sql := cacheCorpus[3]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := model.PlanSQL(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPlanMissAllocBudget caps what a miss allocates on the live path: a
// full cache, so the insert evicts. Parsing from the scanner without a token
// list or an upper-cased copy per word, and costing without four operator
// lists, keep it under half the 36 allocations the plan-keeping miss made and
// under 2 KiB.
func TestPlanMissAllocBudget(t *testing.T) {
	cache := NewPlanCache(NewCostModel(DefaultCatalog()), 256, 1)
	stmts := genStatements(t, 2048, 9)
	texts := make([][]byte, len(stmts))
	for i, sql := range stmts {
		texts[i] = []byte(sql)
	}
	for _, sql := range texts[:256] {
		if _, _, err := cache.PlanInfoBytes(sql); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 1000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 256; i < 256+runs; i++ {
		_, hit, err := cache.PlanInfoBytes(texts[i%len(texts)])
		if err != nil || hit {
			t.Fatalf("statement %d: hit %v, err %v", i, hit, err)
		}
	}
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / runs
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	t.Logf("a miss allocates %.1f times, %.0f bytes", allocs, bytes)
	if allocs > 18 {
		t.Fatalf("a plan-cache miss allocates %v times, budget 18", allocs)
	}
	if bytes > 2<<10 {
		t.Fatalf("a plan-cache miss allocates %.0f bytes, budget 2 KiB", bytes)
	}
}

// BenchmarkFingerprintSQL prices the fingerprint alone, over the corpus.
func BenchmarkFingerprintSQL(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = FingerprintSQL(cacheCorpus[i%len(cacheCorpus)])
	}
}
