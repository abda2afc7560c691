package sqlmini

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// testRand is a tiny deterministic generator so generated statements never
// drift (sqlmini stays dependency-free).
type testRand uint64

func (g *testRand) intn(n int) int {
	*g = *g*6364136223846793005 + 1442695040888963407
	return int(uint64(*g) >> 33 % uint64(n))
}

var genCatalog = []struct {
	name string
	cols []string
}{
	{"accounts", []string{"id", "owner_id", "balance", "branch", "opened"}},
	{"orders", []string{"id", "customer_id", "total", "region", "status", "placed"}},
	{"order_items", []string{"order_id", "product_id", "qty", "price", "line_no"}},
	{"customers", []string{"id", "name", "region", "segment", "since"}},
	{"sales_fact", []string{"date_id", "store_id", "product_id", "amount", "units"}},
	{"date_dim", []string{"id", "yr", "mon", "quarter"}},
	{"store_dim", []string{"id", "region", "city", "sqft"}},
	{"product_dim", []string{"id", "category", "brand", "list_price"}},
}

// genStatements returns n statements over the default catalog with pairwise
// distinct fingerprints — the statement population the wire benchmark draws
// from, in miniature: projection list, one to three predicates, optional
// ORDER BY, and a LIMIT whose count is part of the shape.
func genStatements(tb testing.TB, n int, seed uint64) []string {
	tb.Helper()
	g := testRand(seed)
	ops := []string{"=", "<", ">", "<=", ">="}
	seen := make(map[Fingerprint]bool, n)
	out := make([]string, 0, n)
	for attempt := 0; len(out) < n; attempt++ {
		if attempt > 8*n {
			tb.Fatalf("only %d distinct shapes after %d attempts", len(out), attempt)
		}
		t := genCatalog[g.intn(len(genCatalog))]
		sql := "SELECT "
		for i, k := 0, 1+g.intn(4); i < k; i++ {
			if i > 0 {
				sql += ", "
			}
			sql += t.cols[g.intn(len(t.cols))]
		}
		sql += " FROM " + t.name + " WHERE "
		for i, k := 0, 1+g.intn(3); i < k; i++ {
			if i > 0 {
				sql += " AND "
			}
			sql += fmt.Sprintf("%s %s %d", t.cols[g.intn(len(t.cols))], ops[g.intn(len(ops))], g.intn(1000))
		}
		if g.intn(10) < 3 {
			sql += " ORDER BY " + t.cols[g.intn(len(t.cols))]
		}
		if g.intn(10) < 7 {
			sql += fmt.Sprintf(" LIMIT %d", 1+g.intn(5000))
		}
		if fp := FingerprintSQL(sql); !seen[fp] {
			seen[fp] = true
			out = append(out, sql)
		}
	}
	return out
}

// refCache is the reference model the slot array is tested against: per set a
// plain slice of (fingerprint, touch tick) pairs in slot order, one clock per
// shard, and the insert policy spelled out the slow way. It shares only the
// shard and set index functions with the cache.
type refCache struct {
	c      *PlanCache
	sets   map[[2]uint32][]refEntry // (shard, first slot of the set) -> ways
	clocks []int64
}

type refEntry struct {
	fp    Fingerprint
	touch int64
}

func newRefCache(c *PlanCache) *refCache {
	return &refCache{c: c, sets: make(map[[2]uint32][]refEntry), clocks: make([]int64, len(c.shards))}
}

func (r *refCache) candidates(fp Fingerprint) (shard uint32, sets [][]refEntry) {
	shard = uint32(fp.Hi) & r.c.mask
	a, b := r.c.setsOf(fp)
	bases := []uint32{a}
	if b != a {
		bases = append(bases, b)
	}
	for _, base := range bases {
		key := [2]uint32{shard, base}
		if r.sets[key] == nil {
			r.sets[key] = make([]refEntry, r.c.ways)
		}
		sets = append(sets, r.sets[key])
	}
	return shard, sets
}

func (r *refCache) lookup(fp Fingerprint) bool {
	shard, sets := r.candidates(fp)
	for _, set := range sets {
		for i := range set {
			if set[i].fp == fp {
				r.clocks[shard]++
				set[i].touch = r.clocks[shard]
				return true
			}
		}
	}
	return false
}

// insert returns the fingerprint it evicted (zero when none).
func (r *refCache) insert(fp Fingerprint) (victim Fingerprint) {
	shard, sets := r.candidates(fp)
	r.clocks[shard]++
	e := refEntry{fp: fp, touch: r.clocks[shard]}
	free := make([]int, len(sets))
	for s, set := range sets {
		for i := range set {
			if set[i].fp == fp {
				set[i] = e
				return Fingerprint{}
			}
			if set[i].fp.Zero() {
				free[s]++
			}
		}
	}
	into := 0
	if len(sets) == 2 && free[1] > free[0] {
		into = 1
	}
	if free[into] > 0 {
		for i := range sets[into] {
			if sets[into][i].fp.Zero() {
				sets[into][i] = e
				return Fingerprint{}
			}
		}
	}
	var oldest *refEntry
	for _, set := range sets {
		for i := range set {
			if oldest == nil || set[i].touch < oldest.touch {
				oldest = &set[i]
			}
		}
	}
	victim = oldest.fp
	*oldest = e
	return victim
}

// TestPlanCacheMatchesReference drives the cache and the reference model with
// one seeded Plan/Lookup sequence over three geometries (many sets; two sets,
// where both are always candidates; one fully associative set): every call
// hits or misses in both, every eviction takes the same victim, and the
// touched sets agree slot for slot, tick for tick.
func TestPlanCacheMatchesReference(t *testing.T) {
	model := NewCostModel(DefaultCatalog())
	stmts := genStatements(t, 1500, 11)
	fps := make([]Fingerprint, len(stmts))
	for i, sql := range stmts {
		fps[i] = FingerprintSQL(sql)
	}
	for _, geo := range []struct{ capacity, shards int }{{256, 2}, {32, 2}, {12, 1}} {
		cache := NewPlanCache(model, geo.capacity, geo.shards)
		ref := newRefCache(cache)
		g := testRand(uint64(geo.capacity))
		var hits, evictions int
		for op := 0; op < 20000; op++ {
			// Skewed pick: half the traffic on the first 64 shapes.
			i := g.intn(len(stmts))
			if g.intn(2) == 0 {
				i = g.intn(64)
			}
			fp := fps[i]
			if g.intn(4) == 0 {
				got, want := cache.Lookup(fp) != nil, ref.lookup(fp)
				if got != want {
					t.Fatalf("cap %d op %d: Lookup hit %v, reference %v", geo.capacity, op, got, want)
				}
			} else {
				_, hit, err := cache.PlanInfo(stmts[i])
				if err != nil {
					t.Fatal(err)
				}
				want := ref.lookup(fp)
				if hit != want {
					t.Fatalf("cap %d op %d: Plan hit %v, reference %v", geo.capacity, op, hit, want)
				}
				if hit {
					hits++
				} else if victim := ref.insert(fp); !victim.Zero() {
					evictions++
					// Probe the slots directly: a Lookup would touch.
					if slotOf(cache, victim) != nil {
						t.Fatalf("cap %d op %d: reference evicted %v, cache kept it", geo.capacity, op, victim)
					}
				}
			}
			shard, sets := ref.candidates(fp)
			a, b := cache.setsOf(fp)
			for s, base := range []uint32{a, b}[:len(sets)] {
				for w, want := range sets[s] {
					e := cache.shards[shard].slots[base+uint32(w)].Load()
					switch {
					case e == nil && want.fp.Zero():
					case e == nil || e.FP != want.fp || e.touch.Load() != want.touch:
						t.Fatalf("cap %d op %d: shard %d slot %d differs from the reference", geo.capacity, op, shard, base+uint32(w))
					}
				}
			}
		}
		if hits == 0 || evictions == 0 {
			t.Fatalf("cap %d: sequence exercised %d hits, %d evictions", geo.capacity, hits, evictions)
		}
		resident := 0
		for _, set := range ref.sets {
			for _, e := range set {
				if !e.fp.Zero() {
					resident++
				}
			}
		}
		if st := cache.Stats(); st.Entries != resident || st.Entries > geo.capacity {
			t.Fatalf("cap %d: Stats().Entries %d, reference holds %d", geo.capacity, st.Entries, resident)
		}
	}
}

// slotOf finds a resident entry without touching it.
func slotOf(c *PlanCache, fp Fingerprint) *CachedPlan {
	sh := c.shardOf(fp)
	a, b := c.setsOf(fp)
	if e := sh.find(a, c.ways, fp); e != nil {
		return e
	}
	return sh.find(b, c.ways, fp)
}

// TestPlanCacheHalfCapacityResident pins what a plan cache promises and what
// the sqlmini.plan_hit_ns replay assumes: a population of half the capacity
// never evicts itself, so re-reading it is all hits.
func TestPlanCacheHalfCapacityResident(t *testing.T) {
	model := NewCostModel(DefaultCatalog())
	for seed := uint64(1); seed <= 4; seed++ {
		cache := NewPlanCache(model, 4096, 0)
		stmts := genStatements(t, 2048, seed)
		for pass := 0; pass < 2; pass++ {
			for _, sql := range stmts {
				_, hit, err := cache.PlanInfo(sql)
				if err != nil {
					t.Fatal(err)
				}
				if hit != (pass == 1) {
					t.Fatalf("seed %d pass %d: hit %v for %q", seed, pass, hit, sql)
				}
			}
		}
		if st := cache.Stats(); st.Entries != len(stmts) {
			t.Fatalf("seed %d: %d of %d shapes resident", seed, st.Entries, len(stmts))
		}
	}
}

// TestPlanCacheSetOccupancy maps 16 384 real fingerprints onto the default
// geometry and bounds how unevenly either candidate index spreads them. An
// index taken from the low bits of Lo fails here: inside a shard picked by
// Hi's low bits it reaches only every other set, so half the sets stay empty.
func TestPlanCacheSetOccupancy(t *testing.T) {
	cache := NewPlanCache(NewCostModel(DefaultCatalog()), 4096, 0)
	stmts := genStatements(t, 16384, 3)
	sets := len(cache.shards) * int(cache.sets)
	first, second := make([]int, sets), make([]int, sets)
	for _, sql := range stmts {
		fp := FingerprintSQL(sql)
		shard := int(uint32(fp.Hi) & cache.mask)
		a, b := cache.setsOf(fp)
		if a == b || a%cache.ways != 0 || b%cache.ways != 0 {
			t.Fatalf("candidate sets %d, %d are not two distinct set bases", a, b)
		}
		first[shard*int(cache.sets)+int(a/cache.ways)]++
		second[shard*int(cache.sets)+int(b/cache.ways)]++
	}
	mean := float64(len(stmts)) / float64(sets)
	for name, occ := range map[string][]int{"first": first, "second": second} {
		lo, hi := occ[0], occ[0]
		for _, n := range occ {
			lo, hi = min(lo, n), max(hi, n)
		}
		// Poisson(32) over 512 sets stays well inside [mean/2, 2·mean].
		if float64(lo) < mean/2 || float64(hi) > 2*mean {
			t.Errorf("%s candidate: occupancy %d..%d around a mean of %.0f", name, lo, hi, mean)
		}
	}
}

// TestPlanCacheLookupDuringReplace has readers probe one set while a writer
// keeps evicting through it; run under -race via make race. Whatever a reader
// gets back is the plan for the fingerprint it asked for.
func TestPlanCacheLookupDuringReplace(t *testing.T) {
	model := NewCostModel(DefaultCatalog())
	cache := NewPlanCache(model, 8, 1) // one shard, one 8-way set
	stmts := genStatements(t, 64, 5)
	fps := make([]Fingerprint, len(stmts))
	for i, sql := range stmts {
		fps[i] = FingerprintSQL(sql)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			g := testRand(uint64(r))
			for !stop.Load() {
				fp := fps[g.intn(len(fps))]
				if e := cache.Lookup(fp); e != nil && e.FP != fp {
					t.Errorf("Lookup(%v) returned the plan of %v", fp, e.FP)
					return
				}
			}
		}(r)
	}
	for i := 0; i < 4000; i++ {
		if _, err := cache.Plan(stmts[i%len(stmts)]); err != nil {
			t.Error(err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if st := cache.Stats(); st.Entries != 8 {
		t.Fatalf("entries %d, want the 8 ways full", st.Entries)
	}
}

// BenchmarkPlanCacheMissEvict prices the miss the live path pays: a full
// cache, so every insert replaces a resident plan. The walk visits 16 384
// shapes in order against 4 096 entries, which evicts every shape long before
// its turn comes again.
func BenchmarkPlanCacheMissEvict(b *testing.B) {
	cache := NewPlanCache(NewCostModel(DefaultCatalog()), 4096, 0)
	stmts := genStatements(b, 16384, 1)
	for _, sql := range stmts[:4096] {
		if _, err := cache.Plan(sql); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit, err := cache.PlanInfo(stmts[(4096+i)%len(stmts)]); err != nil || hit {
			b.Fatalf("hit %v, err %v", hit, err)
		}
	}
}
