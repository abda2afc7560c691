package sqlmini

import "testing"

// parseSeeds is the seed corpus of the SQL fuzz targets: a spread of the
// dialect, error shapes, and every non-ASCII byte once in an identifier's
// place (Latin-1 letter bytes used to start an identifier scan that never
// advanced).
func parseSeeds() []string {
	seeds := []string{
		"SELECT id, name FROM customers WHERE id = 42",
		"SELECT * FROM orders",
		"SELECT DISTINCT region FROM store_dim ORDER BY region LIMIT 5",
		"SELECT d.year, SUM(f.amount) FROM sales_fact f JOIN date_dim d ON f.date_id = d.id GROUP BY d.year",
		"SELECT COUNT(*) FROM orders WHERE total > 100 AND region = 'west'",
		"INSERT INTO orders (id, total) VALUES (1, 10), (2, 20)",
		"UPDATE accounts SET balance = balance + 10 WHERE id = 7",
		"DELETE FROM orders WHERE id = 9",
		"CREATE INDEX idx ON orders",
		"LOAD INTO sales_fact 50000",
		"CALL nightly_etl",
		"",
		"  -- comment only\n",
		"SELECT 'unterminated",
		"SELECT \x01\x02\xff FROM x",
		"select limit limit limit",
		"((((((((((",
		"SELECT a FROM b WHERE c = 1e309",
	}
	for b := 0x80; b <= 0xFF; b++ {
		seeds = append(seeds, "SELECT * FROM orders WHERE x = "+string([]byte{byte(b)}))
	}
	return seeds
}

// FuzzParse drives arbitrary bytes through the full statement pipeline:
// lexer, parser, planner, and fingerprint. The invariants are total-function
// ones — no panic on any input, deterministic fingerprints, and every
// successfully parsed statement plans and formats without blowing up.
//
//	make fuzz-short   # 10s smoke run
//	go test -fuzz FuzzParse ./internal/sqlmini/
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds() {
		f.Add(s)
	}
	model := NewCostModel(DefaultCatalog())
	f.Fuzz(func(t *testing.T, sql string) {
		// Fingerprinting is total and must be deterministic on every input.
		fp := FingerprintSQL(sql)
		if again := FingerprintSQL(sql); again != fp {
			t.Fatalf("fingerprint unstable: %x != %x", fp, again)
		}
		stmt, err := Parse(sql)
		if err != nil {
			return
		}
		// Parsed statements must survive the rest of the pipeline.
		p, err := model.BuildPlan(stmt)
		if err != nil {
			return
		}
		if s := p.String(); s == "" {
			t.Fatal("plan formatted to empty string")
		}
		cost := CostOf(p)
		if cost.CPUSeconds < 0 || cost.IOMB < 0 || cost.MemMB < 0 || cost.Rows < 0 {
			t.Fatalf("negative plan cost %+v for %q", cost, sql)
		}
		// A statement that parses must fingerprint identically to itself with
		// normalized whitespace (the lexer and the fingerprint scanner agree).
		if fp2 := FingerprintSQL(" " + sql + " "); fp2 != fp {
			t.Fatalf("whitespace changed fingerprint of %q", sql)
		}
	})
}
