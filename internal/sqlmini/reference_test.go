package sqlmini

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode"
)

// The reference implementations the production code replaced: one walk per
// cost figure over Operators, the lexer that upper-cased every word to look
// it up, and the fingerprint's own byte scanner. Tests pin the replacements
// against them bit for bit.

// TotalCPU sums the estimated CPU seconds over all operators.
func (p *Plan) TotalCPU() float64 {
	var s float64
	for _, op := range p.Operators() {
		s += op.EstCPU
	}
	return s
}

// TotalIO sums the estimated IO megabytes over all operators.
func (p *Plan) TotalIO() float64 {
	var s float64
	for _, op := range p.Operators() {
		s += op.EstIO
	}
	return s
}

// PeakMem sums working memory over all operators, never less than the
// largest single one.
func (p *Plan) PeakMem() float64 {
	var m float64
	var run float64
	for _, op := range p.Operators() {
		run += op.EstMem
		if op.EstMem > m {
			m = op.EstMem
		}
	}
	if run > m {
		m = run
	}
	return m
}

// TotalState reports the total checkpointable state in MB.
func (p *Plan) TotalState() float64 {
	var s float64
	for _, op := range p.Operators() {
		s += op.StateMB
	}
	return s
}

// EstRows reports the root operator's output cardinality.
func (p *Plan) EstRows() float64 {
	if p.Root == nil {
		return 0
	}
	return p.Root.EstRows
}

// referenceCost is CostOf as the four walkers computed it.
func referenceCost(p *Plan) PlanCost {
	return PlanCost{
		CPUSeconds: p.TotalCPU(),
		IOMB:       p.TotalIO(),
		MemMB:      p.PeakMem(),
		Rows:       p.EstRows(),
		StateMB:    p.TotalState(),
		Type:       p.Stmt.Type,
	}
}

// referenceKeywords is the keyword set as the reference lexer held it.
var referenceKeywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"JOIN": true, "INNER": true, "LEFT": true, "ON": true, "GROUP": true,
	"BY": true, "ORDER": true, "LIMIT": true, "INSERT": true, "INTO": true,
	"VALUES": true, "UPDATE": true, "SET": true, "DELETE": true,
	"CREATE": true, "DROP": true, "TABLE": true, "INDEX": true, "LOAD": true,
	"CALL": true, "AS": true, "COUNT": true, "SUM": true, "AVG": true,
	"MIN": true, "MAX": true, "DISTINCT": true, "HAVING": true, "NOT": true,
	"NULL": true, "BETWEEN": true, "LIKE": true, "IN": true, "ASC": true,
	"DESC": true, "UNION": true, "ALL": true,
}

// lexReference is the lexer Lex replaced, with one change: an identifier
// starts on an ASCII letter or underscore, not on unicode.IsLetter, which
// accepted Latin-1 letter bytes the scan then never advanced past.
func lexReference(input string) ([]Token, error) {
	var toks []Token
	i := 0
	n := len(input)
	for i < n {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			for i < n && input[i] != '\n' {
				i++
			}
		case c < unicode.MaxASCII && unicode.IsLetter(c) || c == '_':
			start := i
			for i < n && (isIdentByte(input[i])) {
				i++
			}
			word := input[start:i]
			upper := strings.ToUpper(word)
			if referenceKeywords[upper] {
				toks = append(toks, Token{TokKeyword, upper, start})
			} else {
				toks = append(toks, Token{TokIdent, strings.ToLower(word), start})
			}
		case unicode.IsDigit(c):
			start := i
			for i < n && (unicode.IsDigit(rune(input[i])) || input[i] == '.') {
				i++
			}
			toks = append(toks, Token{TokNumber, input[start:i], start})
		case c == '\'':
			start := i
			i++
			for i < n && input[i] != '\'' {
				i++
			}
			if i >= n {
				return nil, fmt.Errorf("sqlmini: unterminated string at offset %d", start)
			}
			i++
			toks = append(toks, Token{TokString, input[start+1 : i-1], start})
		case strings.ContainsRune("(),*=<>.;+-/%!", c):
			if i+1 < n {
				two := input[i : i+2]
				if two == "<=" || two == ">=" || two == "<>" || two == "!=" {
					toks = append(toks, Token{TokSymbol, two, i})
					i += 2
					continue
				}
			}
			toks = append(toks, Token{TokSymbol, string(c), i})
			i++
		default:
			return nil, fmt.Errorf("sqlmini: unexpected byte %q at offset %d", c, i)
		}
	}
	toks = append(toks, Token{TokEOF, "", n})
	return toks, nil
}

// Lex collects nextToken's tokens up to EOF: the token list the parser reads
// one at a time.
func Lex(input string) ([]Token, error) {
	var toks []Token
	for i := 0; ; {
		t, end, err := nextToken(input, i)
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
		i = end
	}
}

// sameLex fails unless Lex and the reference agree on sql — identical
// tokens, or identical error text — and, where the reference rejects sql,
// Parse reports the reference's error.
func sameLex(t *testing.T, sql string) {
	t.Helper()
	got, gotErr := Lex(sql)
	want, wantErr := lexReference(sql)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("Lex(%q) error %v, reference %v", sql, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Lex(%q) =\n%v\nreference\n%v", sql, got, want)
	}
	if wantErr != nil {
		if _, err := Parse(sql); fmt.Sprint(err) != wantErr.Error() {
			t.Fatalf("Parse(%q) error %v, reference lex error %v", sql, err, wantErr)
		}
	}
}

// FuzzLexMatchesReference: on any input, Lex returns the reference lexer's
// tokens (kind, text, position) and errors, and Parse its errors.
//
//	make fuzz-short
//	go test -fuzz FuzzLexMatchesReference ./internal/sqlmini/
func FuzzLexMatchesReference(f *testing.F) {
	for _, s := range parseSeeds() {
		f.Add(s)
	}
	for _, s := range mixedStatements(f, 500, 5) {
		f.Add(s)
	}
	f.Add("sElEcT DiStInCt x FrOm t wHeRe y bEtWeEn 1 AnD 2")
	f.Add("distinctly selected betweenness _x __ a_b_c9 DISTINCT9")
	// A complete statement, then a lex error the parser never reaches.
	f.Add(`SELECT a FROM t"`)
	f.Add("SELECT FROM 'x")
	f.Fuzz(func(t *testing.T, sql string) { sameLex(t, sql) })
}

// fingerprintReference is FingerprintSQL as it scanned the input itself,
// mirroring the lexer's byte classes.
func fingerprintReference(input string) Fingerprint {
	s := fpState{h1: fnvOffset64, h2: fnvOffsetAlt}
	i, n := 0, len(input)
	// literalNumbers: hash the next number verbatim. Set after the LIMIT
	// keyword; latched on for LOAD statements.
	nextNumberVerbatim := false
	loadStmt := false
	firstToken := true
	for i < n {
		c := rune(input[i])
		switch {
		case unicode.IsSpace(c):
			i++
			continue
		case c == '-' && i+1 < n && input[i+1] == '-':
			for i < n && input[i] != '\n' {
				i++
			}
			continue
		case isIdentStart(input[i]):
			start := i
			for i < n && isIdentByte(input[i]) {
				i++
			}
			word := input[start:i]
			// Uppercase while hashing; keyword-ness only matters for the two
			// verbatim-number triggers. Identifiers hash lowercased by Lex's
			// rules, but hashing both cases through upperByte keeps the scan
			// allocation-free and stays consistent: a case-folded word maps to
			// the same bytes whether Lex would call it keyword or identifier.
			for j := 0; j < len(word); j++ {
				s.writeByte(upperByte(word[j]))
			}
			upperIs := func(kw string) bool {
				if len(word) != len(kw) {
					return false
				}
				for j := 0; j < len(kw); j++ {
					if upperByte(word[j]) != kw[j] {
						return false
					}
				}
				return true
			}
			if upperIs("LIMIT") {
				nextNumberVerbatim = true
			}
			if firstToken && upperIs("LOAD") {
				loadStmt = true
			}
		case unicode.IsDigit(c):
			start := i
			for i < n && (unicode.IsDigit(rune(input[i])) || input[i] == '.') {
				i++
			}
			if nextNumberVerbatim || loadStmt {
				s.writeString(input[start:i])
				nextNumberVerbatim = false
			} else {
				s.writeByte(fpNumber)
			}
		case c == '\'':
			i++
			for i < n && input[i] != '\'' {
				i++
			}
			if i >= n {
				// Unterminated string: hash the whole input raw and finish.
				s.writeString(input)
				return Fingerprint{Hi: s.h1, Lo: s.h2}
			}
			i++
			s.writeByte(fpStringLit)
		case c == '(' || c == ')' || c == ',' || c == '*' || c == '=' || c == '<' ||
			c == '>' || c == '.' || c == ';' || c == '+' || c == '-' || c == '/' ||
			c == '%' || c == '!':
			// Two-character operators hash as their two bytes anyway.
			s.writeByte(input[i])
			i++
		default:
			// Byte outside the dialect: hash the raw input so the result is
			// still deterministic (the parser will reject it on the miss path).
			s.writeString(input[i:])
			return Fingerprint{Hi: s.h1, Lo: s.h2}
		}
		s.writeByte(fpSep)
		firstToken = false
	}
	return Fingerprint{Hi: s.h1, Lo: s.h2}
}

// FuzzFingerprintMatchesReference: on any input, FingerprintSQL equals the
// fingerprint of its own byte scanner.
//
//	make fuzz-short
//	go test -fuzz FuzzFingerprintMatchesReference ./internal/sqlmini/
func FuzzFingerprintMatchesReference(f *testing.F) {
	for _, s := range parseSeeds() {
		f.Add(s)
	}
	for _, s := range mixedStatements(f, 500, 7) {
		f.Add(s)
	}
	for b := 0; b <= 0xFF; b++ {
		f.Add("SELECT a FROM t WHERE x " + string([]byte{byte(b)}) + " 1")
	}
	f.Add("SELECT a FROM t WHERE a <= 1 AND b >= 2 AND c <> 3 AND d != 4 AND e<=f")
	f.Add("SELECT a FROM t LIMIT 10 LIMIT 'x' 20.5")
	f.Add("LOAD INTO t 100 200 'x' 3")
	f.Add("load into t 7")
	f.Add("SELECT a FROM t WHERE s = 'open")
	f.Add(`SELECT a FROM t"`)
	f.Fuzz(func(t *testing.T, sql string) {
		if got, want := FingerprintSQL(sql), fingerprintReference(sql); got != want {
			t.Fatalf("FingerprintSQL(%q) = %x, reference %x", sql, got, want)
		}
	})
}

// mixedStatements returns n statements over the default catalog mixing the
// three traffic kinds: OLTP point reads and writes, BI scans with joins,
// grouping and sorting, and the generated ad-hoc selects; keyword and
// identifier case varies.
func mixedStatements(tb testing.TB, n int, seed uint64) []string {
	g := testRand(seed)
	adhoc := genStatements(tb, n/3+1, seed)
	oltp := []string{
		"SELECT balance FROM accounts WHERE id = %d",
		"select Balance from Accounts where ID = %d",
		"UPDATE accounts SET balance = balance - %d WHERE id = 7",
		"INSERT INTO orders VALUES (%d, 2, 3)",
		"insert into orders (id, total) values (%d, 10), (2, 20)",
		"DELETE FROM order_items WHERE order_id = %d",
		"SELECT name, region FROM customers WHERE id = %d AND region <> 'west'",
	}
	bi := []string{
		"SELECT store_id, SUM(amount) FROM sales_fact JOIN store_dim ON sales_fact.store_id = store_dim.id GROUP BY store_id LIMIT %d",
		"SELECT product_id, COUNT(*) FROM sales_fact WHERE amount > %d GROUP BY product_id ORDER BY product_id",
		"SELECT d.year, SUM(f.amount) FROM sales_fact f JOIN date_dim d ON f.date_id = d.id WHERE d.year >= %d GROUP BY d.year",
		"SELECT DISTINCT region FROM store_dim ORDER BY region LIMIT %d",
		"select avg(qty) from inventory_fact where qty between %d and 50",
		"SELECT a.id FROM orders a INNER JOIN customers b ON a.customer_id = b.id JOIN store_dim s ON a.region = s.region WHERE a.total > %d",
		"LOAD INTO sales_fact %d",
		"CREATE INDEX i%d ON order_items (order_id)",
		"CALL runstats(sales_fact, %d)",
	}
	out := make([]string, 0, n)
	for len(out) < n {
		switch g.intn(3) {
		case 0:
			out = append(out, fmt.Sprintf(oltp[g.intn(len(oltp))], 1+g.intn(1000)))
		case 1:
			out = append(out, fmt.Sprintf(bi[g.intn(len(bi))], 1+g.intn(1000)))
		default:
			out = append(out, adhoc[g.intn(len(adhoc))])
		}
	}
	return out
}

// TestCostOfMatchesWalkers: the one-walk CostOf equals the four reference
// walkers bit for bit on every statement that plans — the fuzz seeds and a
// generated OLTP/BI/ad-hoc mix — and so does the cost the plan cache stores.
func TestCostOfMatchesWalkers(t *testing.T) {
	model := NewCostModel(DefaultCatalog())
	cache := NewPlanCache(model, 4096, 0)
	bits := func(c PlanCost) [5]uint64 {
		return [5]uint64{math.Float64bits(c.CPUSeconds), math.Float64bits(c.IOMB),
			math.Float64bits(c.MemMB), math.Float64bits(c.Rows), math.Float64bits(c.StateMB)}
	}
	planned := 0
	for _, sql := range append(parseSeeds(), mixedStatements(t, 2000, 3)...) {
		p, err := model.PlanSQL(sql)
		if err != nil {
			continue
		}
		planned++
		got, want := CostOf(p), referenceCost(p)
		if bits(got) != bits(want) || got.Type != want.Type {
			t.Fatalf("%q: CostOf %+v, walkers %+v", sql, got, want)
		}
		e, _, err := cache.PlanInfo(sql)
		if err != nil {
			t.Fatal(err)
		}
		if bits(e.Cost) != bits(want) || e.Cost.Type != want.Type {
			t.Fatalf("%q: cached cost %+v, walkers %+v", sql, e.Cost, want)
		}
	}
	if planned < 1000 {
		t.Fatalf("only %d statements planned", planned)
	}
	// A plan without operators costs nothing but its type.
	if c := CostOf(&Plan{Stmt: &Statement{Type: StmtDDL}}); c != (PlanCost{Type: StmtDDL}) {
		t.Fatalf("empty plan costs %+v", c)
	}
}

// TestNonASCIIBytesTerminate is the regression test for identifier scans that
// never advanced: for every byte 0x80–0xFF, alone and inside a statement,
// FingerprintSQL, Lex and a plan-cache miss return within a deadline, and
// Lex and the cache report an error (the byte is outside the dialect).
func TestNonASCIIBytesTerminate(t *testing.T) {
	cache := NewPlanCache(NewCostModel(DefaultCatalog()), 64, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := 0x80; b <= 0xFF; b++ {
			for _, sql := range []string{
				string([]byte{byte(b)}),
				"SELECT * FROM orders WHERE x = " + string([]byte{byte(b)}),
				"SELECT " + string([]byte{byte(b)}) + "abc FROM orders",
			} {
				FingerprintSQL(sql)
				_, lexErr := Lex(sql)
				_, _, cacheErr := cache.PlanInfo(sql)
				// 0x85 and 0xA0 are Latin-1 white space, which the dialect
				// skips; every other high byte is outside it.
				if space := unicode.IsSpace(rune(b)); !space && (lexErr == nil || cacheErr == nil) {
					t.Errorf("byte %#x in %q: Lex error %v, cache error %v", b, sql, lexErr, cacheErr)
				}
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("fingerprinting or lexing a non-ASCII byte did not return")
	}
}
