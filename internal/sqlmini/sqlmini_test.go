package sqlmini

import (
	"runtime"
	"strings"
	"testing"
)

// MustParse parses input and panics on error.
func MustParse(input string) *Statement {
	s, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return s
}

// Operators returns every operator in the plan in post-order (children
// before parents).
func (p *Plan) Operators() []*Operator {
	var out []*Operator
	var walk func(op *Operator)
	walk = func(op *Operator) {
		for _, c := range op.Children {
			walk(c)
		}
		out = append(out, op)
	}
	if p.Root != nil {
		walk(p.Root)
	}
	return out
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("SELECT a, b FROM t WHERE x = 10 AND name = 'bob' -- comment")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	if toks[0].Text != "SELECT" || toks[0].Kind != TokKeyword {
		t.Fatalf("first token = %+v", toks[0])
	}
	if toks[len(toks)-1].Kind != TokEOF {
		t.Fatal("missing EOF token")
	}
	// The string literal keeps its contents.
	found := false
	for _, tok := range toks {
		if tok.Kind == TokString && tok.Text == "bob" {
			found = true
		}
	}
	if !found {
		t.Fatal("string literal not lexed")
	}
	_ = kinds
}

func TestLexErrors(t *testing.T) {
	for _, sql := range []string{"SELECT 'unterminated", "SELECT @"} {
		if _, err := Lex(sql); err == nil {
			t.Fatalf("Lex accepted %q", sql)
		}
		if _, err := Parse(sql); err == nil {
			t.Fatalf("Parse accepted %q", sql)
		}
	}
}

func TestLexTwoCharOperators(t *testing.T) {
	toks, err := Lex("a <= b >= c <> d != e")
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, tok := range toks {
		if tok.Kind == TokSymbol {
			ops = append(ops, tok.Text)
		}
	}
	want := []string{"<=", ">=", "<>", "!="}
	if len(ops) != 4 {
		t.Fatalf("ops = %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops = %v, want %v", ops, want)
		}
	}
}

// TestLexLongInputAllocatesByTokens: parsing allocates by tokens, not by
// bytes. A statement off the wire carrying a 1 MiB string literal or comment
// is a handful of tokens and must allocate like one; a token list sized from
// the input's length alone would cost about 16 bytes per input byte.
func TestLexLongInputAllocatesByTokens(t *testing.T) {
	filler := strings.Repeat("a", 1<<20)
	for _, sql := range []string{
		"SELECT * FROM orders WHERE note = '" + filler + "'",
		"SELECT * FROM orders -- " + filler,
	} {
		var err error
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		const calls = 8
		for i := 0; i < calls; i++ {
			_, err = Parse(sql)
		}
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if perCall := (m1.TotalAlloc - m0.TotalAlloc) / calls; perCall > 64<<10 {
			t.Fatalf("parsing %d bytes allocates %d bytes", len(sql), perCall)
		}
	}
}

func TestParseSelectSimple(t *testing.T) {
	s := MustParse("SELECT id, name FROM customers WHERE id = 42")
	if s.Type != StmtRead {
		t.Fatalf("type = %v", s.Type)
	}
	sel := s.Select
	if sel.Table != "customers" || len(sel.Columns) != 2 || len(sel.Where) != 1 {
		t.Fatalf("parsed select = %+v", sel)
	}
	if sel.Where[0].Op != "=" || sel.Where[0].Right != "42" {
		t.Fatalf("predicate = %+v", sel.Where[0])
	}
}

func TestParseSelectJoinGroupOrderLimit(t *testing.T) {
	s := MustParse(`SELECT d.year, SUM(f.amount) FROM sales_fact f
		JOIN date_dim d ON f.date_id = d.id
		WHERE d.year = 2017 GROUP BY d.year ORDER BY d.year LIMIT 10`)
	sel := s.Select
	if len(sel.Joins) != 1 || sel.Joins[0].Table != "date_dim" {
		t.Fatalf("joins = %+v", sel.Joins)
	}
	if !sel.Aggregate || len(sel.GroupBy) != 1 || len(sel.OrderBy) != 1 || sel.Limit != 10 {
		t.Fatalf("clauses = %+v", sel)
	}
	if !sel.Joins[0].On.RightIsColumn {
		t.Fatal("join predicate should be column=column")
	}
	if sel.Table != "sales_fact" {
		t.Fatalf("table = %q", sel.Table)
	}
}

func TestParseSelectDistinctAndAggregates(t *testing.T) {
	s := MustParse("SELECT DISTINCT region FROM store_dim")
	if !s.Select.Distinct {
		t.Fatal("DISTINCT not parsed")
	}
	s = MustParse("SELECT COUNT(*) FROM orders")
	if !s.Select.Aggregate {
		t.Fatal("COUNT(*) not marked aggregate")
	}
	s = MustParse("SELECT AVG(total) AS avg_total FROM orders")
	if !s.Select.Aggregate || s.Select.Columns[0] != "avg(total)" {
		t.Fatalf("aggregate column = %v", s.Select.Columns)
	}
}

func TestParsePredicateVariants(t *testing.T) {
	s := MustParse("SELECT a FROM t WHERE x BETWEEN 1 AND 5 AND y LIKE 'foo' AND z IN (1, 2, 3) AND w <> 0")
	if len(s.Select.Where) != 4 {
		t.Fatalf("where = %+v", s.Select.Where)
	}
	ops := []CompareOp{"between", "like", "in", "<>"}
	for i, p := range s.Select.Where {
		if p.Op != ops[i] {
			t.Fatalf("pred %d op = %q, want %q", i, p.Op, ops[i])
		}
	}
}

func TestParseInsertValues(t *testing.T) {
	s := MustParse("INSERT INTO orders (id, total) VALUES (1, 10), (2, 20), (3, 30)")
	if s.Type != StmtWrite || s.Insert.Rows != 3 {
		t.Fatalf("insert = %+v", s.Insert)
	}
}

func TestParseInsertSelect(t *testing.T) {
	s := MustParse("INSERT INTO archive SELECT * FROM orders WHERE d < 2010")
	if s.Insert.Select == nil || s.Insert.Select.Table != "orders" {
		t.Fatalf("insert-select = %+v", s.Insert)
	}
	if s.Insert.Table != "archive" {
		t.Fatalf("insert table = %q", s.Insert.Table)
	}
}

func TestParseUpdateDelete(t *testing.T) {
	s := MustParse("UPDATE accounts SET balance = balance + 10 WHERE id = 7")
	if s.Type != StmtWrite || s.Update.Table != "accounts" || len(s.Update.Where) != 1 {
		t.Fatalf("update = %+v", s.Update)
	}
	s = MustParse("DELETE FROM orders WHERE id = 9")
	if s.Type != StmtWrite || s.Delete.Table != "orders" {
		t.Fatalf("delete = %+v", s.Delete)
	}
}

func TestParseDDL(t *testing.T) {
	s := MustParse("CREATE TABLE t (id int, name text)")
	if s.Type != StmtDDL || s.DDL.Action != "CREATE" || s.DDL.Object != "TABLE" {
		t.Fatalf("ddl = %+v", s.DDL)
	}
	s = MustParse("CREATE INDEX idx ON orders (id)")
	if s.DDL.Object != "INDEX" || s.DDL.Table != "orders" {
		t.Fatalf("index ddl = %+v", s.DDL)
	}
	s = MustParse("DROP TABLE t")
	if s.DDL.Action != "DROP" {
		t.Fatalf("drop = %+v", s.DDL)
	}
}

func TestParseLoadCall(t *testing.T) {
	s := MustParse("LOAD INTO sales_fact 1000000")
	if s.Type != StmtLoad || s.Load.Rows != 1000000 {
		t.Fatalf("load = %+v", s.Load)
	}
	s = MustParse("CALL reorg(orders)")
	if s.Type != StmtCall || s.Call.Proc != "reorg" || len(s.Call.Args) != 1 {
		t.Fatalf("call = %+v", s.Call)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FROM t",
		"SELECT FROM t",
		"SELECT a FROM",
		"INSERT INTO t",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t extra garbage here ,",
		"CREATE VIEW v",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	if _, err := Parse("SELECT a FROM t;"); err != nil {
		t.Fatal(err)
	}
}

func TestStatementTypeString(t *testing.T) {
	for _, st := range []StatementType{StmtRead, StmtWrite, StmtDDL, StmtLoad, StmtCall} {
		if st.String() == "" || strings.HasPrefix(st.String(), "StatementType(") {
			t.Errorf("bad String for %d", int(st))
		}
	}
}

func TestCatalog(t *testing.T) {
	c := DefaultCatalog()
	if c.Table("sales_fact") == nil {
		t.Fatal("default catalog missing sales_fact")
	}
	if c.Table("nope") != nil {
		t.Fatal("unknown table found")
	}
	if len(c.tables) < 5 {
		t.Fatalf("%d tables, want at least 5", len(c.tables))
	}
	if c.Table("accounts").SizeMB() <= 0 {
		t.Fatal("zero table size")
	}
}

func TestCostOLTPvsBISpread(t *testing.T) {
	m := NewCostModel(DefaultCatalog())
	oltp, err := m.PlanSQL("SELECT balance FROM accounts WHERE id = 42")
	if err != nil {
		t.Fatal(err)
	}
	bi, err := m.PlanSQL(`SELECT store_id, SUM(amount) FROM sales_fact
		JOIN store_dim ON sales_fact.store_id = store_dim.id
		GROUP BY store_id ORDER BY store_id`)
	if err != nil {
		t.Fatal(err)
	}
	if oltp.Root.Kind != OpIndexLookup {
		t.Fatalf("OLTP point query should use index lookup, got %v\n%s", oltp.Root.Kind, oltp)
	}
	ratioCPU := bi.TotalCPU() / oltp.TotalCPU()
	ratioIO := bi.TotalIO() / (oltp.TotalIO() + 1e-9)
	if ratioCPU < 1000 {
		t.Fatalf("BI/OLTP CPU ratio = %v, want >= 1000x\noltp=%v bi=%v", ratioCPU, oltp.TotalCPU(), bi.TotalCPU())
	}
	if ratioIO < 1000 {
		t.Fatalf("BI/OLTP IO ratio = %v, want >= 1000x", ratioIO)
	}
}

func TestScanVsIndex(t *testing.T) {
	m := NewCostModel(DefaultCatalog())
	// Range predicate on an indexed table still scans (no point predicate).
	p, err := m.PlanSQL("SELECT id FROM orders WHERE total > 100")
	if err != nil {
		t.Fatal(err)
	}
	if p.Root.Kind != OpScan {
		t.Fatalf("range query plan = %v, want Scan", p.Root.Kind)
	}
	// Unindexed fact table always scans.
	p, err = m.PlanSQL("SELECT amount FROM sales_fact WHERE store_id = 5")
	if err != nil {
		t.Fatal(err)
	}
	if p.Root.Kind != OpScan {
		t.Fatalf("fact query plan = %v, want Scan (unindexed)", p.Root.Kind)
	}
}

func TestJoinPlanShapeAndMem(t *testing.T) {
	m := NewCostModel(DefaultCatalog())
	p, err := m.PlanSQL(`SELECT f.amount FROM sales_fact f JOIN product_dim p ON f.product_id = p.id`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Root.Kind != OpHashJoin {
		t.Fatalf("root = %v, want HashJoin", p.Root.Kind)
	}
	if len(p.Root.Children) != 2 {
		t.Fatal("join needs two children")
	}
	// Build side must be the smaller input (product_dim).
	build := p.Root.Children[1]
	if build.Table != "product_dim" {
		t.Fatalf("build side = %q, want product_dim", build.Table)
	}
	if p.Root.StateMB <= 0 || p.PeakMem() < p.Root.EstMem {
		t.Fatalf("join state/mem not modeled: state=%v peak=%v", p.Root.StateMB, p.PeakMem())
	}
}

func TestOperatorsPostOrder(t *testing.T) {
	m := NewCostModel(DefaultCatalog())
	p, _ := m.PlanSQL("SELECT COUNT(*) FROM orders WHERE total > 5 ORDER BY id")
	ops := p.Operators()
	if len(ops) < 3 {
		t.Fatalf("ops = %v", ops)
	}
	// Root must be last in post-order.
	if ops[len(ops)-1] != p.Root {
		t.Fatal("post-order does not end at root")
	}
}

func TestPlanTotalsPositive(t *testing.T) {
	m := NewCostModel(DefaultCatalog())
	queries := []string{
		"SELECT * FROM accounts WHERE id = 1",
		"INSERT INTO orders VALUES (1, 2, 3)",
		"UPDATE accounts SET balance = 0 WHERE id = 3",
		"DELETE FROM order_items WHERE order_id = 4",
		"CREATE INDEX i ON order_items (order_id)",
		"LOAD INTO inventory_fact 500000",
		"CALL backup(full)",
		"SELECT DISTINCT region FROM store_dim ORDER BY region LIMIT 5",
	}
	for _, q := range queries {
		p, err := m.PlanSQL(q)
		if err != nil {
			t.Fatalf("PlanSQL(%q): %v", q, err)
		}
		if p.TotalCPU() <= 0 {
			t.Errorf("%q: non-positive CPU %v", q, p.TotalCPU())
		}
		if p.TotalIO() < 0 || p.PeakMem() < 0 || p.EstRows() < 0 {
			t.Errorf("%q: negative estimate", q)
		}
		if p.String() == "" {
			t.Errorf("%q: empty plan string", q)
		}
	}
}

func TestIndexBuildIsExpensive(t *testing.T) {
	m := NewCostModel(DefaultCatalog())
	idx, _ := m.PlanSQL("CREATE INDEX i ON order_items (order_id)")
	tbl, _ := m.PlanSQL("CREATE TABLE tiny (id int)")
	if idx.TotalCPU() < 100*tbl.TotalCPU() {
		t.Fatalf("index build cpu %v should dwarf create table %v", idx.TotalCPU(), tbl.TotalCPU())
	}
}

func TestSelectivityTable(t *testing.T) {
	cases := []struct {
		op   CompareOp
		want float64
	}{
		{"=", 0.05}, {"<", 0.3}, {"between", 0.3}, {"like", 0.25},
		{"in", 0.2}, {"<>", 0.9}, {"??", 0.33},
	}
	for _, c := range cases {
		got := Selectivity(Predicate{Op: c.op})
		if got != c.want {
			t.Errorf("Selectivity(%q) = %v, want %v", c.op, got, c.want)
		}
	}
	if Selectivity(Predicate{Op: "=", RightIsColumn: true}) != 1 {
		t.Fatal("join predicate selectivity should be 1")
	}
}

func TestLimitCapsRows(t *testing.T) {
	m := NewCostModel(DefaultCatalog())
	p, _ := m.PlanSQL("SELECT * FROM orders LIMIT 10")
	if p.EstRows() != 10 {
		t.Fatalf("limit rows = %v, want 10", p.EstRows())
	}
}

func TestUnknownTableUsesDefaults(t *testing.T) {
	m := NewCostModel(NewCatalog())
	p, err := m.PlanSQL("SELECT * FROM mystery")
	if err != nil {
		t.Fatal(err)
	}
	if p.EstRows() <= 0 {
		t.Fatal("default stats produced no rows")
	}
}

func TestOpKindString(t *testing.T) {
	for k := OpScan; k <= OpCall; k++ {
		if k.String() == "" {
			t.Fatalf("empty name for op %d", int(k))
		}
	}
}
