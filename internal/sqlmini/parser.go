package sqlmini

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses one SQL statement in the mini dialect.
func Parse(input string) (*Statement, error) {
	toks, err := Lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, raw: input}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	// Allow one trailing semicolon.
	p.accept(TokSymbol, ";")
	if !p.at(TokEOF, "") {
		return nil, fmt.Errorf("sqlmini: trailing input at %q", p.peek().Text)
	}
	return stmt, nil
}

type parser struct {
	toks []Token
	pos  int
	raw  string
}

func (p *parser) peek() Token { return p.toks[p.pos] }

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *parser) at(kind TokenKind, text string) bool {
	t := p.peek()
	return t.Kind == kind && (text == "" || t.Text == text)
}

func (p *parser) accept(kind TokenKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(kind TokenKind, text string) (Token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	return Token{}, fmt.Errorf("sqlmini: expected %q, found %q at offset %d", text, p.peek().Text, p.peek().Pos)
}

func (p *parser) parseStatement() (*Statement, error) {
	t := p.peek()
	if t.Kind != TokKeyword {
		return nil, fmt.Errorf("sqlmini: statement must start with a keyword, found %q", t.Text)
	}
	switch t.Text {
	case "SELECT":
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &Statement{Raw: p.raw, Type: StmtRead, Select: sel}, nil
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE", "DROP":
		return p.parseDDL()
	case "LOAD":
		return p.parseLoad()
	case "CALL":
		return p.parseCall()
	default:
		return nil, fmt.Errorf("sqlmini: unsupported statement %q", t.Text)
	}
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if _, err := p.expect(TokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{Limit: -1}
	sel.Distinct = p.accept(TokKeyword, "DISTINCT")
	// Column list.
	for {
		col, agg, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Columns = append(sel.Columns, col)
		sel.Aggregate = sel.Aggregate || agg
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	sel.Table = tbl
	// Joins.
	for {
		if p.accept(TokKeyword, "INNER") || p.accept(TokKeyword, "LEFT") {
			// fallthrough to JOIN
		}
		if !p.accept(TokKeyword, "JOIN") {
			break
		}
		jt, err := p.parseTableName()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "ON"); err != nil {
			return nil, err
		}
		pred, err := p.parsePredicate()
		if err != nil {
			return nil, err
		}
		sel.Joins = append(sel.Joins, JoinClause{Table: jt, On: pred})
	}
	// WHERE.
	if p.accept(TokKeyword, "WHERE") {
		preds, err := p.parseConjunction()
		if err != nil {
			return nil, err
		}
		sel.Where = preds
	}
	// GROUP BY.
	if p.accept(TokKeyword, "GROUP") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		cols, err := p.parseColumnList()
		if err != nil {
			return nil, err
		}
		sel.GroupBy = cols
		sel.Aggregate = true
		if p.accept(TokKeyword, "HAVING") {
			if _, err := p.parseConjunction(); err != nil {
				return nil, err
			}
		}
	}
	// ORDER BY.
	if p.accept(TokKeyword, "ORDER") {
		if _, err := p.expect(TokKeyword, "BY"); err != nil {
			return nil, err
		}
		cols, err := p.parseColumnList()
		if err != nil {
			return nil, err
		}
		sel.OrderBy = cols
		p.accept(TokKeyword, "ASC")
		p.accept(TokKeyword, "DESC")
	}
	// LIMIT.
	if p.accept(TokKeyword, "LIMIT") {
		t, err := p.expect(TokNumber, "")
		if err != nil {
			return nil, err
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sqlmini: bad LIMIT %q", t.Text)
		}
		sel.Limit = n
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (string, bool, error) {
	if p.accept(TokSymbol, "*") {
		return "*", false, nil
	}
	t := p.peek()
	if t.Kind == TokKeyword {
		switch t.Text {
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.next()
			if _, err := p.expect(TokSymbol, "("); err != nil {
				return "", false, err
			}
			var inner string
			if p.accept(TokSymbol, "*") {
				inner = "*"
			} else {
				c, err := p.parseColumnRef()
				if err != nil {
					return "", false, err
				}
				inner = c
			}
			if _, err := p.expect(TokSymbol, ")"); err != nil {
				return "", false, err
			}
			name := strings.ToLower(t.Text) + "(" + inner + ")"
			if p.accept(TokKeyword, "AS") {
				if _, err := p.expect(TokIdent, ""); err != nil {
					return "", false, err
				}
			}
			return name, true, nil
		}
	}
	c, err := p.parseColumnRef()
	if err != nil {
		return "", false, err
	}
	if p.accept(TokKeyword, "AS") {
		if _, err := p.expect(TokIdent, ""); err != nil {
			return "", false, err
		}
	}
	return c, false, nil
}

// parseColumnRef parses ident or ident.ident.
func (p *parser) parseColumnRef() (string, error) {
	t, err := p.expect(TokIdent, "")
	if err != nil {
		return "", err
	}
	name := t.Text
	if p.accept(TokSymbol, ".") {
		t2, err := p.expect(TokIdent, "")
		if err != nil {
			return "", err
		}
		name = name + "." + t2.Text
	}
	return name, nil
}

func (p *parser) parseColumnList() ([]string, error) {
	var cols []string
	for {
		c, err := p.parseColumnRef()
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	return cols, nil
}

func (p *parser) parseTableName() (string, error) {
	t, err := p.expect(TokIdent, "")
	if err != nil {
		return "", err
	}
	// Optional alias.
	if p.at(TokIdent, "") {
		p.next()
	} else if p.accept(TokKeyword, "AS") {
		if _, err := p.expect(TokIdent, ""); err != nil {
			return "", err
		}
	}
	return t.Text, nil
}

func (p *parser) parseConjunction() ([]Predicate, error) {
	var preds []Predicate
	for {
		pred, err := p.parsePredicate()
		if err != nil {
			return nil, err
		}
		preds = append(preds, pred)
		if !p.accept(TokKeyword, "AND") {
			break
		}
	}
	return preds, nil
}

func (p *parser) parsePredicate() (Predicate, error) {
	left, err := p.parseColumnRef()
	if err != nil {
		return Predicate{}, err
	}
	// BETWEEN x AND y — modeled as a range predicate.
	if p.accept(TokKeyword, "BETWEEN") {
		lo := p.next()
		if _, err := p.expect(TokKeyword, "AND"); err != nil {
			return Predicate{}, err
		}
		p.next() // hi
		return Predicate{Left: left, Op: "between", Right: lo.Text}, nil
	}
	if p.accept(TokKeyword, "LIKE") {
		t := p.next()
		return Predicate{Left: left, Op: "like", Right: t.Text}, nil
	}
	if p.accept(TokKeyword, "IN") {
		if _, err := p.expect(TokSymbol, "("); err != nil {
			return Predicate{}, err
		}
		depth := 1
		for depth > 0 {
			t := p.next()
			if t.Kind == TokEOF {
				return Predicate{}, fmt.Errorf("sqlmini: unterminated IN list")
			}
			if t.Kind == TokSymbol && t.Text == "(" {
				depth++
			}
			if t.Kind == TokSymbol && t.Text == ")" {
				depth--
			}
		}
		return Predicate{Left: left, Op: "in", Right: ""}, nil
	}
	op := p.peek()
	if op.Kind != TokSymbol || !isCompareOp(op.Text) {
		return Predicate{}, fmt.Errorf("sqlmini: expected comparison operator, found %q", op.Text)
	}
	p.next()
	r := p.peek()
	switch r.Kind {
	case TokIdent:
		col, err := p.parseColumnRef()
		if err != nil {
			return Predicate{}, err
		}
		return Predicate{Left: left, Op: CompareOp(op.Text), Right: col, RightIsColumn: true}, nil
	case TokNumber, TokString:
		p.next()
		return Predicate{Left: left, Op: CompareOp(op.Text), Right: r.Text}, nil
	case TokKeyword:
		if r.Text == "NULL" {
			p.next()
			return Predicate{Left: left, Op: CompareOp(op.Text), Right: "NULL"}, nil
		}
	}
	return Predicate{}, fmt.Errorf("sqlmini: bad predicate right-hand side %q", r.Text)
}

func isCompareOp(s string) bool {
	switch s {
	case "=", "<", ">", "<=", ">=", "<>", "!=":
		return true
	}
	return false
}

func (p *parser) parseInsert() (*Statement, error) {
	if _, err := p.expect(TokKeyword, "INSERT"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "INTO"); err != nil {
		return nil, err
	}
	t, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: t.Text}
	// Optional column list.
	if p.accept(TokSymbol, "(") {
		if _, err := p.parseColumnList(); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	switch {
	case p.accept(TokKeyword, "VALUES"):
		for {
			if _, err := p.expect(TokSymbol, "("); err != nil {
				return nil, err
			}
			depth := 1
			for depth > 0 {
				tk := p.next()
				if tk.Kind == TokEOF {
					return nil, fmt.Errorf("sqlmini: unterminated VALUES tuple")
				}
				if tk.Kind == TokSymbol && tk.Text == "(" {
					depth++
				}
				if tk.Kind == TokSymbol && tk.Text == ")" {
					depth--
				}
			}
			ins.Rows++
			if !p.accept(TokSymbol, ",") {
				break
			}
		}
	case p.at(TokKeyword, "SELECT"):
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Select = sel
	default:
		return nil, fmt.Errorf("sqlmini: INSERT requires VALUES or SELECT")
	}
	return &Statement{Raw: p.raw, Type: StmtWrite, Insert: ins}, nil
}

func (p *parser) parseUpdate() (*Statement, error) {
	if _, err := p.expect(TokKeyword, "UPDATE"); err != nil {
		return nil, err
	}
	t, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	upd := &UpdateStmt{Table: t.Text}
	if _, err := p.expect(TokKeyword, "SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseColumnRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokSymbol, "="); err != nil {
			return nil, err
		}
		// Value: number, string, or column expression; consume one token
		// plus simple arithmetic (col + number).
		p.next()
		for p.at(TokSymbol, "+") || p.at(TokSymbol, "-") || p.at(TokSymbol, "*") || p.at(TokSymbol, "/") {
			p.next()
			p.next()
		}
		upd.Sets = append(upd.Sets, col)
		if !p.accept(TokSymbol, ",") {
			break
		}
	}
	if p.accept(TokKeyword, "WHERE") {
		preds, err := p.parseConjunction()
		if err != nil {
			return nil, err
		}
		upd.Where = preds
	}
	return &Statement{Raw: p.raw, Type: StmtWrite, Update: upd}, nil
}

func (p *parser) parseDelete() (*Statement, error) {
	if _, err := p.expect(TokKeyword, "DELETE"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	t, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	del := &DeleteStmt{Table: t.Text}
	if p.accept(TokKeyword, "WHERE") {
		preds, err := p.parseConjunction()
		if err != nil {
			return nil, err
		}
		del.Where = preds
	}
	return &Statement{Raw: p.raw, Type: StmtWrite, Delete: del}, nil
}

func (p *parser) parseDDL() (*Statement, error) {
	action := p.next().Text // CREATE or DROP
	obj := p.peek()
	if obj.Kind != TokKeyword || (obj.Text != "TABLE" && obj.Text != "INDEX") {
		return nil, fmt.Errorf("sqlmini: %s requires TABLE or INDEX", action)
	}
	p.next()
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	ddl := &DDLStmt{Action: action, Object: obj.Text, Name: name.Text}
	if obj.Text == "INDEX" && p.accept(TokKeyword, "ON") {
		t, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		ddl.Table = t.Text
		if p.accept(TokSymbol, "(") {
			if _, err := p.parseColumnList(); err != nil {
				return nil, err
			}
			if _, err := p.expect(TokSymbol, ")"); err != nil {
				return nil, err
			}
		}
	}
	if obj.Text == "TABLE" && action == "CREATE" && p.accept(TokSymbol, "(") {
		depth := 1
		for depth > 0 {
			tk := p.next()
			if tk.Kind == TokEOF {
				return nil, fmt.Errorf("sqlmini: unterminated column definitions")
			}
			if tk.Kind == TokSymbol && tk.Text == "(" {
				depth++
			}
			if tk.Kind == TokSymbol && tk.Text == ")" {
				depth--
			}
		}
	}
	return &Statement{Raw: p.raw, Type: StmtDDL, DDL: ddl}, nil
}

func (p *parser) parseLoad() (*Statement, error) {
	if _, err := p.expect(TokKeyword, "LOAD"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "INTO"); err != nil {
		return nil, err
	}
	t, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	load := &LoadStmt{Table: t.Text, Rows: 0}
	if p.at(TokNumber, "") {
		n, err := strconv.ParseInt(p.next().Text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sqlmini: bad LOAD row count")
		}
		load.Rows = n
	}
	return &Statement{Raw: p.raw, Type: StmtLoad, Load: load}, nil
}

func (p *parser) parseCall() (*Statement, error) {
	if _, err := p.expect(TokKeyword, "CALL"); err != nil {
		return nil, err
	}
	t, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	call := &CallStmt{Proc: t.Text}
	if p.accept(TokSymbol, "(") {
		for !p.accept(TokSymbol, ")") {
			tk := p.next()
			if tk.Kind == TokEOF {
				return nil, fmt.Errorf("sqlmini: unterminated CALL argument list")
			}
			if tk.Kind != TokSymbol {
				call.Args = append(call.Args, tk.Text)
			}
		}
	}
	return &Statement{Raw: p.raw, Type: StmtCall, Call: call}, nil
}
