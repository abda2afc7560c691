package sqlmini

import "fmt"

// StatementType classifies a statement the way the paper's workload
// definitions do ("what" the request is, Section 2.2): READ, WRITE, DML, DDL,
// LOAD, CALL.
type StatementType int

// Statement types.
const (
	StmtRead  StatementType = iota // SELECT
	StmtWrite                      // INSERT/UPDATE/DELETE (a DML subset that writes)
	StmtDDL                        // CREATE/DROP
	StmtLoad                       // LOAD
	StmtCall                       // CALL
)

// String names the statement type.
func (t StatementType) String() string {
	switch t {
	case StmtRead:
		return "READ"
	case StmtWrite:
		return "WRITE"
	case StmtDDL:
		return "DDL"
	case StmtLoad:
		return "LOAD"
	case StmtCall:
		return "CALL"
	default:
		return fmt.Sprintf("StatementType(%d)", int(t))
	}
}

// CompareOp is a comparison operator in a predicate.
type CompareOp string

// Predicate is a simple column-vs-literal or column-vs-column comparison.
type Predicate struct {
	Left  string // column (possibly table-qualified)
	Op    CompareOp
	Right string // literal or column
	// RightIsColumn marks join predicates (column = column).
	RightIsColumn bool
}

// JoinClause is one JOIN in a select.
type JoinClause struct {
	Table string
	On    Predicate
}

// SelectStmt is a parsed SELECT.
type SelectStmt struct {
	Columns   []string // "*" or column names / aggregate exprs
	Aggregate bool     // true if any aggregate function appears
	Distinct  bool
	Table     string
	Joins     []JoinClause
	Where     []Predicate // conjunctive
	GroupBy   []string
	OrderBy   []string
	Limit     int64 // -1 when absent
}

// InsertStmt is a parsed INSERT.
type InsertStmt struct {
	Table  string
	Rows   int64       // number of VALUES tuples, or estimated rows for INSERT..SELECT
	Select *SelectStmt // non-nil for INSERT ... SELECT
}

// UpdateStmt is a parsed UPDATE.
type UpdateStmt struct {
	Table string
	Sets  []string
	Where []Predicate
}

// DeleteStmt is a parsed DELETE.
type DeleteStmt struct {
	Table string
	Where []Predicate
}

// DDLStmt is a parsed CREATE/DROP TABLE or INDEX.
type DDLStmt struct {
	Action string // CREATE or DROP
	Object string // TABLE or INDEX
	Name   string
	Table  string // for indexes, the indexed table
}

// LoadStmt is a parsed LOAD INTO.
type LoadStmt struct {
	Table string
	Rows  int64
}

// CallStmt is a parsed CALL.
type CallStmt struct {
	Proc string
	Args []string
}

// Statement is the result of parsing one SQL string. Exactly one of the
// typed fields is non-nil, matching Type.
type Statement struct {
	Raw    string
	Type   StatementType
	Select *SelectStmt
	Insert *InsertStmt
	Update *UpdateStmt
	Delete *DeleteStmt
	DDL    *DDLStmt
	Load   *LoadStmt
	Call   *CallStmt
}
