package sqlmini

import (
	"fmt"
	"math"
)

// CostModel converts statements into physical plans with cost estimates. The
// constants are calibrated so that an indexed OLTP point query costs
// milliseconds of CPU and a full scan of the default warehouse fact table
// costs tens of core-seconds — the cost spread the paper's consolidation
// scenario depends on.
type CostModel struct {
	Catalog *Catalog
	// CPUPerRow is core-seconds of CPU per row touched (default 50ns).
	CPUPerRow float64
	// CPUPerCompare is core-seconds per comparison in sorts (default 25ns).
	CPUPerCompare float64
	// DefaultRows is assumed for tables missing from the catalog.
	DefaultRows int64
}

// NewCostModel returns a cost model over the catalog with default constants.
func NewCostModel(cat *Catalog) *CostModel {
	return &CostModel{
		Catalog:       cat,
		CPUPerRow:     50e-9,
		CPUPerCompare: 25e-9,
		DefaultRows:   100_000,
	}
}

func (m *CostModel) tableStats(name string) *TableStats {
	if t := m.Catalog.Table(name); t != nil {
		return t
	}
	return &TableStats{Name: name, Rows: m.DefaultRows, RowBytes: 100}
}

// Selectivity estimates the fraction of rows passing a predicate, using the
// classic System R constants.
func Selectivity(p Predicate) float64 {
	if p.RightIsColumn {
		return 1 // join predicates handled by the join estimator
	}
	switch p.Op {
	case "=":
		return 0.05
	case "<", ">", "<=", ">=", "between":
		return 0.30
	case "like":
		return 0.25
	case "in":
		return 0.20
	case "<>", "!=":
		return 0.90
	default:
		return 0.33
	}
}

func conjunctionSelectivity(preds []Predicate) float64 {
	s := 1.0
	for _, p := range preds {
		s *= Selectivity(p)
	}
	return s
}

// hasPointPredicate reports whether preds contains an equality against a
// literal (index-usable).
func hasPointPredicate(preds []Predicate) bool {
	for _, p := range preds {
		if p.Op == "=" && !p.RightIsColumn {
			return true
		}
	}
	return false
}

// BuildPlan compiles a parsed statement into a physical plan with estimates.
func (m *CostModel) BuildPlan(stmt *Statement) (*Plan, error) {
	var root *Operator
	switch stmt.Type {
	case StmtRead:
		root = m.planSelect(stmt.Select)
	case StmtWrite:
		switch {
		case stmt.Insert != nil:
			root = m.planInsert(stmt.Insert)
		case stmt.Update != nil:
			root = m.planUpdate(stmt.Update)
		case stmt.Delete != nil:
			root = m.planDelete(stmt.Delete)
		}
	case StmtDDL:
		root = m.planDDL(stmt.DDL)
	case StmtLoad:
		root = m.planLoad(stmt.Load)
	case StmtCall:
		root = &Operator{Kind: OpCall, EstRows: 1,
			EstCPU: 0.01, EstIO: 1, EstMem: 8}
	}
	if root == nil {
		return nil, fmt.Errorf("sqlmini: cannot plan statement %q", stmt.Raw)
	}
	return &Plan{Root: root, Stmt: stmt}, nil
}

// planAccess builds the access path for one table with its local predicates.
func (m *CostModel) planAccess(table string, preds []Predicate) *Operator {
	t := m.tableStats(table)
	sel := conjunctionSelectivity(preds)
	outRows := math.Max(1, float64(t.Rows)*sel)
	if t.Indexed && hasPointPredicate(preds) {
		// Index lookup: touch only matching rows plus index pages.
		ioMB := outRows*float64(t.RowBytes)/(1<<20) + 0.064 // + index pages
		return &Operator{
			Kind: OpIndexLookup, Table: table,
			EstRows: outRows,
			EstCPU:  outRows*m.CPUPerRow*4 + 20e-6, // traversal overhead
			EstIO:   ioMB,
			EstMem:  1,
		}
	}
	// Full scan: read everything, evaluate predicates on every row.
	return &Operator{
		Kind: OpScan, Table: table,
		EstRows: outRows,
		EstCPU:  float64(t.Rows) * m.CPUPerRow * float64(1+len(preds)),
		EstIO:   t.SizeMB(),
		EstMem:  4, // scan buffers
	}
}

// predsForTable partitions predicates: those naming only the given table
// (by qualified prefix) or unqualified ones attach to the driving table.
func predsForTable(preds []Predicate, table string, isDriving bool) []Predicate {
	var out []Predicate
	for _, p := range preds {
		if p.RightIsColumn {
			continue
		}
		if qual, ok := splitQualifier(p.Left); ok {
			if qual == table {
				out = append(out, p)
			}
		} else if isDriving {
			out = append(out, p)
		}
	}
	return out
}

func splitQualifier(col string) (string, bool) {
	for i := 0; i < len(col); i++ {
		if col[i] == '.' {
			return col[:i], true
		}
	}
	return "", false
}

func (m *CostModel) planSelect(sel *SelectStmt) *Operator {
	cur := m.planAccess(sel.Table, predsForTable(sel.Where, sel.Table, true))
	// Left-deep join tree in syntactic order, hash join throughout.
	for _, j := range sel.Joins {
		right := m.planAccess(j.Table, predsForTable(sel.Where, j.Table, false))
		build, probe := right, cur
		if right.EstRows > cur.EstRows {
			build, probe = cur, right
		}
		buildBytes := build.EstRows * 100                              // assume ~100B joined-row width
		outRows := math.Max(1, math.Max(build.EstRows, probe.EstRows)) // FK-join heuristic
		cur = &Operator{
			Kind:     OpHashJoin,
			Children: []*Operator{probe, build},
			EstRows:  outRows,
			EstCPU:   (build.EstRows + probe.EstRows + outRows) * m.CPUPerRow * 2,
			EstIO:    0, // in-memory join; spill is the engine's memory model's job
			EstMem:   buildBytes / (1 << 20),
			StateMB:  buildBytes / (1 << 20),
		}
	}
	if sel.Aggregate || len(sel.GroupBy) > 0 {
		in := cur
		groups := math.Max(1, in.EstRows*0.01)
		if len(sel.GroupBy) == 0 {
			groups = 1 // scalar aggregate
		}
		cur = &Operator{
			Kind: OpAggregate, Children: []*Operator{in},
			EstRows: groups,
			EstCPU:  in.EstRows * m.CPUPerRow,
			EstMem:  groups * 64 / (1 << 20),
			StateMB: groups * 64 / (1 << 20),
		}
	}
	if len(sel.OrderBy) > 0 {
		in := cur
		n := math.Max(2, in.EstRows)
		sortBytes := n * 100
		cur = &Operator{
			Kind: OpSort, Children: []*Operator{in},
			EstRows: in.EstRows,
			EstCPU:  n * math.Log2(n) * m.CPUPerCompare,
			EstMem:  sortBytes / (1 << 20),
			StateMB: sortBytes / (1 << 20),
		}
	}
	if sel.Distinct {
		in := cur
		cur = &Operator{
			Kind: OpAggregate, Children: []*Operator{in},
			EstRows: math.Max(1, in.EstRows*0.5),
			EstCPU:  in.EstRows * m.CPUPerRow,
			EstMem:  in.EstRows * 50 / (1 << 20),
			StateMB: in.EstRows * 50 / (1 << 20),
		}
	}
	if sel.Limit >= 0 {
		in := cur
		cur = &Operator{
			Kind: OpLimit, Children: []*Operator{in},
			EstRows: math.Min(float64(sel.Limit), in.EstRows),
			EstCPU:  1e-6,
		}
	}
	return cur
}

func (m *CostModel) planInsert(ins *InsertStmt) *Operator {
	t := m.tableStats(ins.Table)
	if ins.Select != nil {
		child := m.planSelect(ins.Select)
		rows := child.EstRows
		return &Operator{
			Kind: OpInsert, Table: ins.Table, Children: []*Operator{child},
			EstRows: rows,
			EstCPU:  rows * m.CPUPerRow * 6, // index maintenance
			EstIO:   rows * float64(t.RowBytes) * 2 / (1 << 20),
			EstMem:  2,
		}
	}
	rows := math.Max(1, float64(ins.Rows))
	return &Operator{
		Kind: OpInsert, Table: ins.Table,
		EstRows: rows,
		EstCPU:  rows*m.CPUPerRow*6 + 30e-6,
		EstIO:   math.Max(0.008, rows*float64(t.RowBytes)*2/(1<<20)),
		EstMem:  1,
	}
}

func (m *CostModel) planUpdate(upd *UpdateStmt) *Operator {
	access := m.planAccess(upd.Table, upd.Where)
	t := m.tableStats(upd.Table)
	rows := access.EstRows
	return &Operator{
		Kind: OpUpdate, Table: upd.Table, Children: []*Operator{access},
		EstRows: rows,
		EstCPU:  rows * m.CPUPerRow * 4,
		EstIO:   math.Max(0.008, rows*float64(t.RowBytes)*2/(1<<20)),
		EstMem:  1,
	}
}

func (m *CostModel) planDelete(del *DeleteStmt) *Operator {
	access := m.planAccess(del.Table, del.Where)
	t := m.tableStats(del.Table)
	rows := access.EstRows
	return &Operator{
		Kind: OpDelete, Table: del.Table, Children: []*Operator{access},
		EstRows: rows,
		EstCPU:  rows * m.CPUPerRow * 4,
		EstIO:   math.Max(0.008, rows*float64(t.RowBytes)/(1<<20)),
		EstMem:  1,
	}
}

func (m *CostModel) planDDL(ddl *DDLStmt) *Operator {
	op := &Operator{Kind: OpDDL, Table: ddl.Table,
		EstRows: 0, EstCPU: 0.005, EstIO: 0.1, EstMem: 4}
	if ddl.Action == "CREATE" && ddl.Object == "INDEX" && ddl.Table != "" {
		// Index builds scan and sort the whole table.
		t := m.tableStats(ddl.Table)
		n := math.Max(2, float64(t.Rows))
		op.EstCPU = n*m.CPUPerRow + n*math.Log2(n)*m.CPUPerCompare
		op.EstIO = t.SizeMB() * 1.5
		op.EstMem = math.Min(512, t.SizeMB()/4)
		op.StateMB = op.EstMem
	}
	return op
}

func (m *CostModel) planLoad(load *LoadStmt) *Operator {
	t := m.tableStats(load.Table)
	rows := float64(load.Rows)
	if rows == 0 {
		rows = float64(t.Rows) / 10
	}
	return &Operator{
		Kind: OpLoad, Table: load.Table,
		EstRows: rows,
		EstCPU:  rows * m.CPUPerRow * 3,
		EstIO:   rows * float64(t.RowBytes) * 2 / (1 << 20),
		EstMem:  32,
	}
}

// PlanSQL parses and plans a SQL string in one step.
func (m *CostModel) PlanSQL(sql string) (*Plan, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return m.BuildPlan(stmt)
}
