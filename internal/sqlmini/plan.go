package sqlmini

import (
	"fmt"
	"strings"
)

// OpKind labels a plan operator.
type OpKind int

// Operator kinds.
const (
	OpScan OpKind = iota
	OpIndexLookup
	OpFilter
	OpHashJoin
	OpSort
	OpAggregate
	OpProject
	OpLimit
	OpInsert
	OpUpdate
	OpDelete
	OpDDL
	OpLoad
	OpCall
)

// String names the operator kind.
func (k OpKind) String() string {
	names := []string{"Scan", "IndexLookup", "Filter", "HashJoin", "Sort",
		"Aggregate", "Project", "Limit", "Insert", "Update", "Delete", "DDL", "Load", "Call"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Operator is one node of a physical plan with its cost estimates. The costs
// are what the engine consumes as "work" and what the workload manager sees
// as the optimizer's estimate.
type Operator struct {
	Kind     OpKind
	Table    string // for scans and mutations
	Detail   string
	Children []*Operator

	// Estimates produced by the cost model.
	EstRows float64 // output cardinality
	EstCPU  float64 // core-seconds for this operator alone
	EstIO   float64 // megabytes read+written by this operator alone
	EstMem  float64 // peak working memory (MB) held while this operator runs
	// StateMB is the size of this operator's checkpointable state (hash
	// tables, sort runs); it drives the DumpState suspend cost.
	StateMB float64
}

// Plan is a physical plan for one statement.
type Plan struct {
	Root *Operator
	Stmt *Statement
}

// Operators returns every operator in the plan in post-order (children before
// parents), which is also a valid execution order for the sliced sub-plans of
// the query-restructuring scheduler.
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

// String renders the plan as an indented tree.
func (p *Plan) String() string {
	var b strings.Builder
	var walk func(op *Operator, depth int)
	walk = func(op *Operator, depth int) {
		fmt.Fprintf(&b, "%s%s", strings.Repeat("  ", depth), op.Kind)
		if op.Table != "" {
			fmt.Fprintf(&b, "(%s)", op.Table)
		}
		fmt.Fprintf(&b, " rows=%.0f cpu=%.4gs io=%.4gMB mem=%.4gMB\n",
			op.EstRows, op.EstCPU, op.EstIO, op.EstMem)
		for _, c := range op.Children {
			walk(c, depth+1)
		}
	}
	if p.Root != nil {
		walk(p.Root, 0)
	}
	return b.String()
}
