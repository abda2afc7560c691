// Package taxonomy encodes Figure 1 of the paper — the taxonomy of workload
// management techniques — as a data structure, together with a registry
// mapping every taxonomy leaf to the techniques implemented in this
// repository, and renderers for the paper's tables. cmd/taxonomy prints the
// tree and tables; the Figure-1 benchmark asserts every leaf has at least
// one working implementation.
//
//dbwlm:deterministic
package taxonomy

import (
	"fmt"
	"sort"
	"strings"
)

// Class paths name taxonomy nodes, slash-separated from the root.
const (
	ClassCharacterization        = "workload-characterization"
	ClassCharacterizationStatic  = "workload-characterization/static"
	ClassCharacterizationDynamic = "workload-characterization/dynamic"
	ClassAdmission               = "admission-control"
	ClassAdmissionThreshold      = "admission-control/threshold-based"
	ClassAdmissionPrediction     = "admission-control/prediction-based"
	ClassScheduling              = "scheduling"
	ClassSchedulingQueue         = "scheduling/queue-management"
	ClassSchedulingRestructure   = "scheduling/query-restructuring"
	ClassExecution               = "execution-control"
	ClassExecutionReprioritize   = "execution-control/query-reprioritization"
	ClassExecutionCancel         = "execution-control/query-cancellation"
	ClassExecutionSuspension     = "execution-control/request-suspension"
	ClassExecutionThrottle       = "execution-control/request-suspension/request-throttling"
	ClassExecutionSuspendResume  = "execution-control/request-suspension/suspend-and-resume"
)

// Node is one taxonomy tree node.
type Node struct {
	Title    string
	Path     string
	Children []*Node
}

// Tree returns the Figure 1 taxonomy.
func Tree() *Node {
	return &Node{
		Title: "Workload Management Techniques",
		Path:  "",
		Children: []*Node{
			{
				Title: "Workload Characterization", Path: ClassCharacterization,
				Children: []*Node{
					{Title: "Static Characterization", Path: ClassCharacterizationStatic},
					{Title: "Dynamic Characterization", Path: ClassCharacterizationDynamic},
				},
			},
			{
				Title: "Admission Control", Path: ClassAdmission,
				Children: []*Node{
					{Title: "Threshold-based", Path: ClassAdmissionThreshold},
					{Title: "Prediction-based", Path: ClassAdmissionPrediction},
				},
			},
			{
				Title: "Scheduling", Path: ClassScheduling,
				Children: []*Node{
					{Title: "Queue Management", Path: ClassSchedulingQueue},
					{Title: "Query Restructuring", Path: ClassSchedulingRestructure},
				},
			},
			{
				Title: "Execution Control", Path: ClassExecution,
				Children: []*Node{
					{Title: "Query Reprioritization", Path: ClassExecutionReprioritize},
					{Title: "Query Cancellation", Path: ClassExecutionCancel},
					{
						Title: "Request Suspension", Path: ClassExecutionSuspension,
						Children: []*Node{
							{Title: "Request Throttling", Path: ClassExecutionThrottle},
							{Title: "Query Suspend-and-Resume", Path: ClassExecutionSuspendResume},
						},
					},
				},
			},
		},
	}
}

// Leaves returns the tree's leaf nodes in depth-first order.
func (n *Node) Leaves() []*Node {
	if len(n.Children) == 0 {
		return []*Node{n}
	}
	var out []*Node
	for _, c := range n.Children {
		out = append(out, c.Leaves()...)
	}
	return out
}

// Walk visits every node depth-first.
func (n *Node) Walk(fn func(*Node, int)) {
	var walk func(node *Node, depth int)
	walk = func(node *Node, depth int) {
		fn(node, depth)
		for _, c := range node.Children {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
}

// Technique is one implemented workload-management technique.
type Technique struct {
	// Name is the short technique name.
	Name string
	// Class is the taxonomy path the technique belongs to.
	Class string
	// Source cites the paper or commercial system it reproduces.
	Source string
	// Impl names the implementing Go identifier.
	Impl string
}

// Registry lists every technique implemented in this repository, keyed to
// the taxonomy — the "applications of the taxonomy" exercise of Section 4
// performed over our own codebase.
func Registry() []Technique {
	return []Technique{
		// Characterization.
		{"workload definitions by origin", ClassCharacterizationStatic, "IBM DB2 WLM [30]; Teradata [72]", "characterize.OriginMatcher"},
		{"work classes by statement type and predictive cost", ClassCharacterizationStatic, "IBM DB2 WLM [30]", "characterize.TypeMatcher"},
		{"user-written classifier functions", ClassCharacterizationStatic, "MS SQL Server Resource Governor [50]", "characterize.CriteriaFunc"},
		{"service classes, tiers and resource pools", ClassCharacterizationStatic, "DB2 service classes; SQL Server pools [50]", "characterize.ServiceClass, characterize.PoolSet"},
		{"workload analyzer over query logs", ClassCharacterizationStatic, "Teradata Workload Analyzer [71]", "characterize.Analyzer"},
		{"k-means query-log clustering", ClassCharacterizationStatic, "Tran et al. Oracle Workload Intelligence [73]", "trace.Compress, learn.KMeansFlat"},
		{"ML workload-type classification", ClassCharacterizationDynamic, "Elnaffar et al. [19]; Tran et al. [73]", "characterize.DynamicClassifier"},
		// Admission.
		{"query-cost threshold", ClassAdmissionThreshold, "Query Governor Cost Limit [51]; DB2 [30]; Teradata filters [72]", "admission.CostThreshold"},
		{"MPL threshold", ClassAdmissionThreshold, "commercial MPLs [9][50][72]", "admission.MPLThreshold"},
		{"conflict-ratio load control", ClassAdmissionThreshold, "Moenkeberg & Weikum [56]", "admission.ConflictRatio"},
		{"transaction-throughput feedback", ClassAdmissionThreshold, "Heiss & Wagner [26]", "admission.ThroughputFeedback"},
		{"congestion indicators", ClassAdmissionThreshold, "Zhang et al. [79][80]", "admission.Indicators"},
		{"operating-period threshold schedules", ClassAdmissionThreshold, "Section 3.2 (day/night thresholds)", "admission.OperatingPeriods"},
		{"decision-tree runtime-range prediction", ClassAdmissionPrediction, "Gupta et al. PQR [23]", "admission.TreePredictor"},
		{"k-NN plan-similarity runtime prediction", ClassAdmissionPrediction, "Ganapathi et al. [21]", "admission.KNNPredictor"},
		// Scheduling.
		{"FCFS / priority / SJF wait queues", ClassSchedulingQueue, "Section 3.3 [2][18]", "scheduling.FCFS, scheduling.Priority, scheduling.SJF"},
		{"rank-function scheduling with aging", ClassSchedulingQueue, "Gupta et al. [24]", "scheduling.Rank"},
		{"interaction-aware batch ordering", ClassSchedulingQueue, "Ahmad et al. [2]", "scheduling.PlanBatch"},
		{"utility-function cost-limit planning", ClassSchedulingQueue, "Niu et al. [60]", "scheduling.Planner, scheduling.CostLimit"},
		{"analytic queueing models", ClassSchedulingQueue, "Kleinrock [35]; Lazowska et al. [40]", "scheduling.MMCResponseTime, scheduling.PSResponseTime"},
		{"feedback MPL control", ClassSchedulingQueue, "Schroeder et al. [69]", "scheduling.FeedbackMPL"},
		{"plan slicing into sub-plans", ClassSchedulingRestructure, "Bruno et al. [6]; Meng et al. [54]", "scheduling.SlicePlan, scheduling.RunSliced"},
		// Execution control.
		{"priority aging via service tiers", ClassExecutionReprioritize, "DB2 WLM [9][30]", "execctl.Ager"},
		{"economic policy-driven resource reallocation", ClassExecutionReprioritize, "Boughton et al. [4]; Zhang et al. [78]", "execctl.EconomicReallocator"},
		{"query kill", ClassExecutionCancel, "DB2 / SQL Server / Teradata [30][50][72]", "execctl.Killer"},
		{"kill-and-resubmit", ClassExecutionCancel, "Krompass et al. [39]", "execctl.Killer (Resubmit), dbwlm.Manager.Resubmit"},
		{"PI-controller utility throttling", ClassExecutionThrottle, "Parekh et al. [64]", "execctl.PIController, execctl.Throttler"},
		{"step and black-box query throttling", ClassExecutionThrottle, "Powley et al. [65][66]", "execctl.StepController, execctl.BlackBoxController"},
		{"constant and interrupt throttle methods", ClassExecutionThrottle, "Powley et al. [65]", "execctl.MethodConstant, execctl.MethodInterrupt"},
		{"suspend-and-resume with checkpoints", ClassExecutionSuspendResume, "Chandramouli et al. [10]; Chaudhuri et al. [12]", "engine.Engine.Suspend, execctl.Suspender"},
		{"optimal suspend-plan selection", ClassExecutionSuspendResume, "Chandramouli et al. [10]", "execctl.OptimalSuspendPlan"},
		// Supporting techniques discussed with the taxonomy.
		{"query progress indicators", ClassExecution, "Chaudhuri et al. [11]; Luo et al. [45]; Li et al. [43]", "progress.Tracker"},
		{"fuzzy-logic execution control", ClassExecution, "Krompass et al. [39]", "autonomic.FuzzyController"},
		{"MAPE autonomic loop with utility planning", ClassExecution, "Section 5.3; Kephart & Das [34]", "autonomic.Loop, autonomic.PlanBest"},
	}
}

// ByClass groups the registry by taxonomy path.
func ByClass() map[string][]Technique {
	out := make(map[string][]Technique)
	for _, t := range Registry() {
		out[t.Class] = append(out[t.Class], t)
	}
	return out
}

// RenderTree renders the taxonomy (Figure 1) with implementation counts.
func RenderTree() string {
	byClass := ByClass()
	var b strings.Builder
	Tree().Walk(func(n *Node, depth int) {
		indent := strings.Repeat("  ", depth)
		count := ""
		if n.Path != "" {
			if ts := byClass[n.Path]; len(ts) > 0 {
				count = fmt.Sprintf("  [%d techniques]", len(ts))
			}
		}
		fmt.Fprintf(&b, "%s%s%s\n", indent, n.Title, count)
	})
	return b.String()
}

// TableRow is one row of a rendered paper table.
type TableRow []string

// Table is a titled set of rows with a header.
type Table struct {
	Title  string
	Header TableRow
	Rows   []TableRow
}

// Render formats the table as aligned text.
func (t Table) Render() string {
	widths := make([]int, len(t.Header))
	measure := func(r TableRow) {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	line := func(r TableRow) {
		for i, c := range r {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	sep := make(TableRow, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// Table1 reproduces Table 1: the three control types of a workload
// management process.
func Table1() Table {
	return Table{
		Title:  "Table 1: Three types of controls in a workload management process",
		Header: TableRow{"Control Type", "Control Point", "Associated Policy", "Implementation"},
		Rows: []TableRow{
			{"Admission Control", "upon arrival in the system", "admission control policies", "admission.Controller via dbwlm.Manager"},
			{"Scheduling", "prior to the execution engine", "scheduling policies", "scheduling.Scheduler (queue + dispatcher)"},
			{"Execution Control", "during execution", "execution control policies", "execctl controllers on engine queries"},
		},
	}
}

// Table2 reproduces Table 2: the admission-control approaches.
func Table2() Table {
	return Table{
		Title:  "Table 2: Approaches used for workload admission control",
		Header: TableRow{"Threshold", "Type", "Implementation"},
		Rows: []TableRow{
			{"Query Cost [9][50][72]", "system parameter", "admission.CostThreshold"},
			{"MPLs [9][50][72]", "system parameter", "admission.MPLThreshold"},
			{"Conflict Ratio [56]", "performance metric", "admission.ConflictRatio"},
			{"Transaction Throughput [26]", "performance metric", "admission.ThroughputFeedback"},
			{"Indicators [79][80]", "monitor metrics", "admission.Indicators"},
			{"Predicted runtime range [23]", "prediction-based", "admission.TreePredictor"},
			{"Predicted runtime (k-NN) [21]", "prediction-based", "admission.KNNPredictor"},
		},
	}
}

// Table3 reproduces Table 3: the execution-control approaches.
func Table3() Table {
	return Table{
		Title:  "Table 3: Approaches used for workload execution control",
		Header: TableRow{"Approach", "Type", "Implementation"},
		Rows: []TableRow{
			{"Priority Aging [9]", "reprioritization", "execctl.Ager"},
			{"Policy-Driven Resource Allocation [4][78]", "reprioritization", "execctl.EconomicReallocator"},
			{"Query Kill [30][50][61][72]", "cancellation", "execctl.Killer"},
			{"Query Stop-and-Restart [10][12]", "suspend & resume", "engine.Engine.Suspend + execctl.Suspender"},
			{"Request Throttling [64][65][66]", "throttling", "execctl.Throttler (PI/step/black-box)"},
		},
	}
}

// Table4 reproduces Table 4: the commercial workload management systems and
// the technique classes they employ.
func Table4() Table {
	return Table{
		Title:  "Table 4: Summary of the commercial workload management systems",
		Header: TableRow{"System", "Characterization", "Admission Control", "Execution Control", "Profile"},
		Rows: []TableRow{
			{"IBM DB2 Workload Manager [30]", "static (origin/type work classes)", "thresholds (cost, type, MPL)", "priority aging + kill", "governor.DB2Profile"},
			{"MS SQL Server Resource/Query Governor [50][51]", "static (classifier functions)", "query-cost governor", "pool-based dynamic reallocation", "governor.SQLServerProfile"},
			{"Teradata Active System Management [71][72]", "static (WA recommendations)", "filters & throttles", "kill + exception rules", "governor.TeradataProfile"},
		},
	}
}

// Table5 reproduces Table 5: the research techniques classified by the
// taxonomy.
func Table5() Table {
	return Table{
		Title:  "Table 5: Summary of the research workload management techniques",
		Header: TableRow{"Technique", "Taxonomy Classes", "Implementation"},
		Rows: []TableRow{
			{"Niu et al. query scheduler [60]", "admission control & scheduling", "scheduling.Planner + scheduling.CostLimit"},
			{"Parekh et al. utility throttling [64]", "execution control / throttling", "execctl.PIController + execctl.Throttler"},
			{"Powley et al. query throttling [65][66]", "execution control / throttling", "execctl.StepController, execctl.BlackBoxController"},
			{"Chandramouli et al. suspend & resume [10]", "execution control / suspend-and-resume", "execctl.OptimalSuspendPlan + engine.Engine.Suspend"},
			{"Krompass et al. fuzzy control [39]", "execution control / cancellation + reprioritization", "autonomic.FuzzyController"},
		},
	}
}

// AllTables returns Tables 1-5 in order.
func AllTables() []Table {
	return []Table{Table1(), Table2(), Table3(), Table4(), Table5()}
}

// CoverageGaps reports taxonomy leaves with no registered technique (empty
// means the implementation covers the whole of Figure 1).
func CoverageGaps() []string {
	byClass := ByClass()
	var gaps []string
	for _, leaf := range Tree().Leaves() {
		if len(byClass[leaf.Path]) == 0 {
			gaps = append(gaps, leaf.Path)
		}
	}
	sort.Strings(gaps)
	return gaps
}
