package characterize

import (
	"testing"

	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
	"dbwlm/internal/sqlmini"
	"dbwlm/internal/workload"
)

func logRecord(app string, typ sqlmini.StatementType, timerons, seconds float64) LogRecord {
	return LogRecord{
		Req: &workload.Request{
			Origin: workload.Origin{App: app},
			Type:   typ,
			Est:    workload.Estimates{Timerons: timerons},
		},
		ResponseSeconds: seconds,
	}
}

func sampleLog() []LogRecord {
	var log []LogRecord
	// 40 cheap POS writes (~0.02s), 20 heavy BI reads (~30s), 3 strays.
	for i := 0; i < 40; i++ {
		log = append(log, logRecord("pos", sqlmini.StmtWrite, 20+float64(i%3), 0.02))
	}
	for i := 0; i < 20; i++ {
		log = append(log, logRecord("dash", sqlmini.StmtRead, 150000+float64(i*100), 30))
	}
	for i := 0; i < 3; i++ {
		log = append(log, logRecord("misc", sqlmini.StmtDDL, 100, 1))
	}
	return log
}

func TestAnalyzerGroupsByWhoAndWhat(t *testing.T) {
	a := &Analyzer{MinGroupSize: 5}
	cands := a.Analyze(sampleLog())
	if len(cands) != 2 {
		t.Fatalf("candidates = %d, want 2 (strays below MinGroupSize)", len(cands))
	}
	// Ordered by count: POS first.
	if cands[0].App != "pos" || cands[0].Count != 40 {
		t.Fatalf("first candidate = %+v", cands[0])
	}
	if cands[1].App != "dash" || cands[1].Count != 20 {
		t.Fatalf("second candidate = %+v", cands[1])
	}
	// Heuristics: cheap writes get high priority, heavy reads low.
	if cands[0].RecommendedPriority != policy.PriorityHigh {
		t.Fatalf("pos priority = %v", cands[0].RecommendedPriority)
	}
	if cands[1].RecommendedPriority != policy.PriorityLow {
		t.Fatalf("dash priority = %v", cands[1].RecommendedPriority)
	}
	// SLG is observed p95 with headroom.
	if cands[0].RecommendedSLG.Kind != policy.SLOPercentileResponseTime {
		t.Fatal("SLG kind wrong")
	}
	if got := cands[0].RecommendedSLG.Target; got < 0.02 || got > 0.05 {
		t.Fatalf("pos SLG target = %v, want ~0.03 (p95*1.5)", got)
	}
}

func TestAnalyzerEmptyAndNilSafe(t *testing.T) {
	a := &Analyzer{}
	if got := a.Analyze(nil); len(got) != 0 {
		t.Fatal("empty log produced candidates")
	}
	if got := a.Analyze([]LogRecord{{Req: nil}}); len(got) != 0 {
		t.Fatal("nil request not skipped")
	}
}

func TestToDefinitionAndInstall(t *testing.T) {
	a := &Analyzer{MinGroupSize: 5}
	cands := a.Analyze(sampleLog())
	router := InstallRecommendations(cands, nil)
	// A fresh POS write should land in the recommended class.
	req := &workload.Request{
		Origin: workload.Origin{App: "pos"},
		Type:   sqlmini.StmtWrite,
		Est:    workload.Estimates{Timerons: 21},
	}
	def, class := router.Classify(req)
	if def == nil || class == nil {
		t.Fatal("recommendation did not classify")
	}
	if class.Priority != policy.PriorityHigh {
		t.Fatalf("class priority = %v", class.Priority)
	}
	// A heavy dash read routes to the analytic recommendation.
	req2 := &workload.Request{
		Origin: workload.Origin{App: "dash"},
		Type:   sqlmini.StmtRead,
		Est:    workload.Estimates{Timerons: 151000},
	}
	def2, class2 := router.Classify(req2)
	if def2 == nil || class2.Priority != policy.PriorityLow {
		t.Fatalf("dash routing: %v %v", def2, class2)
	}
	// An unknown request goes to the default.
	req3 := &workload.Request{Type: sqlmini.StmtCall}
	def3, _ := router.Classify(req3)
	if def3 != nil {
		t.Fatal("stray matched a recommendation")
	}
}

func TestAnalyzerFromGeneratedLog(t *testing.T) {
	// End to end: generate a mixed workload, pretend it ran solo, analyze.
	s := sim.New(5)
	seq := &workload.Sequence{}
	var log []LogRecord
	collect := func(r *workload.Request) {
		log = append(log, LogRecord{Req: r, ResponseSeconds: r.True.CPUWork * 2})
	}
	(&workload.OLTPGen{WorkloadName: "oltp", Rate: 50, Seq: seq}).
		Start(s, sim.Time(10*sim.Second), collect)
	s.RunAll(1 << 22)
	a := &Analyzer{MinGroupSize: 10}
	cands := a.Analyze(log)
	if len(cands) == 0 {
		t.Fatal("no candidates from generated log")
	}
	for _, c := range cands {
		if c.App != "pos-terminal" {
			t.Fatalf("unexpected app %q", c.App)
		}
	}
}
