package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTimeIsParentMinusCoveredChildren(t *testing.T) {
	spans := []Span{
		{Name: "frame", Start: 0, End: 100, Parent: -1},    // 0
		{Name: "decode", Start: 10, End: 30, Parent: 0},    // 1
		{Name: "dispatch", Start: 30, End: 80, Parent: 0},  // 2
		{Name: "gate", Start: 40, End: 60, Parent: 2},      // 3
		{Name: "overlap", Start: 50, End: 70, Parent: 2},   // 4: overlaps gate by 10
		{Name: "spill", Start: 90, End: 130, Parent: 0},    // 5: runs past its parent
		{Name: "elsewhere", Start: 0, End: 50, Parent: -1}, // 6: a root with no children
	}
	want := []int64{
		100 - (20 + 50 + 10), // children cover 10..30, 30..80 and the clipped 90..100
		20,
		50 - 30, // gate 40..60 and overlap 50..70 cover 40..70 once
		20,
		20,
		40,
		50,
	}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerRecordsAndNilTracerDoesNothing(t *testing.T) {
	var off *Tracer
	if id := off.Begin("x", -1, 0); id != -1 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	off.End(-1)
	if len(off.Spans()) != 0 {
		t.Fatal("nil tracer holds spans")
	}

	tr := NewTracer(4)
	root := tr.Begin("frame", -1, 7)
	child := tr.Begin("stage", root, 7)
	tr.End(child)
	tr.End(root)
	s := tr.Spans()
	if len(s) != 2 || s[1].Parent != root || s[1].Frame != 7 || s[0].End < s[1].End || s[1].End < s[1].Start {
		t.Fatalf("unexpected spans %+v", s)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.WriteJSONL(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], `"name":"stage"`) || !strings.Contains(lines[1], `"parent":0`) {
		t.Fatalf("unexpected span file:\n%s", b)
	}
}

func TestTimeCallsRunsEveryCallOnce(t *testing.T) {
	tr := NewTracer(8)
	seen := make([]int, 1000)
	ns := timeCalls(tr, "unit", 1000, 250, func(i int) { seen[i]++ })
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("call %d ran %d times", i, n)
		}
	}
	if ns <= 0 || len(tr.Spans()) != 4 {
		t.Fatalf("ns/call %v over %d spans, want > 0 over 4", ns, len(tr.Spans()))
	}
}
