package dbwlm

import (
	"fmt"
	"strings"
	"testing"

	"dbwlm/internal/engine"
	"dbwlm/internal/policy"
	"dbwlm/internal/scheduling"
	"dbwlm/internal/sim"
	"dbwlm/internal/workload"
)

const sampleConfig = `{
  "service_classes": [
    {"name": "gold", "priority": "high",
     "tiers": [{"name": "fresh", "weight": 16}, {"name": "aged", "weight": 2}]},
    {"name": "bronze", "priority": "low"}
  ],
  "workloads": [
    {"name": "oltp", "service_class": "gold",
     "match": {"app": "pos-terminal"}, "priority": "critical"},
    {"name": "bigread", "service_class": "bronze",
     "match": {"types": ["READ"], "min_timerons": 8000}}
  ],
  "admission": {"cost_limits": {"low": 500000}, "mpl": 64},
  "scheduler": {"queue": "priority", "class_mpl": {"bronze": 2}},
  "execution": {"kill_after_seconds": 300, "age_after_seconds": [20]}
}`

func TestParseAndApplyConfig(t *testing.T) {
	s := sim.New(1)
	m := New(s, engine.Config{Cores: 8, MemoryMB: 4096, IOMBps: 800})
	if err := LoadConfig(m, strings.NewReader(sampleConfig)); err != nil {
		t.Fatal(err)
	}
	if m.Router == nil || m.Admission == nil || m.Scheduler == nil || m.OnDispatch == nil {
		t.Fatal("config did not install all components")
	}
	// Routing behaves per the config.
	req := &workload.Request{Origin: workload.Origin{App: "pos-terminal"}}
	def, class := m.Router.Classify(req)
	if def == nil || def.Name != "oltp" || class.Name != "gold" {
		t.Fatalf("routing = %v, %v", def, class)
	}
	if req.Priority != policy.PriorityCritical {
		t.Fatal("priority override not applied")
	}
	if class.EffectiveWeight() != 16 {
		t.Fatalf("tiered weight = %v", class.EffectiveWeight())
	}
	// End to end: run a small workload through the configured manager.
	gens := []workload.Generator{oltpGen(30)}
	m.RunWorkload(gens, 10*sim.Second, 10*sim.Second)
	if m.Stats().Workload("oltp").Completed.Value() < 200 {
		t.Fatalf("configured manager completed %d", m.Stats().Workload("oltp").Completed.Value())
	}
}

func TestConfigErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"unknown field", `{"nope": 1}`},
		{"bad priority", `{"service_classes":[{"name":"a","priority":"urgent"}]}`},
		{"unknown class ref", `{"workloads":[{"name":"w","service_class":"ghost","match":{"app":"x"}}]}`},
		{"empty match", `{"service_classes":[{"name":"a","priority":"low"}],
			"workloads":[{"name":"w","service_class":"a","match":{}}]}`},
		{"bad type", `{"service_classes":[{"name":"a","priority":"low"}],
			"workloads":[{"name":"w","service_class":"a","match":{"types":["SELECT"]}}]}`},
		{"bad queue", `{"scheduler":{"queue":"lifo"}}`},
		{"class max_concurrency", `{"service_classes":[{"name":"a","priority":"low","max_concurrency":4}]}`},
		{"two dispatchers", `{"scheduler":{"mpl":8,"class_mpl":{"a":2}}}`},
		{"bad admission priority", `{"admission":{"cost_limits":{"urgent": 5}}}`},
		{"bad workload priority", `{"service_classes":[{"name":"a","priority":"low"}],
			"workloads":[{"name":"w","service_class":"a","match":{"app":"x"},"priority":"urgent"}]}`},
	}
	for _, c := range cases {
		s := sim.New(1)
		m := New(s, engine.Config{})
		if err := LoadConfig(m, strings.NewReader(c.json)); err == nil {
			t.Errorf("%s: config accepted", c.name)
		}
	}
}

func TestConfigExecutionControlsActive(t *testing.T) {
	s := sim.New(1)
	m := New(s, engine.Config{Cores: 8, MemoryMB: 4096, IOMBps: 800})
	cfg := `{
	  "service_classes": [
	    {"name": "gold", "priority": "high"},
	    {"name": "bronze", "priority": "low",
	     "tiers": [{"name": "a", "weight": 4}, {"name": "b", "weight": 1}]}
	  ],
	  "workloads": [
	    {"name": "big", "service_class": "bronze", "match": {"types": ["READ"]}}
	  ],
	  "execution": {"kill_after_seconds": 5, "age_after_seconds": [1]}
	}`
	if err := LoadConfig(m, strings.NewReader(cfg)); err != nil {
		t.Fatal(err)
	}
	req := &workload.Request{
		ID: 1, SQL: []byte("SELECT a FROM t"),
		Type: 0, // StmtRead
		True: engine.QuerySpec{CPUWork: 100, Parallelism: 1},
	}
	m.Submit(req)
	s.Run(sim.Time(3 * sim.Second))
	// Aged to the bottom tier before being killed.
	var aged bool
	for _, rr := range m.RunningAll() {
		if rr.Query.Weight == 1 {
			aged = true
		}
	}
	if !aged {
		t.Fatal("aging from config did not demote")
	}
	s.Run(sim.Time(10 * sim.Second))
	if m.Stats().Workload("big").Killed.Value() != 1 {
		t.Fatal("kill threshold from config did not fire")
	}
}

func TestConfigCostLimitDispatcher(t *testing.T) {
	s := sim.New(1)
	m := New(s, engine.Config{})
	cfg := `{
	  "service_classes": [{"name": "a", "priority": "low"}],
	  "workloads": [{"name": "w", "service_class": "a", "match": {"types": ["READ"]}}],
	  "scheduler": {"queue": "sjf", "cost_limits": {"a": 1000}}
	}`
	if err := LoadConfig(m, strings.NewReader(cfg)); err != nil {
		t.Fatal(err)
	}
	// While a 900-timeron request holds class a, a 600 and a 500 wait. When
	// it finishes, SJF offers the 500 first, and the cost limit then holds
	// the 600 back (500+600 > 1000).
	var released []float64
	m.Scheduler.Release = func(it *scheduling.Item) { released = append(released, it.Req.Est.Timerons) }
	item := func(cost float64) *scheduling.Item {
		return &scheduling.Item{Req: &workload.Request{Est: workload.Estimates{Timerons: cost}}, Class: "a"}
	}
	first := item(900)
	for _, it := range []*scheduling.Item{first, item(600), item(500)} {
		m.Scheduler.Enqueue(it, 0)
	}
	m.Scheduler.OnFinish(first, 0)
	if fmt.Sprint(released) != "[900 500]" {
		t.Fatalf("released %v, want [900 500] (SJF order under a cost limit of 1000)", released)
	}
}
