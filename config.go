package dbwlm

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"dbwlm/internal/admission"
	"dbwlm/internal/characterize"
	"dbwlm/internal/execctl"
	"dbwlm/internal/policy"
	"dbwlm/internal/scheduling"
	"dbwlm/internal/sqlmini"
)

// ConfigFile is the declarative JSON form of a workload-management setup —
// the "workload management plan" a DBA writes (DB2's identification /
// management stages as configuration). LoadConfig applies it to a Manager.
//
// Example:
//
//	{
//	  "service_classes": [
//	    {"name": "gold", "priority": "high",
//	     "tiers": [{"name": "fresh", "weight": 16}, {"name": "aged", "weight": 2}]}
//	  ],
//	  "workloads": [
//	    {"name": "oltp", "service_class": "gold",
//	     "match": {"app": "pos-terminal"}, "priority": "critical"}
//	  ],
//	  "admission": {
//	    "cost_limits": {"low": 8000},
//	    "mpl": 32
//	  },
//	  "scheduler": {"queue": "priority", "class_mpl": {"gold": 16}},
//	  "execution": {
//	    "kill_after_seconds": 600,
//	    "kill_over_rows": 1000000,
//	    "age_after_seconds": [30, 120]
//	  }
//	}
type ConfigFile struct {
	ServiceClasses []ClassConfig    `json:"service_classes"`
	Workloads      []WorkloadConfig `json:"workloads"`
	Admission      *AdmissionConfig `json:"admission,omitempty"`
	Scheduler      *SchedulerConfig `json:"scheduler,omitempty"`
	Execution      *ExecutionConfig `json:"execution,omitempty"`
}

// ClassConfig declares one service class.
type ClassConfig struct {
	Name     string       `json:"name"`
	Priority string       `json:"priority"` // low/medium/high/critical
	Weight   float64      `json:"weight,omitempty"`
	Tiers    []TierConfig `json:"tiers,omitempty"`
}

// TierConfig declares one aging tier.
type TierConfig struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
}

// WorkloadConfig declares one workload definition.
type WorkloadConfig struct {
	Name         string      `json:"name"`
	ServiceClass string      `json:"service_class"`
	Match        MatchConfig `json:"match"`
	Priority     string      `json:"priority,omitempty"`
}

// MatchConfig declares the matcher: any combination of origin and type
// criteria, ANDed together.
type MatchConfig struct {
	App         string   `json:"app,omitempty"`
	User        string   `json:"user,omitempty"`
	ClientIP    string   `json:"client_ip,omitempty"`
	Types       []string `json:"types,omitempty"` // READ/WRITE/DDL/LOAD/CALL
	MinTimerons float64  `json:"min_timerons,omitempty"`
	MaxTimerons float64  `json:"max_timerons,omitempty"`
	MinRows     float64  `json:"min_rows,omitempty"`
	MaxRows     float64  `json:"max_rows,omitempty"`
}

// AdmissionConfig declares admission controls (chained in field order).
type AdmissionConfig struct {
	// CostLimits maps priority name -> max admissible timerons.
	CostLimits map[string]float64 `json:"cost_limits,omitempty"`
	// QueueOverCost queues instead of rejecting over-limit work.
	QueueOverCost bool `json:"queue_over_cost,omitempty"`
	// MPL is a system-wide concurrency gate (0 = off).
	MPL int `json:"mpl,omitempty"`
	// ConflictRatio gates new work above this lock-conflict ratio (0 = off).
	ConflictRatio float64 `json:"conflict_ratio,omitempty"`
	// Indicators enables indicator-based gating of low-priority work.
	Indicators bool `json:"indicators,omitempty"`
}

// SchedulerConfig declares the wait queue and dispatcher.
type SchedulerConfig struct {
	// Queue: fcfs, priority, sjf, rank (default priority).
	Queue string `json:"queue,omitempty"`
	// MPL is a global release limit (0 = off).
	MPL int `json:"mpl,omitempty"`
	// ClassMPL maps service class -> concurrency limit.
	ClassMPL map[string]int `json:"class_mpl,omitempty"`
	// CostLimits maps service class -> max running timerons.
	CostLimits map[string]float64 `json:"cost_limits,omitempty"`
}

// ExecutionConfig declares execution controls applied to every dispatched
// request outside the highest-priority class.
type ExecutionConfig struct {
	KillAfterSeconds float64 `json:"kill_after_seconds,omitempty"`
	KillOverRows     int64   `json:"kill_over_rows,omitempty"`
	KillOverCPU      float64 `json:"kill_over_cpu_seconds,omitempty"`
	// AgeAfterSeconds demotes through the class tiers at these elapsed
	// times (requires classes with tiers).
	AgeAfterSeconds []float64 `json:"age_after_seconds,omitempty"`
}

func parsePriority(s string) (policy.Priority, error) {
	switch s {
	case "low":
		return policy.PriorityLow, nil
	case "medium":
		return policy.PriorityMedium, nil
	case "high":
		return policy.PriorityHigh, nil
	case "critical":
		return policy.PriorityCritical, nil
	case "":
		return policy.PriorityLow, nil
	default:
		return 0, fmt.Errorf("dbwlm: unknown priority %q", s)
	}
}

func parseType(s string) (sqlmini.StatementType, error) {
	switch s {
	case "READ":
		return sqlmini.StmtRead, nil
	case "WRITE":
		return sqlmini.StmtWrite, nil
	case "DDL":
		return sqlmini.StmtDDL, nil
	case "LOAD":
		return sqlmini.StmtLoad, nil
	case "CALL":
		return sqlmini.StmtCall, nil
	default:
		return 0, fmt.Errorf("dbwlm: unknown statement type %q", s)
	}
}

// ParseConfig decodes a JSON configuration.
func ParseConfig(r io.Reader) (*ConfigFile, error) {
	var cfg ConfigFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("dbwlm: parsing config: %w", err)
	}
	return &cfg, nil
}

// Apply installs the configuration on the manager: router, admission chain,
// scheduler, and execution controllers.
func (cfg *ConfigFile) Apply(m *Manager) error {
	// Service classes and workload definitions.
	router := characterize.NewRouter(nil)
	topPriority := policy.PriorityLow
	for _, cc := range cfg.ServiceClasses {
		pri, err := parsePriority(cc.Priority)
		if err != nil {
			return err
		}
		if pri > topPriority {
			topPriority = pri
		}
		class := &characterize.ServiceClass{Name: cc.Name, Priority: pri, Weight: cc.Weight}
		for _, tc := range cc.Tiers {
			class.Tiers = append(class.Tiers, characterize.ServiceTier{Name: tc.Name, Weight: tc.Weight})
		}
		router.AddClass(class)
	}
	for _, wc := range cfg.Workloads {
		if router.Class(wc.ServiceClass) == nil {
			return fmt.Errorf("dbwlm: workload %q references unknown class %q", wc.Name, wc.ServiceClass)
		}
		matcher, err := wc.Match.build()
		if err != nil {
			return err
		}
		def := &characterize.WorkloadDef{
			Name:         wc.Name,
			Match:        matcher,
			ServiceClass: wc.ServiceClass,
		}
		if wc.Priority != "" {
			pri, err := parsePriority(wc.Priority)
			if err != nil {
				return err
			}
			def.Priority = pri
			def.HasPriority = true
		}
		router.AddDef(def)
	}
	m.Router = router

	// Admission chain.
	if a := cfg.Admission; a != nil {
		var chain []admission.Controller
		if len(a.CostLimits) > 0 {
			// Validate in sorted name order so that a config with several
			// invalid priority names always reports the same one.
			names := make([]string, 0, len(a.CostLimits))
			for name := range a.CostLimits {
				names = append(names, name)
			}
			sort.Strings(names)
			limits := make(map[policy.Priority]float64, len(a.CostLimits))
			for _, name := range names {
				pri, err := parsePriority(name)
				if err != nil {
					return err
				}
				limits[pri] = a.CostLimits[name]
			}
			chain = append(chain, &admission.CostThreshold{Limits: limits, QueueInstead: a.QueueOverCost})
		}
		if a.MPL > 0 {
			chain = append(chain, &admission.MPLThreshold{Engine: m.Engine(), Max: a.MPL})
		}
		if a.ConflictRatio > 0 {
			chain = append(chain, &admission.ConflictRatio{Engine: m.Engine(), Critical: a.ConflictRatio})
		}
		if a.Indicators {
			chain = append(chain, &admission.Indicators{Engine: m.Engine()})
		}
		if len(chain) == 1 {
			m.Admission = chain[0]
		} else if len(chain) > 1 {
			m.Admission = &admission.Chain{Controllers: chain}
		}
	}

	// Scheduler.
	if s := cfg.Scheduler; s != nil {
		var queue scheduling.Queue
		switch s.Queue {
		case "", "priority":
			queue = scheduling.NewPriority()
		case "fcfs":
			queue = scheduling.NewFCFS()
		case "sjf":
			queue = scheduling.NewSJF()
		case "rank":
			queue = scheduling.NewRank()
		default:
			return fmt.Errorf("dbwlm: unknown queue %q", s.Queue)
		}
		// The scheduler runs one dispatcher, so a config may name one limit.
		var dispatcher scheduling.Dispatcher = scheduling.Unlimited{}
		set := 0
		if s.MPL > 0 {
			dispatcher, set = &scheduling.MPL{Max: s.MPL}, set+1
		}
		if len(s.ClassMPL) > 0 {
			dispatcher, set = scheduling.NewClassMPL(s.ClassMPL), set+1
		}
		if len(s.CostLimits) > 0 {
			dispatcher, set = scheduling.NewCostLimit(s.CostLimits), set+1
		}
		if set > 1 {
			return fmt.Errorf("dbwlm: scheduler sets %d of mpl, class_mpl and cost_limits; it runs one dispatcher", set)
		}
		m.Scheduler = scheduling.NewScheduler(queue, dispatcher)
	}

	// Execution controls applied below the top priority.
	if e := cfg.Execution; e != nil {
		var killer *execctl.Killer
		if e.KillAfterSeconds > 0 || e.KillOverRows > 0 || e.KillOverCPU > 0 {
			killer = execctl.NewKiller(m.Engine(), e.KillAfterSeconds)
			killer.MaxRows = e.KillOverRows
			killer.MaxCPUSeconds = e.KillOverCPU
		}
		agers := make(map[string]*execctl.Ager)
		if len(e.AgeAfterSeconds) > 0 {
			for _, cc := range cfg.ServiceClasses {
				if len(cc.Tiers) < 2 {
					continue
				}
				weights := make([]float64, len(cc.Tiers))
				for i, tier := range cc.Tiers {
					weights[i] = tier.Weight
				}
				ager := execctl.NewAger(m.Engine(), weights, e.AgeAfterSeconds)
				agers[cc.Name] = ager
			}
		}
		top := topPriority
		prev := m.OnDispatch
		m.OnDispatch = func(rr *Running) {
			if prev != nil {
				prev(rr)
			}
			if rr.Class != nil && rr.Class.Priority >= top {
				return // the top class is never killed or aged
			}
			if killer != nil {
				killer.Manage(rr.Query.ID)
			}
			if ager := agers[rr.Class.Name]; ager != nil {
				ager.Manage(rr.Query.ID)
			}
		}
	}
	return nil
}

// LoadConfig parses and applies a JSON configuration in one step.
func LoadConfig(m *Manager, r io.Reader) error {
	cfg, err := ParseConfig(r)
	if err != nil {
		return err
	}
	return cfg.Apply(m)
}

func (mc MatchConfig) build() (characterize.Matcher, error) {
	var parts characterize.All
	if mc.App != "" || mc.User != "" || mc.ClientIP != "" {
		parts = append(parts, characterize.OriginMatcher{App: mc.App, User: mc.User, ClientIP: mc.ClientIP})
	}
	tm := characterize.TypeMatcher{
		MinTimerons: mc.MinTimerons, MaxTimerons: mc.MaxTimerons,
		MinRows: mc.MinRows, MaxRows: mc.MaxRows,
	}
	for _, ts := range mc.Types {
		st, err := parseType(ts)
		if err != nil {
			return nil, err
		}
		tm.Types = append(tm.Types, st)
	}
	if len(tm.Types) > 0 || tm.MinTimerons > 0 || tm.MaxTimerons > 0 || tm.MinRows > 0 || tm.MaxRows > 0 {
		parts = append(parts, tm)
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("dbwlm: workload match is empty")
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return parts, nil
}
