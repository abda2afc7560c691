// Package characterize implements the workload-characterization class of the
// taxonomy (Section 3.1): static characterization — workload definitions that
// map arriving requests to service classes by origin, type, estimated cost,
// or user-written criteria functions, with resource allocation attached — and
// dynamic characterization — a learned classifier that identifies the type of
// workload present on the server at run time (Elnaffar et al. [19]).
package characterize

import (
	"dbwlm/internal/policy"
	"dbwlm/internal/sqlmini"
	"dbwlm/internal/workload"
)

// Matcher decides whether a request belongs to a workload definition.
type Matcher interface {
	Match(r *workload.Request) bool
}

// OriginMatcher matches on "who" issued the request (DB2 connection
// attributes; Teradata "who" criteria). Empty fields are wildcards.
type OriginMatcher struct {
	App      string
	User     string
	ClientIP string
}

// Match implements Matcher.
func (m OriginMatcher) Match(r *workload.Request) bool {
	if m.App != "" && r.Origin.App != m.App {
		return false
	}
	if m.User != "" && r.Origin.User != m.User {
		return false
	}
	if m.ClientIP != "" && r.Origin.ClientIP != m.ClientIP {
		return false
	}
	return true
}

// TypeMatcher matches on "what" the request is (DB2 work classes; Teradata
// "what" criteria): statement types, with optional predictive cost and row
// bounds on DML.
type TypeMatcher struct {
	Types []sqlmini.StatementType
	// MinTimerons/MaxTimerons bound the estimated cost (0 = unbounded).
	MinTimerons float64
	MaxTimerons float64
	// MinRows/MaxRows bound the estimated returned rows (0 = unbounded).
	MinRows float64
	MaxRows float64
}

// Match implements Matcher.
func (m TypeMatcher) Match(r *workload.Request) bool {
	if len(m.Types) > 0 {
		ok := false
		for _, t := range m.Types {
			if r.Type == t {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if m.MinTimerons > 0 && r.Est.Timerons < m.MinTimerons {
		return false
	}
	if m.MaxTimerons > 0 && r.Est.Timerons > m.MaxTimerons {
		return false
	}
	if m.MinRows > 0 && r.Est.Rows < m.MinRows {
		return false
	}
	if m.MaxRows > 0 && r.Est.Rows > m.MaxRows {
		return false
	}
	return true
}

// CriteriaFunc is a user-written classifier function (SQL Server Resource
// Governor classification functions, Section 4.1.2.C).
type CriteriaFunc struct {
	Name string
	Fn   func(r *workload.Request) bool
}

// Match implements Matcher.
func (m CriteriaFunc) Match(r *workload.Request) bool { return m.Fn(r) }

// All matches when every component matches.
type All []Matcher

// Match implements Matcher.
func (m All) Match(r *workload.Request) bool {
	for _, sub := range m {
		if !sub.Match(r) {
			return false
		}
	}
	return true
}

// Any matches when at least one component matches.
type Any []Matcher

// Match implements Matcher.
func (m Any) Match(r *workload.Request) bool {
	for _, sub := range m {
		if sub.Match(r) {
			return true
		}
	}
	return false
}

// ServiceTier is one service subclass within a service class: a weight tier
// a request can be demoted to by priority aging (DB2 service subclasses,
// Section 4.1.1.B).
type ServiceTier struct {
	Name   string
	Weight float64
}

// ServiceClass is the execution environment a workload runs in: resource
// access weight and optional subclass tiers for aging. A class concurrency
// limit is the scheduler's (scheduling.ClassMPL).
type ServiceClass struct {
	Name     string
	Priority policy.Priority
	// Weight overrides Priority.Weight() when positive.
	Weight float64
	// Tiers are aging levels, highest first; empty means the class weight
	// is the only level.
	Tiers []ServiceTier
}

// EffectiveWeight is the class's top-tier resource weight.
func (c *ServiceClass) EffectiveWeight() float64 {
	if len(c.Tiers) > 0 {
		return c.Tiers[0].Weight
	}
	if c.Weight > 0 {
		return c.Weight
	}
	return c.Priority.Weight()
}

// WorkloadDef maps matching requests to a service class — the "workload"
// database object of DB2 and Teradata (Section 2.2).
type WorkloadDef struct {
	Name         string
	Match        Matcher
	ServiceClass string
	// Priority overrides the request's generator priority when >= 0.
	Priority policy.Priority
	// HasPriority marks Priority as set (Priority zero value is low).
	HasPriority bool
}

// Router classifies arriving requests into workload definitions and service
// classes, in definition order, with a default class for non-matching work
// (SQL Server's default workload group).
type Router struct {
	defs    []*WorkloadDef
	classes map[string]*ServiceClass
	deflt   *ServiceClass
}

// NewRouter builds a router; defaultClass receives unmatched requests.
func NewRouter(defaultClass *ServiceClass) *Router {
	if defaultClass == nil {
		defaultClass = &ServiceClass{Name: "default", Priority: policy.PriorityLow}
	}
	r := &Router{classes: map[string]*ServiceClass{defaultClass.Name: defaultClass}, deflt: defaultClass}
	return r
}

// AddClass registers a service class.
func (r *Router) AddClass(c *ServiceClass) *Router {
	r.classes[c.Name] = c
	return r
}

// AddDef appends a workload definition (evaluated in insertion order).
func (r *Router) AddDef(d *WorkloadDef) *Router {
	r.defs = append(r.defs, d)
	return r
}

// Class returns the named service class, or nil.
func (r *Router) Class(name string) *ServiceClass { return r.classes[name] }

// Default returns the default service class.
func (r *Router) Default() *ServiceClass { return r.deflt }

// Classify assigns a request to the first matching definition, labeling the
// request with the definition name and (optionally) its priority. The
// returned class is never nil.
func (r *Router) Classify(req *workload.Request) (*WorkloadDef, *ServiceClass) {
	for _, d := range r.defs {
		if d.Match != nil && d.Match.Match(req) {
			req.Workload = d.Name
			if d.HasPriority {
				req.Priority = d.Priority
			}
			if c := r.classes[d.ServiceClass]; c != nil {
				return d, c
			}
			return d, r.deflt
		}
	}
	return nil, r.deflt
}
