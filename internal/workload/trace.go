package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"dbwlm/internal/engine"
	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
	"dbwlm/internal/sqlmini"
)

// TraceEntry is the serializable record of one request, for capturing a
// workload once and replaying it across experiments (the DBQL-style query
// log Teradata Workload Analyzer mines, Section 4.1.3.A).
type TraceEntry struct {
	ID       int64            `json:"id"`
	SQL      string           `json:"sql"`
	Workload string           `json:"workload"`
	Priority int              `json:"priority"`
	App      string           `json:"app"`
	User     string           `json:"user"`
	ClientIP string           `json:"client_ip"`
	ArriveUS int64            `json:"arrive_us"`
	Est      Estimates        `json:"est"`
	True     engine.QuerySpec `json:"true"`
	SLOKind  int              `json:"slo_kind"`
	SLOTgt   float64          `json:"slo_target"`
	SLOPct   float64          `json:"slo_percentile"`
}

// EntryOf converts a request to its trace record.
func EntryOf(r *Request) TraceEntry {
	return TraceEntry{
		ID:       r.ID,
		SQL:      r.SQL,
		Workload: r.Workload,
		Priority: int(r.Priority),
		App:      r.Origin.App,
		User:     r.Origin.User,
		ClientIP: r.Origin.ClientIP,
		ArriveUS: int64(r.Arrive),
		Est:      r.Est,
		True:     r.True,
		SLOKind:  int(r.SLO.Kind),
		SLOTgt:   r.SLO.Target,
		SLOPct:   r.SLO.Percentile,
	}
}

// ToRequest reconstructs a request, parsing the SQL for its statement type.
func (e TraceEntry) ToRequest() (*Request, error) {
	stmt, err := sqlmini.Parse(e.SQL)
	if err != nil {
		return nil, fmt.Errorf("workload: trace entry %d: %w", e.ID, err)
	}
	return &Request{
		ID:       e.ID,
		SQL:      e.SQL,
		Type:     stmt.Type,
		Origin:   Origin{App: e.App, User: e.User, ClientIP: e.ClientIP},
		Workload: e.Workload,
		Priority: policy.Priority(e.Priority),
		SLO:      policy.SLO{Kind: policy.SLOKind(e.SLOKind), Target: e.SLOTgt, Percentile: e.SLOPct},
		Arrive:   sim.Time(e.ArriveUS),
		Est:      e.Est,
		True:     e.True,
	}, nil
}

// WriteTrace writes entries as JSON lines.
func WriteTrace(w io.Writer, entries []TraceEntry) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace reads JSON-line entries.
func ReadTrace(r io.Reader) ([]TraceEntry, error) {
	var out []TraceEntry
	dec := json.NewDecoder(r)
	for {
		var e TraceEntry
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}

// ReplayGen replays a recorded trace at its original arrival times.
type ReplayGen struct {
	WorkloadName string
	Entries      []TraceEntry
}

// Name implements Generator.
func (g *ReplayGen) Name() string { return g.WorkloadName }

// Start implements Generator.
func (g *ReplayGen) Start(s *sim.Simulator, horizon sim.Time, submit SubmitFunc) {
	for _, e := range g.Entries {
		if sim.Time(e.ArriveUS) > horizon {
			continue
		}
		e := e
		s.At(sim.Time(e.ArriveUS), func() {
			r, err := e.ToRequest()
			if err != nil {
				return
			}
			submit(r)
		})
	}
}
