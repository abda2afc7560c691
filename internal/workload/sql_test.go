package workload

import (
	"fmt"
	"testing"

	"dbwlm/internal/policy"
	"dbwlm/internal/sim"
	"dbwlm/internal/sqlmini"
)

// TestGeneratedSQLParses makes, once, the check the generators used to make
// on every request by parsing it: the text they render is a statement sqlmini
// accepts, and the Type they set from the branch they took is the type the
// parser gives that text.
func TestGeneratedSQLParses(t *testing.T) {
	const n = 2000
	times := make([]sim.Time, n)
	for i := range times {
		times[i] = sim.Time(i)
	}
	gens := []Generator{
		&OLTPGen{WorkloadName: "oltp", Rate: 100, Seq: &Sequence{}},
		&AdHocGen{WorkloadName: "adhoc", Rate: 100, Seq: &Sequence{}},
		&UtilityGen{WorkloadName: "backup", Kind: "backup", Times: times, Seq: &Sequence{}},
		&UtilityGen{WorkloadName: "reorg", Kind: "reorg", Times: times, Seq: &Sequence{}},
		&UtilityGen{WorkloadName: "runstats", Kind: "runstats", Times: times, Seq: &Sequence{}},
		&BIGen{WorkloadName: "bi", Rate: 100, Seq: &Sequence{}, Est: NewEstimateModel(sim.NewRNG(3), 0.3)},
	}
	for _, g := range gens {
		s := sim.New(11)
		got := 0
		types := map[sqlmini.StatementType]int{}
		g.Start(s, sim.Time(sim.Hour), func(r *Request) {
			if got++; got > n {
				return
			}
			stmt, err := sqlmini.Parse(r.SQL)
			if err != nil {
				t.Fatalf("%s request %d: %q does not parse: %v", g.Name(), r.ID, r.SQL, err)
			}
			if stmt.Type != r.Type {
				t.Fatalf("%s request %d: %q parses as %v, generator set %v", g.Name(), r.ID, r.SQL, stmt.Type, r.Type)
			}
			types[r.Type]++
		})
		s.Run(sim.Time(40 * sim.Second))
		if got < n {
			t.Fatalf("%s produced %d requests, want %d", g.Name(), got, n)
		}
		if g.Name() == "oltp" && (types[sqlmini.StmtRead] == 0 || types[sqlmini.StmtWrite] == 0) {
			t.Fatalf("oltp statement mix %v lacks reads or writes", types)
		}
	}
}

// sprintfOLTPSQL is the renderer OLTPGen used before it built statement text
// with strconv.AppendInt: one fmt.Sprintf per transaction kind, literals drawn
// left to right. It also consumes the two work draws that follow the text, so
// a twin RNG stays in step with the generator's.
func sprintfOLTPSQL(rng *sim.RNG) string {
	var sql string
	switch rng.Intn(3) {
	case 0:
		sql = fmt.Sprintf("SELECT balance FROM accounts WHERE id = %d", rng.Intn(1000000))
	case 1:
		sql = fmt.Sprintf("UPDATE accounts SET balance = balance - %d WHERE id = %d",
			1+rng.Intn(100), rng.Intn(1000000))
	default:
		sql = fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d)",
			rng.Intn(1000000), rng.Intn(100000), 1+rng.Intn(500))
	}
	rng.Float64() // CPUWork
	rng.Float64() // IOWork
	return sql
}

// TestOLTPSQLMatchesSprintf pins the rendered text, byte for byte, to the
// Sprintf form it replaced: recorded traces, their fingerprints and the
// -record/-replay-trace round trip all carry it.
func TestOLTPSQLMatchesSprintf(t *testing.T) {
	g := &OLTPGen{WorkloadName: "oltp", Priority: policy.PriorityHigh, Seq: &Sequence{}}
	g.rng = sim.NewRNG(99)
	g.zipf = sim.NewZipfGen(g.rng.Fork(1), 200, 0.8)
	twin := sim.NewRNG(99)
	for i := 0; i < 10000; i++ {
		want := sprintfOLTPSQL(twin)
		if got := g.makeRequest(0).SQL; got != want {
			t.Fatalf("draw %d: rendered %q, Sprintf renders %q", i, got, want)
		}
	}
}
