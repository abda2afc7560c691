package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"dbwlm/internal/admission"
	"dbwlm/internal/sim"
	"dbwlm/internal/sqlmini"
	"dbwlm/internal/wire"
	"dbwlm/internal/workload"
)

// Class IDs in wlmd's class-table order.
const (
	classInteractive = 0
	classReporting   = 1
	classBatch       = 2
)

// Expected outcome of one admit slot, fixed when the slot is generated.
const (
	expAdmit       uint8 = iota // must be admitted
	expRejectCost               // must be rejected-cost
	expAdmitOrFull              // admitted or rejected-timeout (gate full), both fine
)

// tryDontWait is the deadline every generated admit carries: any positive
// value selects the wire dispatcher's fail-fast admit.
const tryDontWait = 1

// Cost-path parameters. overLimitCost sits above BenchPolicy's reporting
// cap of 50 000 timerons; the other costs sit below every cap.
const (
	plainCost     = 100
	reportCost    = 1000
	overLimitCost = 80000
)

// Shape population of the SQL workload: four times the daemon's 4096-entry
// plan cache, drawn Zipf(zipfSkew).
const (
	numShapes = 16384
	zipfSkew  = 1.1
)

// slot is one pre-built admit operation and what the generator expects of
// it.
type slot struct {
	op     wire.Op
	expect uint8
	shape  int32 // SQL workload: index into Inputs.Shapes; else -1
	viaFP  bool  // SQL workload: re-admit by fingerprint once the connection has learned it
}

// ConnInputs is one connection's request stream: a ring of admit blocks the
// measured loop copies from. Frames take a prefix of a block, so every
// block holds Batch slots.
type ConnInputs struct {
	Blocks [][]slot
}

// LoadShape fixes one live workload's closed-loop geometry.
type LoadShape struct {
	Conns   int
	Depth   int
	Batch   int
	MaxDone int // done ops per frame at most; the rest of the batch is admits
	Blocks  int // admit blocks per connection
}

// liveShapes are the stated connection counts and pipeline depths. All
// three are closed loops: a connection sends its next frame only when a
// reply frees a pipeline slot, the way a database proxy thread blocks on its
// admit reply.
var liveShapes = map[string]LoadShape{
	LiveCost: {Conns: 1, Depth: 4, Batch: 256, MaxDone: 128, Blocks: 64},
	LiveSQL:  {Conns: 1, Depth: 4, Batch: 64, MaxDone: 32, Blocks: 1024},
	LiveRTT:  {Conns: 1, Depth: 1, Batch: 1, MaxDone: 1, Blocks: 1},
}

// Shape is one generated statement shape: text segments with literal holes
// between them, plus the fingerprint and cost the daemon must report for it.
type Shape struct {
	segs []string
	lits []byte // 'n' numeric or 's' string literal, one per hole
	FP   sqlmini.Fingerprint
	Cost float64              // timerons
	Feat admission.FeatureVec // what the daemon's predictor sees for the shape
}

// Inputs is everything a live workload sends, generated from the seed alone.
type Inputs struct {
	Workload string
	Shape    LoadShape
	Conns    []ConnInputs
	Shapes   []Shape // SQL workload only
}

// GenInputs builds a live workload's inputs. The seed is the only input:
// the same seed gives byte-identical templates (Digest).
func GenInputs(workloadName string, seed uint64) (*Inputs, error) {
	ls, ok := liveShapes[workloadName]
	if !ok {
		return nil, fmt.Errorf("bench: %q is not a live workload", workloadName)
	}
	in := &Inputs{Workload: workloadName, Shape: ls}
	rng := sim.NewRNG(seed)
	if workloadName == LiveSQL {
		shapes, err := genShapes(rng.Fork(1))
		if err != nil {
			return nil, err
		}
		in.Shapes = shapes
	}
	for c := 0; c < ls.Conns; c++ {
		crng := rng.Fork(uint64(100 + c))
		var zipf *sim.ZipfGen
		if workloadName == LiveSQL {
			zipf = sim.NewZipfGen(crng.Fork(7), numShapes, zipfSkew)
		}
		ci := ConnInputs{Blocks: make([][]slot, ls.Blocks)}
		for b := range ci.Blocks {
			blk := make([]slot, ls.Batch)
			for i := range blk {
				switch workloadName {
				case LiveCost:
					blk[i] = costSlot(crng)
				case LiveSQL:
					s := int32(zipf.Next())
					blk[i] = slot{
						op: wire.Op{Code: wire.OpAdmitSQL, Class: classInteractive,
							DeadlineNS: tryDontWait, SQL: []byte(in.Shapes[s].Render(crng))},
						expect: expAdmit, shape: s, viaFP: crng.Bool(0.5),
					}
				default:
					blk[i] = slot{op: wire.Op{Code: wire.OpAdmit, Class: classInteractive,
						Cost: plainCost, DeadlineNS: tryDontWait}, expect: expAdmit, shape: -1}
				}
			}
			ci.Blocks[b] = blk
		}
		in.Conns = append(in.Conns, ci)
	}
	return in, nil
}

// costSlot draws one cost-path admit: 80% interactive (open gate), 15%
// reporting of which one third exceed the cost cap, 5% batch into the
// four-slot gate.
func costSlot(rng *sim.RNG) slot {
	s := slot{op: wire.Op{Code: wire.OpAdmit, DeadlineNS: tryDontWait}, shape: -1}
	switch u := rng.Float64(); {
	case u < 0.80:
		s.op.Class, s.op.Cost, s.expect = classInteractive, plainCost, expAdmit
	case u < 0.95:
		s.op.Class = classReporting
		if rng.Intn(3) == 0 {
			s.op.Cost, s.expect = overLimitCost, expRejectCost
		} else {
			s.op.Cost, s.expect = reportCost, expAdmit
		}
	default:
		s.op.Class, s.op.Cost, s.expect = classBatch, plainCost, expAdmitOrFull
	}
	return s
}

// genTable is a catalog table with the column names the generator writes
// predicates and projections over (sqlmini's catalog keeps statistics, not
// columns; any identifier parses).
type genTable struct {
	name string
	key  string
	cols []string
}

var genTables = []genTable{
	{"accounts", "id", []string{"id", "owner_id", "balance", "branch", "opened"}},
	{"orders", "id", []string{"id", "customer_id", "total", "region", "status", "placed"}},
	{"order_items", "order_id", []string{"order_id", "product_id", "qty", "price", "line_no"}},
	{"customers", "id", []string{"id", "name", "region", "segment", "since"}},
	{"sales_fact", "date_id", []string{"date_id", "store_id", "product_id", "amount", "units"}},
	{"inventory_fact", "date_id", []string{"date_id", "store_id", "product_id", "on_hand"}},
	{"date_dim", "id", []string{"id", "yr", "mon", "quarter"}},
	{"store_dim", "id", []string{"id", "region", "city", "sqft"}},
	{"product_dim", "id", []string{"id", "category", "brand", "list_price"}},
}

var (
	genOps   = []string{"=", "<", ">", "<=", ">="}
	genAggs  = []string{"COUNT(*)", "SUM(%s)", "AVG(%s)", "MAX(%s)"}
	genWords = []string{"west", "east", "north", "south", "gold", "retail", "open", "closed"}
)

// shapeBuilder accumulates text segments, cutting a new segment at every
// literal hole.
type shapeBuilder struct {
	cur  strings.Builder
	segs []string
	lits []byte
}

func (b *shapeBuilder) text(s string) { b.cur.WriteString(s) }

func (b *shapeBuilder) hole(kind byte) {
	b.segs = append(b.segs, b.cur.String())
	b.cur.Reset()
	b.lits = append(b.lits, kind)
}

func (b *shapeBuilder) done() Shape {
	return Shape{segs: append(b.segs, b.cur.String()), lits: b.lits}
}

// genShape writes one random statement over the default catalog: a
// projection list or aggregate, an optional join, one to three predicates
// with literal holes, optional ORDER BY, and a LIMIT whose count is part of
// the shape (sqlmini hashes LIMIT counts verbatim).
func genShape(rng *sim.RNG) Shape {
	var b shapeBuilder
	t := genTables[rng.Intn(len(genTables))]
	joined := rng.Bool(0.35)
	var u genTable
	col := func(tb genTable, alias string) string {
		c := tb.cols[rng.Intn(len(tb.cols))]
		if joined {
			return alias + "." + c
		}
		return c
	}
	if joined {
		u = genTables[rng.Intn(len(genTables))]
	}
	b.text("SELECT ")
	if rng.Bool(0.2) {
		agg := genAggs[rng.Intn(len(genAggs))]
		if strings.Contains(agg, "%s") {
			agg = fmt.Sprintf(agg, col(t, "a"))
		}
		b.text(agg)
	} else {
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			if i > 0 {
				b.text(", ")
			}
			b.text(col(t, "a"))
		}
	}
	b.text(" FROM " + t.name)
	if joined {
		b.text(" a JOIN " + u.name + " b ON a." + t.cols[rng.Intn(len(t.cols))] + " = b." + u.key)
	}
	b.text(" WHERE ")
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		if i > 0 {
			b.text(" AND ")
		}
		b.text(col(t, "a") + " " + genOps[rng.Intn(len(genOps))] + " ")
		if rng.Bool(0.25) {
			b.hole('s')
		} else {
			b.hole('n')
		}
	}
	if rng.Bool(0.3) {
		b.text(" ORDER BY " + col(t, "a"))
	}
	if rng.Bool(0.7) {
		b.text(" LIMIT " + strconv.Itoa(1+rng.Intn(5000)))
	}
	return b.done()
}

// Render writes the shape's text with fresh literals drawn from rng.
func (s *Shape) Render(rng *sim.RNG) string {
	var b strings.Builder
	for i, seg := range s.segs {
		b.WriteString(seg)
		if i < len(s.lits) {
			if s.lits[i] == 's' {
				b.WriteString("'" + genWords[rng.Intn(len(genWords))] + "'")
			} else {
				b.WriteString(strconv.Itoa(rng.Intn(1_000_000)))
			}
		}
	}
	return b.String()
}

// genShapes builds numShapes statement shapes with pairwise distinct
// fingerprints and records, for each, the fingerprint and cost the daemon
// must answer with — derived here from sqlmini's public functions, never
// from the daemon. It also checks the property the fingerprint path rests
// on: two texts that differ only in literals share a fingerprint.
func genShapes(rng *sim.RNG) ([]Shape, error) {
	model := sqlmini.NewCostModel(sqlmini.DefaultCatalog())
	seen := make(map[sqlmini.Fingerprint]bool, numShapes)
	shapes := make([]Shape, 0, numShapes)
	lit := rng.Fork(2)
	for attempt := uint64(0); len(shapes) < numShapes; attempt++ {
		if attempt > 8*numShapes {
			return nil, fmt.Errorf("bench: only %d distinct shapes after %d attempts", len(shapes), attempt)
		}
		sh := genShape(rng.Fork(1000 + attempt))
		a, b := sh.Render(lit), sh.Render(lit)
		sh.FP = sqlmini.FingerprintSQL(a)
		if fb := sqlmini.FingerprintSQL(b); fb != sh.FP {
			return nil, fmt.Errorf("bench: literals changed the fingerprint: %q vs %q", a, b)
		}
		if seen[sh.FP] {
			continue
		}
		seen[sh.FP] = true
		plan, err := model.PlanSQL(a)
		if err != nil {
			return nil, fmt.Errorf("bench: generated statement does not plan: %q: %w", a, err)
		}
		cost := sqlmini.CostOf(plan)
		sh.Cost = workload.TimeronsOf(cost.CPUSeconds, cost.IOMB)
		admission.FeaturesFrom(sh.Cost, cost.Rows, cost.MemMB, cost.IOMB, cost.Type == sqlmini.StmtRead, &sh.Feat)
		shapes = append(shapes, sh)
	}
	return shapes, nil
}

// Digest hashes every request-frame template (each block encoded as one
// wire frame, plus the generator's per-slot expectations) and the shape
// corpus. Two Inputs with equal digests send byte-identical streams.
func (in *Inputs) Digest() (string, error) {
	h := sha256.New()
	var buf []byte
	var ops []wire.Op
	for _, c := range in.Conns {
		for _, blk := range c.Blocks {
			ops = ops[:0]
			for i := range blk {
				ops = append(ops, blk[i].op)
				fp := byte(0)
				if blk[i].viaFP {
					fp = 1
				}
				h.Write([]byte{blk[i].expect, fp})
				_ = binary.Write(h, binary.LittleEndian, blk[i].shape) // sha256 writes cannot fail
			}
			var err error
			if buf, err = wire.EncodeRequest(buf, ops); err != nil {
				return "", err
			}
			h.Write(buf)
		}
	}
	for i := range in.Shapes {
		s := &in.Shapes[i]
		h.Write([]byte(strings.Join(s.segs, "\x00")))
		h.Write(s.lits)
		_ = binary.Write(h, binary.LittleEndian, [3]uint64{s.FP.Hi, s.FP.Lo, uint64(s.Cost * 1e6)})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
