package bench

import (
	"testing"

	"dbwlm/internal/sqlmini"
	"dbwlm/internal/wire"
)

// The seed is the only input: the same seed must give byte-identical
// request-frame templates and SQL corpus, a different seed different ones.
func TestGenInputsDeterministicInSeed(t *testing.T) {
	for _, w := range []string{LiveCost, LiveSQL, LiveRTT} {
		a, err := GenInputs(w, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := GenInputs(w, 42)
		if err != nil {
			t.Fatal(err)
		}
		c, err := GenInputs(w, 43)
		if err != nil {
			t.Fatal(err)
		}
		da, _ := a.Digest()
		db, _ := b.Digest()
		dc, _ := c.Digest()
		if da == "" || da != db {
			t.Errorf("%s: same seed, digests %q and %q", w, da, db)
		}
		if w != LiveRTT && da == dc { // the round-trip workload has one fixed admit; nothing to vary
			t.Errorf("%s: seeds 42 and 43 gave the same digest", w)
		}
	}
}

func TestCostMixAndExpectations(t *testing.T) {
	in, err := GenInputs(LiveCost, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Conns) != 1 || len(in.Conns[0].Blocks) != 64 || len(in.Conns[0].Blocks[0]) != 256 {
		t.Fatalf("unexpected geometry: %d conns, %d blocks", len(in.Conns), len(in.Conns[0].Blocks))
	}
	var n, interactive, overCap, batch int
	for _, c := range in.Conns {
		for _, blk := range c.Blocks {
			for _, s := range blk {
				n++
				if s.op.Code != wire.OpAdmit || s.op.DeadlineNS <= 0 {
					t.Fatalf("slot is not a try-don't-wait cost admit: %+v", s.op)
				}
				switch {
				case s.op.Class == classInteractive:
					interactive++
					if s.expect != expAdmit {
						t.Fatal("an interactive admit may never be rejected")
					}
				case s.op.Class == classReporting && s.op.Cost > 50000:
					overCap++
					if s.expect != expRejectCost {
						t.Fatal("an over-cap reporting admit must expect rejected-cost")
					}
				case s.op.Class == classBatch:
					batch++
					if s.expect != expAdmitOrFull {
						t.Fatal("a batch admit may be admitted or find the gate full")
					}
				}
			}
		}
	}
	share := func(k int) float64 { return float64(k) / float64(n) }
	if s := share(interactive); s < 0.78 || s > 0.82 {
		t.Errorf("interactive share %.3f, want ≈ 0.80", s)
	}
	if s := share(overCap); s < 0.04 || s > 0.06 {
		t.Errorf("over-cap share %.3f, want ≈ 0.05", s)
	}
	if s := share(batch); s < 0.04 || s > 0.06 {
		t.Errorf("batch share %.3f, want ≈ 0.05", s)
	}
}

func TestShapesAreDistinctAndLiteralInvariant(t *testing.T) {
	in, err := GenInputs(LiveSQL, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Shapes) != numShapes {
		t.Fatalf("%d shapes, want %d", len(in.Shapes), numShapes)
	}
	seen := make(map[sqlmini.Fingerprint]bool, numShapes)
	for i := range in.Shapes {
		if seen[in.Shapes[i].FP] {
			t.Fatalf("shape %d repeats a fingerprint", i)
		}
		seen[in.Shapes[i].FP] = true
	}
	// Every pre-rendered statement carries its shape's fingerprint whatever
	// literals it was rendered with, and parses.
	for _, blk := range in.Conns[0].Blocks[:8] {
		for _, s := range blk {
			sql := string(s.op.SQL)
			if fp := sqlmini.FingerprintSQL(sql); fp != in.Shapes[s.shape].FP {
				t.Fatalf("%q: fingerprint differs from its shape's", sql)
			}
			if _, err := sqlmini.Parse(sql); err != nil {
				t.Fatalf("%q does not parse: %v", sql, err)
			}
		}
	}
}
