package wire

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"

	"dbwlm/internal/le"
)

// randOp generates one valid op of any kind.
func randOp(rng *rand.Rand) Op {
	op := Op{
		Class:      uint16(rng.IntN(8)),
		DeadlineNS: int64(rng.Uint64N(1 << 40)),
	}
	switch rng.IntN(4) {
	case 0:
		op.Code = OpAdmit
		op.Cost = rng.Float64() * 1e6
	case 1:
		op.Code = OpDone
		op.Shard = uint16(rng.IntN(16))
		op.GShard = uint16(rng.IntN(16))
		op.Start = int64(rng.Uint64N(1 << 50))
		op.QID = int64(rng.Uint64N(1 << 50))
		op.Ideal = rng.Float64()
		op.FPHi = rng.Uint64()
		op.FPLo = rng.Uint64()
		op.DeadlineNS = 0 // not carried by done ops
	case 2:
		op.Code = OpAdmitSQL
		n := rng.IntN(64)
		sql := make([]byte, n)
		for i := range sql {
			sql[i] = byte('a' + rng.IntN(26))
		}
		op.SQL = sql
	case 3:
		op.Code = OpAdmitFP
		op.FPHi = rng.Uint64()
		op.FPLo = rng.Uint64()
	}
	return op
}

// randResult generates one valid result: only fields the format carries for
// its code and status are set, so an encode/decode cycle must reproduce it
// exactly.
func randResult(rng *rand.Rand) Result {
	r := Result{QID: int64(rng.Uint64N(1 << 50))}
	switch rng.IntN(4) {
	case 0:
		r.Code = OpAdmit
		r.Cost = rng.Float64() * 1e5
	case 1:
		r.Code = OpDone
	case 2:
		r.Code = OpAdmitSQL
	case 3:
		r.Code = OpAdmitFP
	}
	if r.Code == OpAdmitSQL || r.Code == OpAdmitFP {
		r.Cost = rng.Float64() * 1e5
		r.Predicted = rng.Float64()
		r.FPHi, r.FPLo = rng.Uint64(), rng.Uint64()
		r.Flags = byte(rng.IntN(4))
	}
	switch {
	case r.Code == OpDone:
		r.Status = StatusReleased
	case rng.IntN(3) == 0:
		r.Status = StatusRejectedCost
	default:
		r.Status = StatusAdmitted
		r.Class = uint16(rng.IntN(8))
		r.Shard = uint16(rng.IntN(16))
		r.GShard = uint16(rng.IntN(16))
		r.Start = int64(rng.Uint64N(1 << 50))
	}
	return r
}

// opsEqual compares ops field by field; floats compare by bit pattern, since
// fuzzed frames can legally carry NaNs and the codec must preserve them.
func opsEqual(a, b Op) bool {
	return a.Code == b.Code && a.Class == b.Class &&
		math.Float64bits(a.Cost) == math.Float64bits(b.Cost) &&
		a.DeadlineNS == b.DeadlineNS && bytes.Equal(a.SQL, b.SQL) &&
		a.FPHi == b.FPHi && a.FPLo == b.FPLo && a.Shard == b.Shard &&
		a.GShard == b.GShard && a.Start == b.Start && a.QID == b.QID &&
		math.Float64bits(a.Ideal) == math.Float64bits(b.Ideal)
}

// TestRequestRoundtrip: randomized batches survive encode -> decode exactly,
// with scratch buffers reused across iterations the way a live connection
// reuses them.
func TestRequestRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var buf []byte
	var req BatchReq
	for iter := 0; iter < 500; iter++ {
		ops := make([]Op, rng.IntN(40))
		for i := range ops {
			ops[i] = randOp(rng)
		}
		payload, err := EncodeRequest(buf, ops)
		if err != nil {
			t.Fatalf("iter %d: encode: %v", iter, err)
		}
		buf = payload
		if err := DecodeRequest(payload, &req); err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		if len(req.Ops) != len(ops) {
			t.Fatalf("iter %d: decoded %d ops, want %d", iter, len(req.Ops), len(ops))
		}
		for i := range ops {
			if !opsEqual(ops[i], req.Ops[i]) {
				t.Fatalf("iter %d: op %d: got %+v want %+v", iter, i, req.Ops[i], ops[i])
			}
		}
	}
}

// TestResponseRoundtrip mirrors TestRequestRoundtrip for result frames.
func TestResponseRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	var buf []byte
	var res BatchRes
	for iter := 0; iter < 500; iter++ {
		results := make([]Result, rng.IntN(40))
		for i := range results {
			results[i] = randResult(rng)
		}
		payload, err := EncodeResponse(buf, results)
		if err != nil {
			t.Fatalf("iter %d: encode: %v", iter, err)
		}
		buf = payload
		if err := DecodeResponse(payload, &res); err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		if len(res.Results) != len(results) {
			t.Fatalf("iter %d: decoded %d results, want %d", iter, len(res.Results), len(results))
		}
		for i := range results {
			if results[i] != res.Results[i] {
				t.Fatalf("iter %d: result %d: got %+v want %+v", iter, i, res.Results[i], results[i])
			}
		}
	}
}

// TestTruncatedFrameRejected: every strict prefix of a valid frame must be
// rejected — a frame is understood fully or not at all.
func TestTruncatedFrameRejected(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	ops := make([]Op, 8)
	for i := range ops {
		ops[i] = randOp(rng)
	}
	payload, err := EncodeRequest(nil, ops)
	if err != nil {
		t.Fatal(err)
	}
	var req BatchReq
	for n := 0; n < len(payload); n++ {
		if err := DecodeRequest(payload[:n], &req); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(payload))
		}
	}
	// Trailing garbage is just as structural as truncation.
	if err := DecodeRequest(append(append([]byte{}, payload...), 0xAB), &req); err == nil {
		t.Fatal("frame with trailing byte decoded without error")
	}
}

// TestCorruptHeaderRejected covers the versioning rules: unknown magic,
// unknown version, wrong kind, and op counts the body cannot back.
func TestCorruptHeaderRejected(t *testing.T) {
	payload, err := EncodeRequest(nil, []Op{{Code: OpAdmit, Class: 1, Cost: 5}})
	if err != nil {
		t.Fatal(err)
	}
	var req BatchReq
	cases := []struct {
		name   string
		mutate func(b []byte)
	}{
		{"bad magic", func(b []byte) { b[0] = 0x00 }},
		{"future version", func(b []byte) { b[1] = Version + 1 }},
		{"response kind on request decode", func(b []byte) { b[2] = kindResponse }},
		{"count beyond body", func(b []byte) { b[3], b[4] = 0xFF, 0x0F }},
		{"count over MaxOps", func(b []byte) { b[3], b[4] = 0xFF, 0xFF }},
		{"unknown opcode", func(b []byte) { b[headerLen] = 0x7F }},
	}
	for _, tc := range cases {
		b := append([]byte{}, payload...)
		tc.mutate(b)
		if err := DecodeRequest(b, &req); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
	var res BatchRes
	if err := DecodeResponse(payload, &res); err == nil {
		t.Error("request payload decoded as a response")
	}
}

// TestSQLLengthBound: a declared SQL length pointing past the frame, or past
// MaxSQLLen, rejects the frame instead of slicing out of bounds.
func TestSQLLengthBound(t *testing.T) {
	payload, err := EncodeRequest(nil, []Op{{Code: OpAdmitSQL, SQL: []byte("SELECT 1")}})
	if err != nil {
		t.Fatal(err)
	}
	b := append([]byte{}, payload...)
	le.PutU32(b, headerLen+11, uint32(len(b))) // length runs past the end
	var req BatchReq
	if err := DecodeRequest(b, &req); err == nil {
		t.Fatal("oversized SQL length decoded without error")
	}
	b = append([]byte{}, payload...)
	le.PutU32(b, headerLen+11, MaxSQLLen+1)
	if err := DecodeRequest(b, &req); err == nil {
		t.Fatal("SQL length over MaxSQLLen decoded without error")
	}
}

// TestCodecZeroAlloc pins the tentpole invariant: with warm scratch buffers,
// the whole encode/decode cycle — both directions — allocates nothing.
func TestCodecZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	ops := make([]Op, 64)
	for i := range ops {
		ops[i] = randOp(rng)
	}
	results := make([]Result, 64)
	for i := range results {
		results[i] = randResult(rng)
	}
	var (
		reqBuf, resBuf []byte
		req            BatchReq
		res            BatchRes
		err            error
	)
	// Warm every buffer to its high-water mark.
	reqBuf, err = EncodeRequest(reqBuf, ops)
	if err != nil {
		t.Fatal(err)
	}
	if err = DecodeRequest(reqBuf, &req); err != nil {
		t.Fatal(err)
	}
	resBuf, err = EncodeResponse(resBuf, results)
	if err != nil {
		t.Fatal(err)
	}
	if err = DecodeResponse(resBuf, &res); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(500, func() {
		reqBuf, err = EncodeRequest(reqBuf, ops)
		if err != nil {
			t.Fatal(err)
		}
		if err = DecodeRequest(reqBuf, &req); err != nil {
			t.Fatal(err)
		}
		resBuf, err = EncodeResponse(resBuf, results)
		if err != nil {
			t.Fatal(err)
		}
		if err = DecodeResponse(resBuf, &res); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("warm encode/decode cycle allocates %v allocs/op, want 0", avg)
	}
}

// FuzzDecode feeds arbitrary bytes to both decoders: they must reject or
// accept without panicking, and anything accepted must re-encode to a frame
// that decodes back to the same ops (the canonical-encoding property).
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewPCG(9, 10))
	ops := make([]Op, 6)
	for i := range ops {
		ops[i] = randOp(rng)
	}
	reqSeed, _ := EncodeRequest(nil, ops)
	results := make([]Result, 6)
	for i := range results {
		results[i] = randResult(rng)
	}
	resSeed, _ := EncodeResponse(nil, results)
	f.Add(reqSeed)
	f.Add(resSeed)
	f.Add([]byte{Magic, Version, kindRequest, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req BatchReq
		if DecodeRequest(data, &req) == nil {
			out, err := EncodeRequest(nil, req.Ops)
			if err != nil {
				t.Fatalf("accepted frame re-encodes with error: %v", err)
			}
			var req2 BatchReq
			if err := DecodeRequest(out, &req2); err != nil {
				t.Fatalf("re-encoded frame rejected: %v", err)
			}
			if len(req2.Ops) != len(req.Ops) {
				t.Fatalf("re-encode changed op count %d -> %d", len(req.Ops), len(req2.Ops))
			}
			for i := range req.Ops {
				if !opsEqual(req.Ops[i], req2.Ops[i]) {
					t.Fatalf("op %d changed across re-encode: %+v -> %+v",
						i, req.Ops[i], req2.Ops[i])
				}
			}
		}
		var res BatchRes
		_ = DecodeResponse(data, &res)
	})
}
