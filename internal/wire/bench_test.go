package wire

import (
	"testing"
)

// benchOps builds a batch of n plain admit ops — the wire format's hottest
// shape.
func benchOps(n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Code: OpAdmit, Class: uint16(i % 2), Cost: float64(10 + i)}
	}
	return ops
}

// BenchmarkCodecRoundtrip256 prices one full frame cycle at the benchmark
// matrix's largest batch: encode a 256-op request, decode it, encode the
// 256-result response, decode that. Divide ns/op by 512 for per-decision
// codec cost; allocs/op must be 0 (TestCodecZeroAlloc enforces it).
func BenchmarkCodecRoundtrip256(b *testing.B) {
	ops := benchOps(256)
	results := make([]Result, 256)
	for i := range results {
		results[i] = Result{Code: OpAdmit, Status: StatusAdmitted,
			Class: uint16(i % 2), Shard: uint16(i % 8), GShard: uint16(i % 4),
			Start: int64(i) * 1000, QID: int64(i)}
	}
	var (
		reqBuf, resBuf []byte
		req            BatchReq
		res            BatchRes
		err            error
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if reqBuf, err = EncodeRequest(reqBuf, ops); err != nil {
			b.Fatal(err)
		}
		if err = DecodeRequest(reqBuf, &req); err != nil {
			b.Fatal(err)
		}
		if resBuf, err = EncodeResponse(resBuf, results); err != nil {
			b.Fatal(err)
		}
		if err = DecodeResponse(resBuf, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatch256 prices the transport-free middle of the wire path: a
// 128-admit frame followed by the 128-done frame that balances it, against a
// live runtime. Divide ns/op by 256 for per-decision dispatch cost; allocs/op
// must be 0.
func BenchmarkDispatch256(b *testing.B) {
	r := testRuntime(b)
	d := &Dispatcher{RT: r}
	admits := benchOps(128)
	dones := make([]Op, 128)
	var res, rel []Result
	cycle := func() {
		res = d.Dispatch(admits, res)
		for i := range res {
			if res[i].Status != StatusAdmitted {
				b.Fatal("gate unexpectedly closed")
			}
			dones[i] = doneOpFor(res[i])
		}
		rel = d.Dispatch(dones, rel)
	}
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
